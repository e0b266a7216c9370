//! Host-speed reference for the timed metrics.
//!
//! On a shared VM the host's speed drifts by tens of percent over tens
//! of seconds, far more than any pass-to-pass noise, so repeating passes
//! alone cannot make a run's times repeat. The benchmark therefore times
//! a fixed reference kernel (standard library only, no repository code,
//! so no change to the program moves it) at the edges of short segments
//! of timed work, and scales each segment by the host speed measured
//! around it:
//!
//! ```text
//! normalised = raw * NOMINAL_REF_S / mean(ref before segment, ref after segment)
//! ```
//!
//! A normalised time is the time the work would take on a host on which
//! the kernel takes `NOMINAL_REF_S`. On this kind of host the program's
//! slow spells tracked memory-bound kernels better than compute-bound
//! ones, so the kernel is memory-bound: a dependent pointer chase
//! through 16 MiB and independent random loads from 8 MiB, timed
//! together. Of the kernels tried (sorts, hash probes, floating-point
//! chains, streaming reads, chases and gathers from 256 KiB to 64 MiB)
//! this pair tracked the passes' host time most closely. A small event
//! loop over a 9 MiB graph tracked some interleaved samples better, but
//! over ten runs it left `fig14-2k-varys`'s `wall_s` spread at 0.14,
//! against 0.04 with this pair. It allocates nothing after
//! [`HostClock::new`], so it never shows in the heap counter, and it
//! runs between timed calls, never inside one.

use std::time::Instant;

/// Reference kernel time, about its median on the 2-vCPU x86-64 VM the
/// benchmark was built on. It sets only the scale of normalised times.
pub const NOMINAL_REF_S: f64 = 0.007;

/// Timed work per segment before the host speed is sampled again.
const SEGMENT_S: f64 = 0.5;

/// Kernel runs per speed sample; the sample is the fastest, the one
/// least disturbed by a momentary stall.
const REPS: usize = 3;

/// 64-bit words of a Linux `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn only(cpu: usize) -> [u64; CPU_SET_WORDS] {
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    mask
}

fn set_affinity(mask: &[u64; CPU_SET_WORDS]) -> bool {
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed, which the call only reads; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

const CHASE_LEN: usize = 1 << 22;
const CHASE_STEPS: usize = 25_000;
const GATHER_LEN: usize = 1 << 20;
const GATHER_LOADS: usize = 400_000;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The reference kernel's buffers: `chase` is a single cycle through
/// every index (Sattolo's shuffle), `gather` random indices into `data`.
struct Kernel {
    chase: Vec<u32>,
    data: Vec<u64>,
    gather: Vec<u32>,
}

impl Kernel {
    fn new() -> Kernel {
        let mut s = 0x5EED;
        let mut chase: Vec<u32> = (0..CHASE_LEN as u32).collect();
        for i in (1..CHASE_LEN).rev() {
            let j = (splitmix64(&mut s) % i as u64) as usize;
            chase.swap(i, j);
        }
        let gather = (0..GATHER_LOADS)
            .map(|_| (splitmix64(&mut s) % GATHER_LEN as u64) as u32)
            .collect();
        Kernel {
            chase,
            data: (0..GATHER_LEN as u64).collect(),
            gather,
        }
    }

    fn run(&self) -> u64 {
        let mut p = 0u32;
        for _ in 0..CHASE_STEPS {
            p = self.chase[p as usize];
        }
        let sum = self
            .gather
            .iter()
            .fold(0u64, |a, &i| a.wrapping_add(self.data[i as usize]));
        sum ^ p as u64
    }

    /// Host time of the fastest of [`REPS`] kernel runs.
    fn sample(&self) -> f64 {
        (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(self.run());
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// Splits timed work into segments and samples the host speed at every
/// segment edge. Segment `k` lies between samples `k` and `k + 1`.
pub struct HostClock {
    kernel: Kernel,
    samples: Vec<f64>,
    seg_raw: f64,
    cpu: Option<usize>,
}

impl HostClock {
    /// Builds the kernel, pins the thread to a CPU (see [`pin`]) and
    /// takes the first sample.
    pub fn new() -> HostClock {
        let kernel = Kernel::new();
        // Warm-up: page in the buffers and fill the caches once.
        kernel.sample();
        let cpu = pin(&kernel);
        let mut samples = Vec::with_capacity(1 << 14);
        samples.push(kernel.sample());
        HostClock {
            kernel,
            samples,
            seg_raw: 0.0,
            cpu,
        }
    }

    /// The CPU the thread is pinned to, if pinning succeeded.
    pub fn cpu(&self) -> Option<usize> {
        self.cpu
    }

    /// Records `dt` seconds of timed work; returns the segment it fell
    /// in. Closes the segment once it holds [`SEGMENT_S`] of work.
    pub fn tick(&mut self, dt: f64) -> usize {
        let seg = self.samples.len() - 1;
        self.seg_raw += dt;
        if self.seg_raw >= SEGMENT_S {
            self.close();
        }
        seg
    }

    /// Closes the open segment, if it holds any work.
    pub fn close(&mut self) {
        if self.seg_raw > 0.0 {
            let s = self.kernel.sample();
            self.samples.push(s);
            self.seg_raw = 0.0;
        }
    }

    /// Factor that turns a raw time of segment `seg` into a normalised
    /// one. The segment must be closed.
    pub fn scale(&self, seg: usize) -> f64 {
        2.0 * NOMINAL_REF_S / (self.samples[seg] + self.samples[seg + 1])
    }

    /// Median reference kernel time over the run, in seconds.
    pub fn median_ref_s(&self) -> f64 {
        crate::median(&self.samples)
    }
}

/// Pins the calling thread to the allowed CPU on which the kernel runs
/// fastest, and returns it; on failure leaves the affinity as it was.
///
/// The vCPUs of a shared VM are not equally fast: set-up builds pinned
/// to one vCPU of a 2-vCPU VM took 0.06-0.07 s while the same builds on
/// the other took 0.10 s, and the slow one changes over minutes (a
/// co-tenant on its physical core would do this). A benchmark the
/// scheduler moves between vCPUs changes speed with every move. Pinning removes the moves, and the
/// kernel then samples the speed of the one vCPU the program runs on.
fn pin(kernel: &Kernel) -> Option<usize> {
    let mut allowed = [0u64; CPU_SET_WORDS];
    // SAFETY: `allowed` is a live buffer of exactly the size passed,
    // which the call fills; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let mut best: Option<(f64, usize)> = None;
    for cpu in (0..CPU_SET_WORDS * 64).filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1) {
        if !set_affinity(&only(cpu)) {
            continue;
        }
        let t = kernel.sample();
        if !matches!(best, Some((b, _)) if b <= t) {
            best = Some((t, cpu));
        }
    }
    if let Some((_, cpu)) = best {
        if set_affinity(&only(cpu)) {
            return Some(cpu);
        }
    }
    set_affinity(&allowed);
    None
}
