//! The sweep execution pool: runs `n` independent cells on worker
//! threads, collects results **by cell index**, and isolates per-cell
//! panics.
//!
//! Scheduling is dynamic work-sharing: workers pull the next unclaimed
//! cell index from a shared atomic counter, so a slow cell never blocks
//! the queue behind it (the same load-balancing property a work-stealing
//! deque gives for a flat grid of tasks, without the machinery — every
//! sweep is a single batch of independent cells, so there is nothing to
//! steal *from*). Determinism does not depend on scheduling at all:
//! which worker runs a cell, and in which order cells finish, is
//! irrelevant because each cell is a pure function of its index and the
//! results vector is slotted by index.

use std::io::IsTerminal;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use corral_trace::{probe, CounterSet};

/// A cell that panicked instead of producing a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Index of the failed cell in the sweep grid.
    pub index: usize,
    /// The panic payload, rendered to text.
    pub message: String,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell {} panicked: {}", self.index, self.message)
    }
}

/// Outcome of one cell: its value, or the recorded panic.
pub type CellResult<T> = Result<T, CellFailure>;

/// Counter names the pool maintains in its [`CounterSet`].
pub const COUNTERS: [&str; 4] = [
    "sweep.cells_total",
    "sweep.cells_started",
    "sweep.cells_done",
    "sweep.cells_failed",
];

/// The number of worker threads to use when the caller does not say:
/// the host's available parallelism (1 if it cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Derives `n` statistically independent child seeds from `base` via
/// splitmix64 — the standard way to fan one CLI `--seed` out into a
/// `--seeds N` pool without correlated low bits.
pub fn derive_seeds(base: u64, n: usize) -> Vec<u64> {
    let mut state = base;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// A sweep execution pool: `jobs` worker threads, live progress
/// counters, optional stderr progress rendering.
///
/// The pool holds no threads between runs — `run` spins up a scoped
/// crew, drains the grid, and joins them — so a `SweepPool` is cheap to
/// construct and safe to drop at any time.
#[derive(Debug)]
pub struct SweepPool {
    jobs: usize,
    progress: bool,
    counters: Arc<CounterSet>,
}

impl SweepPool {
    /// A pool with `jobs` workers (`0` means [`default_jobs`]). Progress
    /// rendering defaults to on-when-stderr-is-a-terminal.
    pub fn new(jobs: usize) -> Self {
        SweepPool {
            jobs: if jobs == 0 { default_jobs() } else { jobs },
            progress: std::io::stderr().is_terminal(),
            counters: Arc::new(CounterSet::new(&COUNTERS)),
        }
    }

    /// Forces live progress rendering on or off (the default follows
    /// whether stderr is a terminal).
    pub fn progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    /// The pool's worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Workers a sweep of `n` cells will actually use: the configured
    /// `jobs`, capped by the cell count — and clamped to 1 (serial
    /// inline execution, no pool threads) when the host itself has only
    /// one CPU, where worker threads cost context switches and
    /// contention but can never overlap work (a serial-vs-parallel timing
    /// once measured a 0.857× "speedup" on a 1-CPU host).
    pub fn effective_jobs(&self, n: usize) -> usize {
        let w = self.jobs.min(n).max(1);
        if default_jobs() == 1 {
            1
        } else {
            w
        }
    }

    /// The live counters (`sweep.cells_total/started/done/failed`) —
    /// shareable with an external progress display.
    pub fn counters(&self) -> Arc<CounterSet> {
        self.counters.clone()
    }

    /// Executes cells `0..n` of a sweep and returns their outcomes in
    /// index order.
    ///
    /// `f` must be a pure function of the cell index (all mutable state
    /// owned by the cell); under that contract the returned vector is
    /// identical whatever `jobs` is — byte-for-byte equal to serial
    /// execution. A panic inside `f(i)` is caught and recorded as
    /// `Err(CellFailure)` for that cell only; the sweep always runs to
    /// completion.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<CellResult<T>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.counters.add("sweep.cells_total", n as u64);
        let workers = self.effective_jobs(n);
        if workers == 1 {
            // Serial fast path (explicit `--jobs 1`, single-cell sweeps,
            // or a 1-CPU host): same per-cell semantics (panic isolation
            // included), no thread machinery.
            return (0..n).map(|i| self.run_cell(i, &f)).collect();
        }

        let slots: Vec<Mutex<Option<CellResult<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let completed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        probe::queue_depth(n.saturating_sub(i + 1));
                        let r = self.run_cell(i, &f);
                        *slots[i].lock().unwrap() = Some(r);
                        completed.fetch_add(1, Ordering::Release);
                    }
                    // Merge this worker's probe data before the scope
                    // joins us; TLS-destructor merging is not ordered
                    // before `scope` returns.
                    probe::flush_thread();
                });
            }
            if self.progress {
                // Reporter thread: redraws one stderr status line until
                // every cell has completed, then clears it.
                s.spawn(|| {
                    while completed.load(Ordering::Acquire) < n {
                        let done = self.counters.get("sweep.cells_done");
                        let failed = self.counters.get("sweep.cells_failed");
                        let total = self.counters.get("sweep.cells_total");
                        if failed > 0 {
                            eprint!("\r[sweep] {done}/{total} cells ({failed} failed)   ");
                        } else {
                            eprint!("\r[sweep] {done}/{total} cells   ");
                        }
                        std::thread::sleep(Duration::from_millis(200));
                    }
                    eprint!("\r                                        \r");
                });
            }
        });
        let _probe = probe::span(probe::SpanKind::SweepReduce);
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap()
                    .expect("every cell index was claimed and completed")
            })
            .collect()
    }

    /// Like [`run`](SweepPool::run) but unwraps: panics (after the whole
    /// sweep has completed) if any cell failed, reporting every failure.
    pub fn run_all<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let results = self.run(n, f);
        let failures: Vec<String> = results
            .iter()
            .filter_map(|r| r.as_ref().err().map(CellFailure::to_string))
            .collect();
        if !failures.is_empty() {
            panic!("sweep failed: {}", failures.join("; "));
        }
        results.into_iter().map(|r| r.ok().unwrap()).collect()
    }

    fn run_cell<T, F>(&self, i: usize, f: &F) -> CellResult<T>
    where
        F: Fn(usize) -> T,
    {
        let _probe = probe::span(probe::SpanKind::SweepCell);
        self.counters.inc("sweep.cells_started");
        match catch_unwind(AssertUnwindSafe(|| f(i))) {
            Ok(v) => {
                self.counters.inc("sweep.cells_done");
                Ok(v)
            }
            Err(payload) => {
                self.counters.inc("sweep.cells_failed");
                Err(CellFailure {
                    index: i,
                    message: panic_message(payload.as_ref()),
                })
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately scheduling-hostile cell: later indices finish
    /// first, so completion order inverts index order.
    fn slow_square(i: usize) -> usize {
        std::thread::sleep(Duration::from_millis(((13 - i % 13) * 2) as u64));
        i * i
    }

    #[test]
    fn results_are_in_index_order_regardless_of_jobs() {
        let serial: Vec<usize> = SweepPool::new(1).progress(false).run_all(20, slow_square);
        let parallel: Vec<usize> = SweepPool::new(8).progress(false).run_all(20, slow_square);
        assert_eq!(serial, (0..20).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn panicking_cell_is_isolated() {
        let pool = SweepPool::new(4).progress(false);
        let results = pool.run(8, |i| {
            if i == 3 {
                panic!("poisoned cell");
            }
            i
        });
        for (i, r) in results.iter().enumerate() {
            if i == 3 {
                let f = r.as_ref().unwrap_err();
                assert_eq!(f.index, 3);
                assert!(f.message.contains("poisoned cell"), "{f}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i);
            }
        }
        assert_eq!(pool.counters().get("sweep.cells_total"), 8);
        assert_eq!(pool.counters().get("sweep.cells_done"), 7);
        assert_eq!(pool.counters().get("sweep.cells_failed"), 1);
    }

    #[test]
    fn serial_path_isolates_panics_identically() {
        let results = SweepPool::new(1).progress(false).run(3, |i| {
            if i == 1 {
                panic!("boom {i}");
            }
            i
        });
        assert_eq!(results[0], Ok(0));
        assert_eq!(
            results[1],
            Err(CellFailure {
                index: 1,
                message: "boom 1".into()
            })
        );
        assert_eq!(results[2], Ok(2));
    }

    #[test]
    #[should_panic(expected = "sweep failed")]
    fn run_all_surfaces_failures_after_completion() {
        SweepPool::new(2).progress(false).run_all(4, |i| {
            if i == 0 {
                panic!("first cell dies");
            }
            i
        });
    }

    #[test]
    fn zero_jobs_means_auto_and_empty_sweeps_work() {
        let pool = SweepPool::new(0).progress(false);
        assert!(pool.jobs() >= 1);
        let r: Vec<CellResult<u8>> = pool.run(0, |_| 0u8);
        assert!(r.is_empty());
    }

    #[test]
    fn effective_jobs_caps_and_falls_back() {
        let pool = SweepPool::new(8).progress(false);
        // Never more workers than cells, never fewer than one.
        assert_eq!(SweepPool::new(1).progress(false).effective_jobs(5), 1);
        assert_eq!(pool.effective_jobs(1), 1);
        assert!(pool.effective_jobs(20) >= 1);
        if default_jobs() == 1 {
            // 1-CPU host: always serial-inline, whatever --jobs says.
            assert_eq!(pool.effective_jobs(20), 1);
        } else {
            assert_eq!(pool.effective_jobs(20), 8);
        }
    }

    #[test]
    fn derived_seeds_are_deterministic_and_distinct() {
        let a = derive_seeds(0xC0441, 16);
        let b = derive_seeds(0xC0441, 16);
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 16, "collision in derived seeds");
        assert_ne!(derive_seeds(1, 4), derive_seeds(2, 4));
    }
}
