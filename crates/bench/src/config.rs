//! Process-wide sweep knobs for the experiment harness.
//!
//! The `repro` driver parses `-j/--jobs` and `--seeds` once and stores
//! them here; every experiment module reads them instead of threading
//! two extra parameters through twenty `main()`s. Both knobs are plain
//! atomics — set before experiments start, read-only afterwards — so
//! they cannot introduce cross-cell shared mutable state.

use std::sync::atomic::{AtomicUsize, Ordering};

use corral_sweep::SweepPool;

static JOBS: AtomicUsize = AtomicUsize::new(0); // 0 = auto (host parallelism)
static SEEDS: AtomicUsize = AtomicUsize::new(0); // 0 = DEFAULT_SEEDS

/// Default arrival-seed pool size for the online experiments
/// (fig8/fig9/fig13b). The paper's methodology pools seeds because
/// Yarn-CS completion times vary strongly with the arrival pattern;
/// 8 seeds brings the fig8-W1 median's 95% CI half-width under 3% of
/// the mean (see EXPERIMENTS.md "Online runs").
pub const DEFAULT_SEEDS: usize = 8;

/// The bank of arrival seeds experiments draw from, in pool order. The
/// first three are the harness's historical pool (so `--seeds 3`
/// reproduces pre-sweep results exactly); the rest are arbitrary fixed
/// constants. `--seeds` beyond the bank extends it deterministically
/// via [`corral_sweep::derive_seeds`].
pub const ARRIVAL_SEED_BANK: [u64; 16] = [
    0x1, 0xF18, 0xF19, 0xA5A5, 0x51EE7, 0xB0B, 0xD00D, 0xFEED, 0xBEEF, 0xCAFE, 0x1CE, 0xF00D,
    0x7E57, 0x5EED, 0x9A9A, 0x2B2B,
];

/// Sets the worker count for experiment sweeps (0 = host parallelism).
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// Sets the arrival-seed pool size (0 = [`DEFAULT_SEEDS`]).
pub fn set_seeds(n: usize) {
    SEEDS.store(n, Ordering::Relaxed);
}

/// The arrival seeds the online experiments pool, in deterministic
/// order: the first `--seeds N` entries of [`ARRIVAL_SEED_BANK`],
/// extended via `derive_seeds` if N exceeds the bank.
pub fn arrival_seeds() -> Vec<u64> {
    let n = match SEEDS.load(Ordering::Relaxed) {
        0 => DEFAULT_SEEDS,
        n => n,
    };
    let mut seeds: Vec<u64> = ARRIVAL_SEED_BANK
        .iter()
        .copied()
        .take(n.min(ARRIVAL_SEED_BANK.len()))
        .collect();
    if n > seeds.len() {
        seeds.extend(corral_sweep::derive_seeds(0x5EED_BA5E, n - seeds.len()));
    }
    seeds
}

/// A sweep pool configured with the harness's worker count (`SweepPool`
/// resolves 0 to the host's parallelism).
pub fn pool() -> SweepPool {
    SweepPool::new(JOBS.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_pool_prefix_is_the_historical_pool() {
        // Do not set_seeds here: these globals are process-wide and other
        // tests read them; just check the bank directly.
        assert_eq!(&ARRIVAL_SEED_BANK[..3], &[0x1, 0xF18, 0xF19]);
        let mut uniq = ARRIVAL_SEED_BANK.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), ARRIVAL_SEED_BANK.len(), "seed bank collision");
    }
}
