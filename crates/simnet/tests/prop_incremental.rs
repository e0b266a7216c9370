//! Property tests for the incremental fabric path and the calendar-queue
//! event scheduler.
//!
//! The incremental max-min path (`RatePolicy::FairShare`) and the
//! coflow-incremental Varys/SEBF path must each be *bit-identical* to a
//! from-scratch solve at every recompute: the fabric carries a
//! same-process oracle (`Fabric::set_full_oracle`) that re-derives the
//! full solution from scratch on dedicated scratch buffers and asserts
//! `rate.to_bits()` equality per flow. These tests drive the fabric
//! through random churn scripts — flow starts (coflow-tagged and
//! singleton), partial advances, cancels, background changes — with the
//! oracle armed, and additionally assert the oracle itself is invisible
//! (oracle-on and oracle-off runs produce byte-identical completion
//! streams and `FabricStats`).
//!
//! The calendar queue must preserve a `BinaryHeap` scheduler's exact
//! `(time, insertion order)` pop order, including equal-time ties and
//! `+inf` deadlines; `HeapEventQueue` below is that oracle.

use corral_model::{Bandwidth, Bytes, ClusterConfig, MachineId, RackId, SimTime};
use corral_simnet::{CoflowId, EventQueue, Fabric, FlowKind, FlowSpec, FlowTag, RatePolicy};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

fn cfg() -> ClusterConfig {
    ClusterConfig::tiny_test()
}

/// One step of a churn script. Encoded as a flat tuple so the strategy
/// stays shrinkable: `(op, a, b, x, cf)` where `op` selects the action
/// and the rest are reinterpreted per action.
type Step = (u8, u32, u32, f64, Option<u64>);

fn steps(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (
            0u8..6,
            0u32..12,
            0u32..12,
            1e3f64..3e9,
            proptest::option::of(0u64..4),
        ),
        n,
    )
}

/// Replays `script` against a fresh fabric and returns the completion
/// stream (id, finished-time bits, byte bits) plus the final stats
/// rendered via `Debug` (`FabricStats` has no `PartialEq`; the render is
/// exact for the integer counters and prints the float fields with enough
/// digits to catch real divergence).
fn run_script(script: &[Step], policy: RatePolicy, oracle: bool) -> (Vec<(u64, u64, u64)>, String) {
    let mut fabric = Fabric::new(cfg(), policy);
    fabric.set_full_oracle(oracle);
    let mut live = Vec::new();
    let mut done = Vec::new();
    let collect = |completed: Vec<corral_simnet::CompletedFlow>,
                   live: &mut Vec<corral_model::FlowId>,
                   done: &mut Vec<(u64, u64, u64)>| {
        for c in completed {
            live.retain(|&id| id != c.id);
            done.push((c.id.0, c.finished.0.to_bits(), c.bytes.0.to_bits()));
        }
    };
    for &(op, a, b, x, cf) in script {
        match op {
            // Flow starts dominate the mix so scripts build up real
            // contention before churning it.
            0 | 1 => {
                let id = fabric.start_flow(FlowSpec {
                    src: MachineId(a),
                    dst: MachineId(b),
                    bytes: Bytes(x),
                    tag: FlowTag::infrastructure(FlowKind::Shuffle),
                    coflow: cf.map(CoflowId),
                });
                live.push(id);
            }
            2 => {
                // Advance by a script-derived fraction of a second; long
                // enough to complete small flows, short enough to leave
                // big ones in flight.
                let dt = (x / 3e9).max(1e-4);
                let t = SimTime(fabric.now().0 + dt);
                collect(fabric.advance_to(t), &mut live, &mut done);
            }
            3 => {
                if !live.is_empty() {
                    let id = live[a as usize % live.len()];
                    fabric.cancel_flow(id);
                    live.retain(|&l| l != id);
                }
            }
            4 => {
                let frac = (x / 3e9).clamp(0.0, 0.8);
                fabric.set_rack_background(RackId(a % 3), Bandwidth(frac * 1.25e9));
            }
            _ => {
                // Step to the next completion boundary exactly (the case
                // most likely to expose stale-deadline bugs).
                if let Some(t) = fabric.next_completion() {
                    collect(fabric.advance_to(t), &mut live, &mut done);
                }
            }
        }
    }
    collect(fabric.drain(), &mut live, &mut done);
    assert!(live.is_empty(), "drain left live flows behind");
    fabric.flush_accounting();
    (done, format!("{:?}", fabric.stats()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random churn with the from-scratch oracle armed: every incremental
    /// recompute is asserted bit-identical to a full re-solve (the oracle
    /// panics inside the fabric on any mismatch), and every injected flow
    /// is either completed or cancelled by the final drain.
    #[test]
    fn incremental_matches_full_solve_under_churn(script in steps(1..40)) {
        let (done, _) = run_script(&script, RatePolicy::FairShare, true);
        // Completion times never go backwards.
        for w in done.windows(2) {
            prop_assert!(f64::from_bits(w[1].1) >= f64::from_bits(w[0].1) - 1e-9);
        }
    }

    /// The oracle is observation-only: arming it changes no completion
    /// time, no byte count, and no stats counter.
    #[test]
    fn oracle_is_invisible(script in steps(1..32)) {
        let (done_on, stats_on) = run_script(&script, RatePolicy::FairShare, true);
        let (done_off, stats_off) = run_script(&script, RatePolicy::FairShare, false);
        prop_assert_eq!(done_on, done_off);
        prop_assert_eq!(stats_on, stats_off);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Varys/SEBF churn with the from-scratch oracle armed: on *every*
    /// coflow-incremental recompute the fabric re-solves the entire CSR
    /// through `RatePolicy::allocate_from_scratch` (canonical SEBF + MADD +
    /// per-component backfill, no cached state) and panics unless each
    /// flow's `rate.to_bits()` matches the incrementally maintained
    /// table. Scripts interleave coflow-tagged and singleton starts,
    /// cancels, exact completion boundaries, and background (capacity
    /// epoch) changes — the capacity changes force full-boundary rebuilds
    /// mid-script, so cache rebuild + re-dirty transitions are covered
    /// too.
    #[test]
    fn varys_incremental_matches_full_solve_under_churn(script in steps(1..40)) {
        let (done, _) = run_script(&script, RatePolicy::Varys, true);
        // Completion times never go backwards.
        for w in done.windows(2) {
            prop_assert!(f64::from_bits(w[1].1) >= f64::from_bits(w[0].1) - 1e-9);
        }
    }

    /// The coflow-mode oracle is observation-only, exactly like the
    /// memoryless one: arming it changes no completion time, no byte
    /// count, and no stats counter.
    #[test]
    fn varys_oracle_is_invisible(script in steps(1..32)) {
        let (done_on, stats_on) = run_script(&script, RatePolicy::Varys, true);
        let (done_off, stats_off) = run_script(&script, RatePolicy::Varys, false);
        prop_assert_eq!(done_on, done_off);
        prop_assert_eq!(stats_on, stats_off);
    }
}

/// An entry in the heap-based oracle queue.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the *earliest* event is popped
        // first, breaking ties by insertion sequence.
        other
            .time
            .total_cmp(self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A `BinaryHeap`-backed event queue: the ordering oracle for
/// [`EventQueue`].
struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
}

impl<E> HeapEventQueue<E> {
    fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(at.0 >= self.now.0, "scheduled event in the past");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            payload,
        });
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = self.heap.pop()?;
        self.now = e.time;
        Some((e.time, e.payload))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// One step of a queue script: `Push(time_bucket, inf)` or `Pop`.
fn queue_steps(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(bool, u8, bool)>> {
    // `0u8..10` + equality below gives a ~10% chance of an `+inf` push.
    proptest::collection::vec((any::<bool>(), 0u8..6, (0u8..10).prop_map(|v| v == 0)), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The calendar queue pops in exactly the heap's order: equal-time
    /// events in insertion order, `+inf` deadlines last (also in
    /// insertion order), under arbitrary push/pop interleavings.
    #[test]
    fn calendar_queue_matches_heap_order(script in queue_steps(1..64)) {
        let mut cal = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut next = 0u32;
        for (push, bucket, inf) in script {
            if push {
                // Coarse buckets force heavy equal-time collisions; the
                // offset keeps schedules legal (never before `now`).
                let at = if inf {
                    SimTime(f64::INFINITY)
                } else {
                    SimTime(cal.now().0 + bucket as f64 * 0.25)
                };
                cal.schedule(at, next);
                heap.schedule(at, next);
                next += 1;
            } else {
                prop_assert_eq!(cal.peek_time(), heap.peek_time());
                let a = cal.pop();
                let b = heap.pop();
                prop_assert_eq!(a, b);
                prop_assert_eq!(cal.now(), heap.now());
            }
            prop_assert_eq!(cal.len(), heap.len());
        }
        loop {
            let a = cal.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
