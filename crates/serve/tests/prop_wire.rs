//! Property tests for the hardened wire/snapshot paths: no input —
//! well-formed, mutated, or outright random bytes — may panic, loop, or
//! silently corrupt the serving stack. Malformed lines degrade to
//! structured errors (strict) or `Malformed` placeholder events (lossy),
//! and any byte-level damage to a snapshot is refused at restore.

use corral_model::{Bandwidth, Bytes, ClusterConfig, JobId, JobSpec, MapReduceProfile, SimTime};
use corral_serve::source::read_events_lossy;
use corral_serve::{wire, Scheduler, ServeConfig, ServeEvent};
use corral_trace::json;
use proptest::prelude::*;

fn spec(id: u32, arrival: f64, gb: f64) -> JobSpec {
    JobSpec::map_reduce(
        JobId(id),
        format!("j{id}"),
        MapReduceProfile {
            input: Bytes::gb(gb),
            shuffle: Bytes::gb(gb / 2.0),
            output: Bytes::gb(gb / 10.0),
            maps: 8,
            reduces: 4,
            map_rate: Bandwidth::mbytes_per_sec(50.0),
            reduce_rate: Bandwidth::mbytes_per_sec(50.0),
        },
    )
    .arriving_at(SimTime(arrival))
}

/// A valid wire line for one of the event shapes, picked by `kind`.
fn valid_line(kind: u8, id: u32, t: f64) -> String {
    let ev = match kind % 4 {
        0 => ServeEvent::Arrival(spec(id, t, 1.0 + (id % 5) as f64)),
        1 => ServeEvent::Completion {
            job: JobId(id),
            at: SimTime(t),
        },
        2 => ServeEvent::MachineFailed {
            machine: corral_model::MachineId(id % 64),
            at: SimTime(t),
        },
        _ => ServeEvent::MachineRepaired {
            machine: corral_model::MachineId(id % 64),
            at: SimTime(t),
        },
    };
    wire::format_event(&ev).expect("valid events format")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random byte mutations of valid wire lines parse to `Ok` or `Err`
    /// — never a panic — and the lossy reader always degrades them to
    /// exactly one event per line.
    #[test]
    fn mutated_wire_lines_never_panic(
        kind in any::<u8>(),
        id in 0u32..1000,
        t in 0.0f64..1e6,
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..8),
    ) {
        let mut bytes = valid_line(kind, id, t).into_bytes();
        for (pos, byte) in &edits {
            let i = pos % bytes.len();
            bytes[i] = *byte;
        }
        let line = String::from_utf8_lossy(&bytes).into_owned();

        // Strict parse: structured result either way, no panic.
        let _ = wire::parse_event(&line);

        // Lossy read: never an error, positional alignment preserved.
        if !line.contains('\n') {
            let events = read_events_lossy(line.as_bytes()).unwrap();
            let expected = usize::from(!line.trim().is_empty());
            prop_assert_eq!(events.len(), expected);
        }
    }

    /// Arbitrary byte soup through the lossy reader: always `Ok`, one
    /// event per non-blank line, and anything unparseable surfaces as
    /// `Malformed` rather than being dropped (the alignment guarantee
    /// snapshot restore depends on).
    #[test]
    fn random_bytes_lossy_reader_is_total(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let events = read_events_lossy(text.as_bytes()).unwrap();
        let nonblank = text.lines().filter(|l| !l.trim().is_empty()).count();
        prop_assert_eq!(events.len(), nonblank);
    }

    /// Deep nesting is depth-bounded: pathological `[[[…]]]` input
    /// returns `Err` from the recursive-descent parser instead of
    /// overflowing the stack.
    #[test]
    fn deep_nesting_is_bounded_not_fatal(depth in 1usize..512) {
        let text = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        let result = json::parse(&text);
        prop_assert_eq!(result.is_ok(), depth <= json::MAX_DEPTH);
        // The same text as a wire line is a clean parse error.
        prop_assert!(wire::parse_event(&text).is_err());
    }

    /// Any single-byte change to a snapshot (body or checksum trailer)
    /// is refused at restore — the checksum leaves no silent path.
    #[test]
    fn corrupted_snapshots_are_always_refused(
        pos in any::<usize>(),
        delta in 1u8..255,
    ) {
        let cfg = ServeConfig {
            cluster: ClusterConfig::tiny_test(),
            ..ServeConfig::default()
        };
        let mut sched = Scheduler::new(cfg.clone());
        let mut out = Vec::new();
        for i in 1..=3u32 {
            sched.on_event(ServeEvent::Arrival(spec(i, i as f64 * 5.0, 2.0)), &mut out);
        }
        let snap = corral_serve::snapshot::write(&sched).unwrap();

        let mut bytes = snap.clone().into_bytes();
        let i = pos % bytes.len();
        bytes[i] = bytes[i].wrapping_add(delta);
        let corrupted = String::from_utf8_lossy(&bytes).into_owned();
        prop_assume!(corrupted != snap); // lossy re-encoding could normalize
        prop_assert!(corral_serve::snapshot::read(&corrupted, cfg).is_err());
    }
}
