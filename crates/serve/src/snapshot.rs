//! Snapshot / restore of scheduler state.
//!
//! A versioned, line-oriented text format (the serde shim in this
//! workspace is marker-only, so serialization is hand-rolled). Every
//! `f64` is written with Rust's `{}` Display — the shortest string that
//! parses back to the identical bits — so a restored scheduler is
//! *numerically exact*, and the decision stream after a restore is
//! byte-identical to the uninterrupted run (enforced by
//! `tests/serve_snapshot.rs` in a fresh process).
//!
//! What is saved: config fingerprint (restore refuses a mismatched
//! config), service clock, dispatch sequence, stats, the dead-machine
//! set (so the rack mask and virtual planner come back exactly), the
//! admission queue (specs via the `corral-workloads` CSV codec + per-job
//! plan state), and the active set. What is *not* saved: the incremental
//! planner's latency tables and the plan cache — both start cold on
//! restore, which is safe because cached state only reproduces what a
//! cold replan computes bit-identically (cache warmth affects speed and
//! probe counters, never decisions).
//!
//! The body is integrity-protected: [`write()`] appends a 128-bit FNV
//! checksum trailer over everything through the `end` marker, and
//! [`read`] refuses a snapshot whose trailer is missing (truncated
//! file) or does not match (bit rot, partial write) — a corrupted
//! snapshot is an error, never a scheduler in a silently wrong state.
//!
//! Queued specs ride the MapReduce CSV codec, so snapshots cover the
//! `corral-sim serve` domain (MapReduce jobs — the JSONL wire format's
//! own limit); a DAG job submitted through the in-process channel makes
//! [`write()`] return an error rather than a lossy snapshot.

use crate::error::ServeError;
use crate::scheduler::{Active, Queued, Scheduler, ServeConfig, ServeStats};
use corral_model::{JobId, MachineId, RackId, SimTime};
use corral_trace::fnv::Fnv128;
use std::collections::BTreeMap;
use std::fmt::Write as _;

const MAGIC: &str = "corral-serve-snapshot v2";
const MAGIC_V1: &str = "corral-serve-snapshot v1";

/// 128-bit body checksum (the same hash as the plan cache's keys).
fn checksum(body: &str) -> (u64, u64) {
    let mut h = Fnv128::new();
    h.bytes(body.as_bytes());
    h.finish()
}

fn racks_str(racks: &[RackId]) -> String {
    if racks.is_empty() {
        return "-".into();
    }
    let mut s = String::new();
    for (i, r) in racks.iter().enumerate() {
        if i > 0 {
            s.push(';');
        }
        let _ = write!(s, "{}", r.0);
    }
    s
}

fn snap_err(msg: impl Into<String>) -> ServeError {
    ServeError::Snapshot(msg.into())
}

fn parse_racks(s: &str) -> Result<Vec<RackId>, ServeError> {
    if s == "-" || s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(';')
        .map(|p| {
            p.parse::<u32>()
                .map(RackId)
                .map_err(|_| snap_err(format!("bad rack id {p:?}")))
        })
        .collect()
}

fn parse_f64(s: &str) -> Result<f64, ServeError> {
    s.parse::<f64>()
        .map_err(|_| snap_err(format!("bad float {s:?}")))
}

fn parse_u64(s: &str) -> Result<u64, ServeError> {
    s.parse::<u64>()
        .map_err(|_| snap_err(format!("bad integer {s:?}")))
}

/// Serializes the scheduler to the versioned, checksummed text format.
/// Errors if a queued spec cannot ride the CSV codec (DAG jobs).
pub fn write(sched: &Scheduler) -> Result<String, ServeError> {
    let (config_fp, now, dispatch_seq, stats, queue, active, dead) = sched.snapshot_parts();
    let mut s = String::new();
    let _ = writeln!(s, "{MAGIC}");
    let _ = writeln!(s, "config {config_fp}");
    let _ = writeln!(s, "now {}", now.0);
    let _ = writeln!(s, "dispatch_seq {dispatch_seq}");
    let _ = writeln!(
        s,
        "stats {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
        stats.events,
        stats.decisions,
        stats.arrivals,
        stats.admitted,
        stats.rejected,
        stats.dispatched,
        stats.completed,
        stats.late_arrivals,
        stats.unknown_completions,
        stats.cache_hits,
        stats.cache_misses,
        stats.replans_incremental,
        stats.replans_full,
        stats.machine_failures,
        stats.machine_repairs,
        stats.rack_failures,
        stats.malformed,
        stats.reanchored,
        stats.dispatch_retries,
        stats.fallback_dispatches,
    );
    let _ = write!(s, "dead {}", dead.len());
    for m in &dead {
        let _ = write!(s, " {}", m.0);
    }
    s.push('\n');
    let _ = writeln!(s, "queue {}", queue.len());
    let specs: Vec<_> = queue.iter().map(|q| q.spec.clone()).collect();
    let csv = corral_workloads::trace::to_csv(&specs)
        .map_err(|e| snap_err(format!("queued spec not snapshot-serializable: {e}")))?;
    s.push_str(&csv);
    if !csv.ends_with('\n') {
        s.push('\n');
    }
    for q in queue {
        let _ = writeln!(
            s,
            "qstate {} {} {} {} {} {} {}",
            q.spec.id.0,
            racks_str(&q.racks),
            q.priority,
            q.planned_start.0,
            q.planned_finish.0,
            q.predicted_latency.0,
            q.attempts,
        );
    }
    let _ = writeln!(s, "active {}", active.len());
    let aspecs: Vec<_> = active.values().map(|a| a.spec.clone()).collect();
    let acsv = corral_workloads::trace::to_csv(&aspecs)
        .map_err(|e| snap_err(format!("active spec not snapshot-serializable: {e}")))?;
    s.push_str(&acsv);
    if !acsv.ends_with('\n') {
        s.push('\n');
    }
    for (id, a) in active {
        let _ = writeln!(
            s,
            "astate {} {} {} {} {}",
            id.0,
            racks_str(&a.racks),
            a.priority,
            a.dispatched_at.0,
            a.planned_finish.0,
        );
    }
    let _ = writeln!(s, "end");
    let (ca, cb) = checksum(&s);
    let _ = writeln!(s, "checksum {ca:016x} {cb:016x}");
    Ok(s)
}

fn field<'a>(parts: &mut impl Iterator<Item = &'a str>, what: &str) -> Result<&'a str, ServeError> {
    parts
        .next()
        .ok_or_else(|| snap_err(format!("missing field: {what}")))
}

fn expect_line<'a>(lines: &mut std::str::Lines<'a>, tag: &str) -> Result<Vec<&'a str>, ServeError> {
    let line = lines
        .next()
        .ok_or_else(|| snap_err(format!("truncated snapshot at {tag:?}")))?;
    let mut parts = line.split_whitespace();
    let got = parts.next().unwrap_or("");
    if got != tag {
        return Err(snap_err(format!("expected {tag:?}, got {got:?}")));
    }
    Ok(parts.collect())
}

/// Splits off and verifies the checksum trailer, returning the body.
fn verify_checksum(text: &str) -> Result<&str, ServeError> {
    let pos = text.rfind("\nchecksum ").ok_or_else(|| {
        snap_err("missing checksum trailer — snapshot is truncated or predates the trailer")
    })?;
    let body = &text[..pos + 1];
    let mut parts = text[pos + 1..].split_whitespace();
    parts.next(); // the "checksum" tag rfind matched
    let ca = u64::from_str_radix(field(&mut parts, "checksum a")?, 16)
        .map_err(|_| snap_err("malformed checksum trailer"))?;
    let cb = u64::from_str_radix(field(&mut parts, "checksum b")?, 16)
        .map_err(|_| snap_err("malformed checksum trailer"))?;
    if (ca, cb) != checksum(body) {
        return Err(snap_err(format!(
            "checksum mismatch (stored {ca:016x} {cb:016x}) — \
             snapshot is corrupted or was truncated mid-write"
        )));
    }
    Ok(body)
}

/// Rebuilds a scheduler from [`write()`] output. The checksum trailer is
/// verified before anything is parsed; `cfg` must fingerprint-match the
/// snapshotting configuration; the planner and plan cache start cold
/// (see module docs). The restored scheduler's stats carry on from the
/// snapshot values — in particular `stats.events` is the number of
/// input events already consumed, which is what a restoring frontend
/// skips.
pub fn read(text: &str, cfg: ServeConfig) -> Result<Scheduler, ServeError> {
    if !text.starts_with(MAGIC) {
        if text.starts_with(MAGIC_V1) {
            return Err(snap_err(format!(
                "{MAGIC_V1:?} snapshots predate the failure path (no \
                 dead-set, retry state, or checksum) and cannot be \
                 restored — re-snapshot with this binary"
            )));
        }
        return Err(snap_err(format!("not a {MAGIC:?} file")));
    }
    let body = verify_checksum(text)?;
    let mut lines = body.lines();
    lines.next(); // MAGIC, checked above

    let config_fp = parse_u64(expect_line(&mut lines, "config")?[0])?;
    if config_fp != cfg.fingerprint() {
        return Err(ServeError::Config(format!(
            "snapshot config fingerprint {config_fp} does not match the \
             current configuration ({}) — restore with the same cluster, \
             objective, planner options, queue bound, and failure policy",
            cfg.fingerprint()
        )));
    }
    let now = SimTime(parse_f64(expect_line(&mut lines, "now")?[0])?);
    let dispatch_seq = parse_u64(expect_line(&mut lines, "dispatch_seq")?[0])? as u32;
    let st = expect_line(&mut lines, "stats")?;
    if st.len() != 20 {
        return Err(snap_err(format!("stats wants 20 fields, got {}", st.len())));
    }
    let stats = ServeStats {
        events: parse_u64(st[0])?,
        decisions: parse_u64(st[1])?,
        arrivals: parse_u64(st[2])?,
        admitted: parse_u64(st[3])?,
        rejected: parse_u64(st[4])?,
        dispatched: parse_u64(st[5])?,
        completed: parse_u64(st[6])?,
        late_arrivals: parse_u64(st[7])?,
        unknown_completions: parse_u64(st[8])?,
        cache_hits: parse_u64(st[9])?,
        cache_misses: parse_u64(st[10])?,
        replans_incremental: parse_u64(st[11])?,
        replans_full: parse_u64(st[12])?,
        machine_failures: parse_u64(st[13])?,
        machine_repairs: parse_u64(st[14])?,
        rack_failures: parse_u64(st[15])?,
        malformed: parse_u64(st[16])?,
        reanchored: parse_u64(st[17])?,
        dispatch_retries: parse_u64(st[18])?,
        fallback_dispatches: parse_u64(st[19])?,
    };

    let dd = expect_line(&mut lines, "dead")?;
    let n_dead = parse_u64(dd.first().copied().unwrap_or(""))? as usize;
    if dd.len() != n_dead + 1 {
        return Err(snap_err(format!(
            "dead set wants {n_dead} machine ids, got {}",
            dd.len() - 1
        )));
    }
    let mut dead = Vec::with_capacity(n_dead);
    for m in &dd[1..] {
        dead.push(MachineId(parse_u64(m)? as u32));
    }

    let n_queue = parse_u64(expect_line(&mut lines, "queue")?[0])? as usize;
    // CSV block: header + n rows.
    let mut csv = String::new();
    for _ in 0..n_queue + 1 {
        let line = lines
            .next()
            .ok_or_else(|| snap_err("truncated snapshot in queue CSV"))?;
        csv.push_str(line);
        csv.push('\n');
    }
    let specs =
        corral_workloads::trace::from_csv(&csv).map_err(|e| snap_err(format!("queue CSV: {e}")))?;
    if specs.len() != n_queue {
        return Err(snap_err(format!(
            "queue wants {n_queue} specs, got {}",
            specs.len()
        )));
    }
    let mut queue = Vec::with_capacity(n_queue);
    for spec in specs {
        let line = lines
            .next()
            .ok_or_else(|| snap_err("truncated snapshot at qstate"))?;
        let mut parts = line.split_whitespace();
        if field(&mut parts, "qstate tag")? != "qstate" {
            return Err(snap_err("expected qstate line"));
        }
        let id = JobId(parse_u64(field(&mut parts, "id")?)? as u32);
        if id != spec.id {
            return Err(snap_err(format!(
                "qstate id {id} does not match CSV row {}",
                spec.id
            )));
        }
        queue.push(Queued {
            spec,
            racks: parse_racks(field(&mut parts, "racks")?)?,
            priority: parse_u64(field(&mut parts, "priority")?)? as u32,
            planned_start: SimTime(parse_f64(field(&mut parts, "start")?)?),
            planned_finish: SimTime(parse_f64(field(&mut parts, "finish")?)?),
            predicted_latency: SimTime(parse_f64(field(&mut parts, "latency")?)?),
            attempts: parse_u64(field(&mut parts, "attempts")?)? as u32,
        });
    }

    let n_active = parse_u64(expect_line(&mut lines, "active")?[0])? as usize;
    let mut acsv = String::new();
    for _ in 0..n_active + 1 {
        let line = lines
            .next()
            .ok_or_else(|| snap_err("truncated snapshot in active CSV"))?;
        acsv.push_str(line);
        acsv.push('\n');
    }
    let aspecs = corral_workloads::trace::from_csv(&acsv)
        .map_err(|e| snap_err(format!("active CSV: {e}")))?;
    if aspecs.len() != n_active {
        return Err(snap_err(format!(
            "active wants {n_active} specs, got {}",
            aspecs.len()
        )));
    }
    let mut active = BTreeMap::new();
    for spec in aspecs {
        let line = lines
            .next()
            .ok_or_else(|| snap_err("truncated snapshot at astate"))?;
        let mut parts = line.split_whitespace();
        if field(&mut parts, "astate tag")? != "astate" {
            return Err(snap_err("expected astate line"));
        }
        let id = JobId(parse_u64(field(&mut parts, "id")?)? as u32);
        if id != spec.id {
            return Err(snap_err(format!(
                "astate id {id} does not match CSV row {}",
                spec.id
            )));
        }
        active.insert(
            id,
            Active {
                racks: parse_racks(field(&mut parts, "racks")?)?,
                priority: parse_u64(field(&mut parts, "priority")?)? as u32,
                dispatched_at: SimTime(parse_f64(field(&mut parts, "dispatched")?)?),
                planned_finish: SimTime(parse_f64(field(&mut parts, "finish")?)?),
                spec,
            },
        );
    }
    expect_line(&mut lines, "end")?;
    Ok(Scheduler::from_parts(
        cfg,
        now,
        dispatch_seq,
        stats,
        queue,
        active,
        dead,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ServeEvent;
    use corral_model::{Bandwidth, Bytes, ClusterConfig, JobSpec, MapReduceProfile};

    fn cfg() -> ServeConfig {
        ServeConfig {
            cluster: ClusterConfig::tiny_test(),
            tripwire: true,
            ..ServeConfig::default()
        }
    }

    fn spec(id: u32, arrival: f64, gb: f64) -> JobSpec {
        JobSpec::map_reduce(
            JobId(id),
            format!("j{id}"),
            MapReduceProfile {
                input: Bytes::gb(gb),
                shuffle: Bytes::gb(gb / 3.0),
                output: Bytes::gb(gb / 7.0),
                maps: 10,
                reduces: 5,
                map_rate: Bandwidth::mbytes_per_sec(47.0),
                reduce_rate: Bandwidth::mbytes_per_sec(53.0),
            },
        )
        .arriving_at(SimTime(arrival))
    }

    /// A stream with churn in it: the snapshot point sits between a
    /// failure and its repair, so the dead set round-trips too.
    fn events() -> Vec<ServeEvent> {
        let mut evs: Vec<ServeEvent> = (0..12u32)
            .map(|i| ServeEvent::Arrival(spec(i + 1, i as f64 * 3.7, 1.0 + (i % 4) as f64)))
            .collect();
        evs.insert(
            3,
            ServeEvent::MachineFailed {
                machine: MachineId(0),
                at: SimTime(9.0),
            },
        );
        evs.insert(
            8,
            ServeEvent::MachineRepaired {
                machine: MachineId(0),
                at: SimTime(22.0),
            },
        );
        evs
    }

    /// In-process round trip: snapshot mid-stream (with a machine down),
    /// restore, and the remaining decisions are identical to the
    /// uninterrupted run. (The fresh-*process* version lives in
    /// `tests/serve_snapshot.rs`.)
    #[test]
    fn roundtrip_resumes_byte_identically() {
        let events = events();

        // Uninterrupted run.
        let mut full = Vec::new();
        let mut a = crate::Scheduler::new(cfg());
        let full_stats = a.run(events.clone(), &mut full);

        // Interrupted at event 5 (one failure already consumed):
        // snapshot, restore, continue.
        let mut head = Vec::new();
        let mut b = crate::Scheduler::new(cfg());
        for ev in events.iter().take(5) {
            b.on_event(ev.clone(), &mut head);
        }
        assert_eq!(b.stats().machine_failures, 1, "snapshot carries a dead set");
        let snap = write(&b).unwrap();
        assert!(snap.contains("\ndead 1 0\n"), "dead machine 0 is recorded");
        drop(b);
        let mut c = read(&snap, cfg()).unwrap();
        let mut tail = Vec::new();
        let skip = c.stats().events as usize;
        assert_eq!(skip, 5);
        let resumed_stats = c.run(events.clone().into_iter().skip(skip), &mut tail);

        head.extend(tail);
        assert_eq!(head, full, "snapshot+restore must not change decisions");
        // Everything *about the decisions* matches. Cache/replan
        // counters may not: the restored planner and plan cache start
        // cold, so the tail re-plans problems the warm run had cached —
        // same plans (that is what the decision equality above proves),
        // different hit/miss split.
        let normalize = |mut s: ServeStats| {
            s.cache_hits = 0;
            s.cache_misses = 0;
            s.replans_incremental = 0;
            s.replans_full = 0;
            s
        };
        assert_eq!(normalize(resumed_stats), normalize(full_stats));

        // And the snapshot of two identical schedulers is identical text.
        let mut d = crate::Scheduler::new(cfg());
        let mut scratch = Vec::new();
        for ev in events.into_iter().take(5) {
            d.on_event(ev, &mut scratch);
        }
        assert_eq!(write(&d).unwrap(), snap);
    }

    #[test]
    fn config_mismatch_is_refused() {
        let s = crate::Scheduler::new(cfg());
        let snap = write(&s).unwrap();
        let other = ServeConfig {
            max_queue: 7,
            ..cfg()
        };
        let err = read(&snap, other).unwrap_err().to_string();
        assert!(err.contains("fingerprint"), "{err}");
        assert!(read("garbage", cfg()).is_err());
        assert!(read(&snap.replace("end", ""), cfg()).is_err());
    }

    #[test]
    fn truncation_and_corruption_are_refused_never_restored() {
        let mut s = crate::Scheduler::new(cfg());
        let mut out = Vec::new();
        for ev in events().into_iter().take(6) {
            s.on_event(ev, &mut out);
        }
        let snap = write(&s).unwrap();

        // Truncation at every prefix: refused (an empty prefix, a cut
        // mid-body, a cut inside the trailer — all must error, none may
        // restore a partial scheduler).
        for cut in [0, 1, snap.len() / 4, snap.len() / 2, snap.len() - 2] {
            let err = read(&snap[..cut], cfg());
            assert!(err.is_err(), "prefix of {cut} bytes restored: {err:?}");
        }

        // Single-byte corruption in the body: checksum catches it.
        let mid = snap.len() / 2;
        let flipped = format!(
            "{}{}{}",
            &snap[..mid],
            if snap.as_bytes()[mid] == b'0' {
                "1"
            } else {
                "0"
            },
            &snap[mid + 1..]
        );
        let err = read(&flipped, cfg()).unwrap_err().to_string();
        assert!(
            err.contains("checksum") || err.contains("mismatch"),
            "corruption must surface as a checksum error: {err}"
        );
    }

    #[test]
    fn v1_snapshots_are_refused_with_a_clear_error() {
        let v1 = "corral-serve-snapshot v1\nconfig 1\n";
        let err = read(v1, cfg()).unwrap_err().to_string();
        assert!(err.contains("v1"), "{err}");
        assert!(err.contains("re-snapshot"), "{err}");
    }

    /// Snapshots persist the body checksum and the config fingerprint,
    /// and cache keys must stay stable across a restore, so the FNV bits
    /// behind every fingerprint are part of the format. Pinned values for
    /// fixed inputs; any change to the hash breaks existing snapshots.
    #[test]
    fn fnv_fingerprints_are_pinned() {
        assert_eq!(ServeConfig::default().fingerprint(), 0x7c0a_f45b_e2ee_bf68);
        assert_eq!(
            corral_core::profile_fingerprint(&spec(1, 0.0, 2.0).profile),
            0xd5f4_bece_e7a8_9a00
        );
        assert_eq!(
            checksum("corral-serve-snapshot v2\nnow 12.5\n"),
            (0xa5d7_2068_813e_e7db, 0xa204_cfaa_1c24_5b89)
        );
        let mut pins = BTreeMap::new();
        pins.insert(JobId(1), vec![RackId(0), RackId(2)]);
        let problem = [spec(1, -3.0, 2.0), spec(2, 0.0, 4.0)];
        assert_eq!(
            crate::cache::problem_key(42, 7, &problem, &pins),
            (0x02b4_e29c_f1f1_6f88, 0xd231_1f6e_54a8_4336)
        );
        let mut topo = crate::fault::Topology::new(&ClusterConfig::tiny_test());
        topo.fail_machine(MachineId::from_index(3));
        topo.fail_machine(MachineId::from_index(17));
        assert_eq!(topo.dead_fp(), 0xc7c2_bf3b_3309_83e6);
    }
}
