//! Golden outputs, one line per (workload, instance) in `golden.txt`:
//! `<workload> <instance> <key>=<value> ...`, values as decimal `u64`
//! (floating-point outputs as their IEEE-754 bits).
//!
//! The table holds the program's outputs: the completion-time or
//! decision-stream digest, the paper metrics and the counts of
//! `RunReport`/`RunSummary` and `ServeStats`. Cost counters
//! (candidates scored, recomputes, max-min rounds, events) are left out
//! on purpose, since an optimisation may lower them without changing
//! any output; the benchmark asserts them equal across the passes of a
//! run instead.

use std::collections::BTreeMap;

use crate::work::{Outcome, Workload};

const TABLE: &str = include_str!("../golden.txt");

pub type Values = BTreeMap<String, u64>;

/// The golden values of one instance, or `None` when the table has no
/// line for it.
pub fn lookup(w: Workload, instance: u64) -> Option<Values> {
    TABLE.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        if f.next()? != w.name() || f.next()?.parse::<u64>().ok()? != instance {
            return None;
        }
        f.map(|kv| {
            let (k, v) = kv.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
    })
}

/// The values of an outcome that the table pins.
pub fn observed(o: &Outcome) -> Values {
    let mut v: Values = o
        .counts
        .iter()
        .filter(|(k, _)| *k != "candidates")
        .map(|&(k, n)| (k.to_string(), n))
        .collect();
    v.insert("digest".into(), o.digest);
    v.insert("makespan_bits".into(), o.makespan_s.to_bits());
    v.insert("avg_jct_bits".into(), o.avg_jct_s.to_bits());
    v.insert("cross_rack_bits".into(), o.cross_rack_gb.to_bits());
    v
}

/// Every difference between the observed and the golden values.
pub fn diff(observed: &Values, golden: &Values) -> Vec<String> {
    let mut keys: Vec<&String> = observed.keys().chain(golden.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .filter_map(|k| match (observed.get(k), golden.get(k)) {
            (Some(a), Some(b)) if a == b => None,
            (a, b) => Some(format!("{k}: observed {a:?}, golden {b:?}")),
        })
        .collect()
}

/// The table line for an observed outcome.
pub fn line(w: Workload, instance: u64, observed: &Values) -> String {
    let kv: Vec<String> = observed.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{} {instance} {}", w.name(), kv.join(" "))
}
