//! Layer ledger of a traced pass, built from the simulator's probe
//! aggregates.
//!
//! Probe totals are inclusive: `fabric.maxmin` runs inside
//! `fabric.recompute`, `planner.score` inside `planner.provision`, and
//! so on. The probe does not record self time, so the ledger learns the
//! nesting from the probe's ring of recent span records (each carries
//! its start, duration and stack depth): for every kind it measures
//! which share of the sampled time ran directly under each parent kind,
//! or at top level. A kind's self time is its total minus the totals of
//! its children weighted by those shares, and the unattributed remainder
//! is the pass wall minus the top-level share of every kind. The self
//! times and the remainder therefore add up to the pass wall.
//!
//! The pass harvests the probe after every call (`report` then `reset`),
//! so the ring holds one call's spans at a time and the nesting sample
//! covers the whole pass rather than its last few thousand spans.

use std::collections::BTreeMap;

use corral_trace::probe::{self, ProbeReport, SpanRecord};

/// Key for "no parent": the span ran at top level.
const TOP: &str = "";

#[derive(Default)]
pub struct Ledger {
    /// Per span label: (spans closed, inclusive seconds).
    spans: BTreeMap<&'static str, (u64, f64)>,
    /// Per counter label: sum.
    counters: BTreeMap<&'static str, u64>,
    /// Per (child, parent) label pair: sampled seconds.
    nesting: BTreeMap<(&'static str, &'static str), f64>,
}

impl Ledger {
    /// Moves everything the probe recorded since the last call into the
    /// ledger and clears the probe.
    pub fn harvest(&mut self) {
        let r = probe::report();
        probe::reset();
        self.absorb(&r);
    }

    /// Adds another ledger's data to this one.
    pub fn merge(&mut self, other: Ledger) {
        for (k, (c, t)) in other.spans {
            let e = self.spans.entry(k).or_default();
            e.0 += c;
            e.1 += t;
        }
        for (k, v) in other.counters {
            *self.counters.entry(k).or_default() += v;
        }
        for (k, v) in other.nesting {
            *self.nesting.entry(k).or_default() += v;
        }
    }

    fn absorb(&mut self, r: &ProbeReport) {
        for s in &r.spans {
            let e = self.spans.entry(s.label).or_default();
            e.0 += s.count;
            e.1 += s.total_s;
        }
        for &(label, v) in &r.counters {
            *self.counters.entry(label).or_default() += v;
        }
        self.absorb_nesting(&r.recent);
    }

    /// Attributes each sampled record to its direct parent: the nearest
    /// enclosing record one level up.
    fn absorb_nesting(&mut self, recent: &[SpanRecord]) {
        let mut recs: Vec<&SpanRecord> = recent.iter().collect();
        recs.sort_by_key(|r| (r.start_ns, std::cmp::Reverse(r.dur_ns), r.depth));
        let mut open: Vec<&SpanRecord> = Vec::new();
        for r in recs {
            while open.last().is_some_and(|p| {
                p.depth >= r.depth || p.start_ns + p.dur_ns < r.start_ns + r.dur_ns
            }) {
                open.pop();
            }
            let parent = match open.last() {
                Some(p) if r.depth > 0 && p.depth + 1 == r.depth => p.kind.label(),
                _ => TOP,
            };
            *self.nesting.entry((r.kind.label(), parent)).or_default() += r.dur_ns as f64 / 1e9;
            open.push(r);
        }
    }

    pub fn span_total(&self, label: &str) -> f64 {
        self.spans.get(label).map_or(0.0, |e| e.1)
    }

    pub fn span_count(&self, label: &str) -> u64 {
        self.spans.get(label).map_or(0, |e| e.0)
    }

    pub fn counter(&self, label: &str) -> u64 {
        self.counters.get(label).copied().unwrap_or(0)
    }

    /// Share of `child`'s sampled time that ran directly under `parent`
    /// (`TOP` for top level). A kind with no sampled record counts as
    /// top level.
    fn share(&self, child: &str, parent: &str) -> f64 {
        let total: f64 = self
            .nesting
            .iter()
            .filter(|((c, _), _)| *c == child)
            .map(|(_, v)| v)
            .sum();
        if total == 0.0 {
            return if parent == TOP { 1.0 } else { 0.0 };
        }
        self.nesting.get(&(child, parent)).copied().unwrap_or(0.0) / total
    }

    /// Inclusive time of every span of `label` that ran at top level.
    pub fn top_level(&self, label: &str) -> f64 {
        self.span_total(label) * self.share(label, TOP)
    }

    /// Span labels recorded with no sampled record (their nesting is
    /// assumed, not measured).
    pub fn unsampled(&self) -> Vec<&'static str> {
        self.spans
            .keys()
            .copied()
            .filter(|l| !self.nesting.keys().any(|(c, _)| c == l))
            .collect()
    }

    /// Self time per span label: inclusive time minus the time its
    /// children spent directly under it.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        self.spans
            .iter()
            .map(|(&label, &(_, total))| {
                let children: f64 = self
                    .spans
                    .keys()
                    .map(|&c| self.span_total(c) * self.share(c, label))
                    .sum();
                (label, total - children)
            })
            .collect()
    }

    /// Pass wall minus the top-level time of every span kind.
    pub fn unattributed(&self, wall: f64) -> f64 {
        wall - self.spans.keys().map(|l| self.top_level(l)).sum::<f64>()
    }
}

/// The repository module a probe span belongs to, from its label.
pub fn layer_of(label: &str) -> &'static str {
    match label.split('.').next().unwrap_or("") {
        "fabric" => "simnet",
        "planner" => "core",
        "engine" => "cluster",
        "serve" => "serve",
        "sweep" => "sweep",
        "export" => "trace",
        _ => "other",
    }
}
