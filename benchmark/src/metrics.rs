//! The benchmark's metric names, and the record one run of one workload
//! produces.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units and
//! directions (a test keeps the two in step); this table adds which
//! per-layer metrics are *exact* — counts and simulated statistics that
//! must repeat bit-for-bit across passes, runs and commits.

use crate::json::Json;
use crate::span::Span;
use crate::stats::median;
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Must be identical between any two runs of the same seed.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    timing(name, unit, Better::Lower)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    timing(name, unit, Better::Higher)
}

/// An exact count; its direction only says which way is less work.
const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: true,
    }
}

/// What a user of either system sees. Reported by every workload, measured
/// with spans off.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("wall_s", "s"),
    higher("cells_per_s", "cells/s"),
    lower("peak_rss_mb", "MiB"),
];

/// Single-layer metrics from the traced run. A metric whose layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // -- pipeline workloads -------------------------------------------------
    lower("genome.generate_s", "s"),
    lower("genome.fasta_parse_s", "s"),
    higher("genome.fasta_mb_per_s", "MB/s"),
    exact("genome.reads", "count", Better::Higher),
    exact("genome.bases", "count", Better::Higher),
    lower("kmer.count_s", "s"),
    higher("kmer.count_mkmers_per_s", "Mkmers/s"),
    exact("kmer.distinct", "count", Better::Lower),
    lower("kmer.filter_s", "s"),
    exact("kmer.retained", "count", Better::Lower),
    exact("kmer.retained_ratio", "ratio", Better::Lower),
    lower("kmer.index_s", "s"),
    higher("kmer.index_postings_per_s", "1/s"),
    exact("kmer.postings", "count", Better::Lower),
    lower("overlap.candidates_s", "s"),
    higher("overlap.candidates_per_s", "1/s"),
    exact("overlap.tasks", "count", Better::Lower),
    lower("overlap.truth_s", "s"),
    lower("align.batch_s", "s"),
    higher("align.batch_cells_per_s", "cells/s"),
    exact("align.cells", "count", Better::Lower),
    exact("align.accept_ratio", "ratio", Better::Higher),
    higher("align.kernel_scalar_cells_per_s", "cells/s"),
    higher("align.kernel_packed_cells_per_s", "cells/s"),
    higher("align.kernel_batched_cells_per_s", "cells/s"),
    higher("align.batched_lane_fill", "ratio"),
    higher("align.raw_sweep_cells_per_s", "cells/s"),
    higher("align.dispatch_efficiency", "ratio"),
    lower("core.pipeline_s", "s"),
    lower("core.pipeline_unattributed_s", "s"),
    lower("genome.share", "ratio"),
    lower("kmer.share", "ratio"),
    lower("overlap.share", "ratio"),
    lower("align.share", "ratio"),
    // -- simulator workloads ------------------------------------------------
    lower("overlap.synth_s", "s"),
    lower("core.prepare_s", "s"),
    higher("core.prepare_tasks_per_s", "1/s"),
    lower("core.sim_pass_s", "s"),
    lower("core.bsp_s", "s"),
    lower("core.async_s", "s"),
    lower("core.aggasync_s", "s"),
    exact("core.bsp_events", "count", Better::Lower),
    exact("core.async_events", "count", Better::Lower),
    exact("core.aggasync_events", "count", Better::Lower),
    exact("core.bsp_rounds", "count", Better::Lower),
    exact("core.bsp_virt_ns", "ns_virtual", Better::Lower),
    exact("core.async_virt_ns", "ns_virtual", Better::Lower),
    exact("core.aggasync_virt_ns", "ns_virtual", Better::Lower),
    exact("core.task_checksum_ok", "count", Better::Higher),
    higher("core.events_per_s", "1/s"),
    lower("core.bsp_ns_per_task", "ns"),
    lower("core.async_ns_per_event", "ns"),
    lower("core.aggasync_ns_per_event", "ns"),
    lower("core.async_ns_per_event_small", "ns"),
    lower("sim.queue_ns_per_op", "ns"),
    lower("sim.queue_share", "ratio"),
    lower("sim.engine_ns_per_event", "ns"),
    lower("sim.engine_floor_share", "ratio"),
    lower("sim.net_ns_per_msg", "ns"),
    lower("sim.coll_ns_per_call", "ns"),
    lower("core.cost_model_ns_per_task", "ns"),
    lower("core.cost_model_share", "ratio"),
    lower("core.handler_residual_share", "ratio"),
    exact("core.retries", "count", Better::Lower),
    exact("core.takeovers", "count", Better::Lower),
    exact("core.restores", "count", Better::Lower),
    exact("core.recovered_tasks", "count", Better::Higher),
    exact("core.lost_tasks", "count", Better::Lower),
    exact("sim.msgs_dropped", "count", Better::Lower),
    exact("sim.msgs_duplicated", "count", Better::Lower),
    exact("sim.crashes", "count", Better::Lower),
    // -- chaos workload only ------------------------------------------------
    lower("core.chaos_slowdown", "ratio"),
    lower("sim.obs_overhead_ratio", "ratio"),
    exact("sim.obs_nodes", "count", Better::Lower),
    exact("sim.obs_dropped", "count", Better::Lower),
    lower("trace.summarize_s", "s"),
    lower("trace.export_s", "s"),
    higher("trace.export_mb_per_s", "MB/s"),
    lower("trace.cpath_s", "s"),
    lower("trace.text_roundtrip_s", "s"),
    higher("sim.par_2t_async_ratio", "ratio"),
    higher("sim.par_2t_aggasync_ratio", "ratio"),
    // -- the benchmark itself -----------------------------------------------
    lower("bench.trace_overhead_ratio", "ratio"),
    higher("bench.samples", "passes"),
    lower("bench.wall_spread", "ratio"),
];

/// The definition of `name`, from either table.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Output checks made; every timed pass is at least one.
    pub attempted: u64,
    /// Checks that failed, each described in `failures`.
    pub failed: u64,
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// The samples a value is the median of, where there are several.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Exact outputs compared against `expected.json` (rendered as text so
    /// 64-bit checksums survive JSON).
    pub facts: Vec<(&'static str, String)>,
    /// Measurements skipped, with the reason.
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

impl Report {
    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
        ok
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(lookup(name).is_some(), "undeclared metric {name}");
        self.values.insert(name, value);
    }

    /// Sets `name` to the median of `samples` and keeps the list.
    pub fn set_median(&mut self, name: &'static str, samples: Vec<f64>) {
        self.set(name, median(&samples));
        self.samples.insert(name, samples);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn fact(&mut self, name: &'static str, value: impl ToString) {
        self.facts.push((name, value.to_string()));
    }

    /// Compares the facts with the pinned ones for this workload; one check.
    pub fn check_pinned(&mut self, pinned: &Json) {
        let mismatches: Vec<String> = self
            .facts
            .iter()
            .filter_map(|(k, got)| match pinned.get(k).and_then(Json::as_str) {
                Some(want) if want == got => None,
                Some(want) => Some(format!("{k}: got {got}, pinned {want}")),
                None => Some(format!("{k}: got {got}, nothing pinned")),
            })
            .collect();
        self.check(mismatches.is_empty(), || {
            format!("differs from expected.json: {}", mismatches.join("; "))
        });
    }

    /// The `metrics` object of the result line: every metric of `defs`, in
    /// table order. A per-layer metric this workload never set reads 0.
    pub fn metrics_json(&self, defs: &[MetricDef], with_samples: bool) -> Json {
        Json::obj(defs.iter().map(|d| {
            let mut entry = vec![
                ("value".to_string(), Json::Num(self.get(d.name))),
                ("unit".to_string(), Json::Str(d.unit.to_string())),
            ];
            if let (true, Some(s)) = (with_samples, self.samples.get(d.name)) {
                entry.push(("samples".to_string(), Json::nums(s)));
            }
            (d.name, Json::Obj(entry))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            let ok = |s: &str, extra: &str| {
                !s.is_empty()
                    && s.chars().all(|c| {
                        c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c)
                    })
            };
            assert!(ok(d.name, "") && d.name.len() <= 64, "bad name {}", d.name);
            assert!(
                ok(d.unit, "/%") && d.unit.len() <= 16,
                "bad unit {}",
                d.unit
            );
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut r = Report::default();
        assert!(r.check(true, || unreachable!()));
        assert!(!r.check(false, || "broke".into()));
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert_eq!(r.failures, vec!["broke".to_string()]);
    }

    #[test]
    fn pinned_facts_compare_as_text() {
        let pinned = Json::obj([
            ("reads", Json::Str("269".into())),
            ("sum", Json::Str("0xff".into())),
        ]);
        let mut r = Report::default();
        r.fact("reads", 269);
        r.fact("sum", "0xff");
        r.check_pinned(&pinned);
        assert_eq!((r.attempted, r.failed), (1, 0));
        r.fact("tasks", 5);
        r.check_pinned(&pinned);
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert!(r.failures[0].contains("tasks: got 5, nothing pinned"));
    }

    #[test]
    fn unset_metrics_read_zero_and_samples_ride_along() {
        let mut r = Report::default();
        r.set_median("wall_s", vec![3.0, 1.0, 2.0]);
        let j = r.metrics_json(END_TO_END, true);
        assert_eq!(
            j.get("wall_s").unwrap().get("value").unwrap().as_f64(),
            Some(2.0)
        );
        assert_eq!(
            j.get("wall_s")
                .unwrap()
                .get("samples")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            3
        );
        assert_eq!(
            j.get("setup_s").unwrap().get("value").unwrap().as_f64(),
            Some(0.0)
        );
        assert!(r
            .metrics_json(END_TO_END, false)
            .get("wall_s")
            .unwrap()
            .get("samples")
            .is_none());
    }
}
