//! Chrome-trace-event / Perfetto JSON export of an [`Obs`] recording.
//!
//! The output loads in `chrome://tracing` and [ui.perfetto.dev]: one
//! process ("gnb-sim"), one thread per rank, dispatch nodes as complete
//! ("X") slices with their busy spans nested inside, causal edges as flow
//! arrows ("s"/"f") — message send→deliver and barrier fan-in→release —
//! recovery markers as instants ("i"), and every metric series as counter
//! ("C") events.
//!
//! [ui.perfetto.dev]: https://ui.perfetto.dev
//!
//! # Determinism
//!
//! The JSON is hand-rolled (the vendored `serde_json` is a stub, and a
//! tree-walking serializer could reorder keys): fields are emitted in a
//! fixed order, timestamps are integer-derived decimal strings, and no
//! wall-clock or float formatting is involved — the export of a seeded
//! run is byte-identical across runs and machines, which the golden
//! snapshot test pins.
//!
//! # Truncated traces
//!
//! A truncated recording (any collector overflowed) still exports — the
//! spans that were kept are real — but the file says so three ways:
//! `otherData.truncated` is `"true"`, the drop counters are listed there,
//! and a global `TRACE TRUNCATED` instant lands at t=0 so a human looking
//! at the timeline cannot miss it.

use crate::engine::CATEGORIES;
use crate::obs::{EdgeKind, Obs, GLOBAL_RANK, NO_NODE};
use std::fmt::Write as _;

/// Ledger category display names, indexed by `TimeCategory as usize`.
pub const CATEGORY_NAMES: [&str; CATEGORIES] = ["compute", "overhead", "comm", "sync", "recovery"];

/// Formats a virtual-time nanosecond count as Chrome-trace microseconds
/// (a decimal with exactly three fractional digits — integer math only).
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// One JSON event line. `extra` is the tail after the common fields —
/// already-serialized JSON members, e.g. `"dur":"1.000","args":{}`.
fn push_event(out: &mut String, name: &str, ph: &str, tid: u32, ns: u64, extra: &str) {
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\"ts\":{ts}",
        name = name,
        ph = ph,
        tid = tid,
        ts = ts_us(ns)
    );
    if !extra.is_empty() {
        out.push(',');
        out.push_str(extra);
    }
    out.push('}');
}

/// Serializes `obs` to Chrome-trace-event JSON (see module docs).
pub fn chrome_trace_json(obs: &Obs) -> String {
    let mut events: Vec<String> = Vec::new();

    // Metadata: process and per-rank thread names.
    {
        let mut e = String::new();
        push_event(
            &mut e,
            "process_name",
            "M",
            0,
            0,
            "\"args\":{\"name\":\"gnb-sim\"}",
        );
        events.push(e);
    }
    for r in 0..obs.nranks {
        let mut e = String::new();
        push_event(
            &mut e,
            "thread_name",
            "M",
            r as u32,
            0,
            &format!("\"args\":{{\"name\":\"rank {r}\"}}"),
        );
        events.push(e);
    }

    if obs.is_truncated() {
        let mut e = String::new();
        push_event(&mut e, "TRACE TRUNCATED", "i", 0, 0, "\"s\":\"g\"");
        events.push(e);
    }

    // Dispatch nodes: one slice per handler, flow arrows for wire and
    // barrier edges (request/reply pairs come out as two arrows).
    for n in &obs.nodes {
        let dur = n.end.as_ns() - n.start.as_ns();
        let cause = if n.cause == NO_NODE {
            "null".to_string()
        } else {
            n.cause.to_string()
        };
        let mut e = String::new();
        push_event(
            &mut e,
            n.kind.name(),
            "X",
            n.rank,
            n.start.as_ns(),
            &format!(
                "\"dur\":{},\"cat\":\"dispatch\",\"args\":{{\"node\":{},\"cause\":{},\"push_ns\":{},\"sched_ns\":{}}}",
                ts_us(dur),
                n.id,
                cause,
                n.push_time.as_ns(),
                n.sched_time.as_ns()
            ),
        );
        events.push(e);
        // NO_NODE indexes no node, so a root has no cause here.
        let cause = obs
            .nodes
            .get(n.cause as usize)
            .filter(|_| matches!(n.kind, EdgeKind::Message | EdgeKind::Barrier));
        if let Some(cause) = cause {
            let cause_rank = cause.rank;
            let mut s = String::new();
            push_event(
                &mut s,
                n.kind.name(),
                "s",
                cause_rank,
                n.push_time.as_ns(),
                &format!("\"cat\":\"flow\",\"id\":{}", n.id),
            );
            events.push(s);
            let mut f = String::new();
            push_event(
                &mut f,
                n.kind.name(),
                "f",
                n.rank,
                n.start.as_ns(),
                &format!("\"cat\":\"flow\",\"id\":{},\"bp\":\"e\"", n.id),
            );
            events.push(f);
        }
    }

    // Busy spans nest inside their node's slice on the same thread.
    for s in &obs.spans {
        let name = CATEGORY_NAMES
            .get(s.category as usize)
            .copied()
            .unwrap_or("unknown");
        let dur = s.end.as_ns() - s.start.as_ns();
        let node = if s.node == NO_NODE {
            "null".to_string()
        } else {
            s.node.to_string()
        };
        let mut e = String::new();
        push_event(
            &mut e,
            name,
            "X",
            s.rank,
            s.start.as_ns(),
            &format!(
                "\"dur\":{},\"cat\":\"busy\",\"args\":{{\"node\":{node}}}",
                ts_us(dur)
            ),
        );
        events.push(e);
    }

    for i in &obs.instants {
        let mut e = String::new();
        push_event(
            &mut e,
            i.kind.name(),
            "i",
            i.rank,
            i.time.as_ns(),
            &format!("\"s\":\"t\",\"args\":{{\"key\":{}}}", i.key),
        );
        events.push(e);
    }

    for s in &obs.stalls {
        let dur = s.thaw.as_ns() - s.at.as_ns();
        let mut e = String::new();
        push_event(
            &mut e,
            "stall",
            "X",
            s.rank,
            s.at.as_ns(),
            &format!("\"dur\":{},\"cat\":\"stall\"", ts_us(dur)),
        );
        events.push(e);
    }

    // Metric series as counter tracks.
    for series in &obs.series {
        let name = if series.rank == GLOBAL_RANK {
            series.metric.name().to_string()
        } else {
            format!("{}_rank{}", series.metric.name(), series.rank)
        };
        for &(t, v) in &series.samples {
            let mut e = String::new();
            push_event(
                &mut e,
                &name,
                "C",
                0,
                t.as_ns(),
                &format!("\"args\":{{\"value\":{v}}}"),
            );
            events.push(e);
        }
    }

    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ns\",\n\"otherData\":{");
    let _ = write!(
        out,
        "\"producer\":\"gnb-sim\",\"format\":\"gnbtrace v1\",\"nranks\":\"{}\",\"end_ns\":\"{}\",\"truncated\":\"{}\",\"dropped_nodes\":\"{}\",\"dropped_spans\":\"{}\",\"dropped_instants\":\"{}\",\"dropped_samples\":\"{}\",\"unresolved_edges\":\"{}\"",
        obs.nranks,
        obs.end_time.as_ns(),
        obs.is_truncated(),
        obs.dropped_nodes,
        obs.dropped_spans,
        obs.dropped_instants,
        obs.dropped_samples(),
        obs.unresolved_edges
    );
    out.push_str("},\n\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str(e);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{InstantKind, MetricId, ObsConfig};
    use crate::time::SimTime;
    use crate::TimeCategory;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    fn tiny_obs(truncate: bool) -> Obs {
        let cfg = if truncate {
            ObsConfig {
                max_nodes: 1,
                ..ObsConfig::default()
            }
        } else {
            ObsConfig::default()
        };
        let mut o = Obs::new(cfg, 2);
        o.on_push(0, EdgeKind::Start, t(0), t(0));
        o.begin_dispatch(0, t(0), 0, 1);
        o.on_advance(0, t(0), t(100), TimeCategory::Compute);
        o.on_push(1, EdgeKind::Message, t(100), t(300));
        o.counter_add(MetricId::BytesSent, GLOBAL_RANK, t(100), 64);
        o.end_dispatch(t(100));
        o.begin_dispatch(1, t(300), 1, 0);
        o.instant(1, t(300), InstantKind::Retry, 42);
        o.end_dispatch(t(310));
        o.finish(t(310));
        o
    }

    #[test]
    fn exports_slices_flows_and_counters() {
        let json = chrome_trace_json(&tiny_obs(false));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"rank 1\""));
        // The message node and its two flow halves.
        assert!(json.contains("\"ph\":\"s\""), "flow start: {json}");
        assert!(json.contains("\"ph\":\"f\""), "flow finish");
        assert!(json.contains("\"name\":\"compute\""));
        assert!(json.contains("\"name\":\"bytes_sent\""));
        assert!(json.contains("\"name\":\"retry\""));
        assert!(json.contains("\"truncated\":\"false\""));
        assert!(!json.contains("TRACE TRUNCATED"));
        // Microsecond timestamps from integer ns: 300 ns = 0.300 us.
        assert!(json.contains("\"ts\":0.300"));
    }

    #[test]
    fn export_is_deterministic() {
        let a = chrome_trace_json(&tiny_obs(false));
        let b = chrome_trace_json(&tiny_obs(false));
        assert_eq!(a, b);
    }

    #[test]
    fn truncated_trace_is_marked() {
        let o = tiny_obs(true);
        assert!(o.is_truncated());
        let json = chrome_trace_json(&o);
        assert!(json.contains("\"truncated\":\"true\""));
        assert!(json.contains("\"dropped_nodes\":\"1\""));
        assert!(json.contains("TRACE TRUNCATED"));
    }

    #[test]
    fn ts_formatting_is_exact() {
        assert_eq!(ts_us(0), "0.000");
        assert_eq!(ts_us(1), "0.001");
        assert_eq!(ts_us(999), "0.999");
        assert_eq!(ts_us(1000), "1.000");
        assert_eq!(ts_us(5_826_180_889), "5826180.889");
    }
}
