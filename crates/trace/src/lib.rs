//! Analysis of `gnb-sim` observability recordings (`.gnbtrace` files).
//!
//! The library half of the `gnb-trace` binary: each subcommand is a pure
//! `Obs -> String` function so tests can pin outputs byte-for-byte
//! without spawning processes.
//!
//! * [`summarize`] — record counts, truncation status (dropped spans are
//!   *surfaced*, never silently absorbed), per-category busy totals,
//!   per-kind node/instant tallies, final metric values;
//! * [`export`] — Chrome-trace-event / Perfetto JSON
//!   (re-exported engine: [`gnb_sim::export::chrome_trace_json`]);
//! * [`critical_path_report`] — the virtual-time critical path attributed
//!   by category ([`gnb_sim::cpath`]);
//! * [`diff`] — first-divergence comparison of two recordings;
//! * [`timeline`] — ASCII Gantt chart, one row per rank: the quickest way
//!   to *see* a BSP barrier wall versus the async code's interleaving.
//!
//! Everything is deterministic: same recording in, same bytes out.

#![warn(missing_docs)]

use gnb_sim::cpath::critical_path;
use gnb_sim::engine::CATEGORIES;
use gnb_sim::export::{chrome_trace_json, CATEGORY_NAMES};
use gnb_sim::obs::{EdgeKind, InstantKind, MetricId, Obs, GLOBAL_RANK};
use gnb_sim::{SimTime, TimeCategory};
use std::fmt::Write as _;

/// Parses a `.gnbtrace` file's text.
pub fn parse(text: &str) -> Result<Obs, String> {
    Obs::from_text(text)
}

/// Renders the human summary of a recording.
pub fn summarize(obs: &Obs) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "gnbtrace: {} ranks, end {} ns",
        obs.nranks,
        obs.end_time.as_ns()
    );
    let _ = writeln!(
        out,
        "records: {} nodes, {} spans, {} instants, {} stalls, {} series",
        obs.nodes.len(),
        obs.spans.len(),
        obs.instants.len(),
        obs.stalls.len(),
        obs.series.len()
    );
    if obs.is_truncated() {
        let _ = writeln!(
            out,
            "TRUNCATED: dropped {} nodes, {} spans, {} instants, {} samples; {} unresolved edges",
            obs.dropped_nodes,
            obs.dropped_spans,
            obs.dropped_instants,
            obs.dropped_samples(),
            obs.unresolved_edges
        );
    } else {
        let _ = writeln!(out, "complete: no records dropped");
    }
    let _ = writeln!(out, "dispatches by kind:");
    for kind in [
        EdgeKind::Start,
        EdgeKind::Message,
        EdgeKind::Timer,
        EdgeKind::Barrier,
    ] {
        let n = obs.nodes.iter().filter(|n| n.kind == kind).count();
        if n > 0 {
            let _ = writeln!(out, "  {:<10} {:>10}", kind.name(), n);
        }
    }
    let _ = writeln!(out, "busy time by category (all ranks):");
    let totals = obs.busy_totals_ns();
    for c in 0..CATEGORIES {
        if totals[c] > 0 {
            let _ = writeln!(out, "  {:<10} {:>16} ns", CATEGORY_NAMES[c], totals[c]);
        }
    }
    if !obs.instants.is_empty() {
        let _ = writeln!(out, "instants by kind:");
        for kind in [
            InstantKind::MsgDropped,
            InstantKind::MsgDuplicated,
            InstantKind::Retry,
            InstantKind::DupReply,
            InstantKind::GiveUp,
            InstantKind::Crash,
            InstantKind::Takeover,
            InstantKind::Restore,
        ] {
            let n = obs.instants.iter().filter(|i| i.kind == kind).count();
            if n > 0 {
                let _ = writeln!(out, "  {:<10} {:>10}", kind.name(), n);
            }
        }
        // Crash-recovery narrative, per rank. Emitted only when a crash
        // schedule actually fired, so crash-free recordings summarize
        // byte-identically to pre-crash builds.
        let crash_kinds = [
            InstantKind::Crash,
            InstantKind::Takeover,
            InstantKind::Restore,
        ];
        if obs.instants.iter().any(|i| crash_kinds.contains(&i.kind)) {
            let _ = writeln!(out, "crash recovery by rank:");
            for rank in 0..obs.nranks {
                let count = |kind: InstantKind| {
                    obs.instants
                        .iter()
                        .filter(|i| i.kind == kind && i.rank == rank as u32)
                        .count()
                };
                let (c, t, r) = (
                    count(InstantKind::Crash),
                    count(InstantKind::Takeover),
                    count(InstantKind::Restore),
                );
                if c + t + r > 0 {
                    let _ = writeln!(
                        out,
                        "  r{rank:<4} {c:>6} crashes {t:>6} takeovers {r:>6} restores"
                    );
                }
            }
        }
    }
    if !obs.series.is_empty() {
        let _ = writeln!(out, "metrics (final values):");
        for s in &obs.series {
            let rank = if s.rank == GLOBAL_RANK {
                "all".to_string()
            } else {
                format!("r{}", s.rank)
            };
            let _ = writeln!(
                out,
                "  {:<16} {:<5} {:>16}  ({} samples{})",
                s.metric.name(),
                rank,
                s.last_value(),
                s.samples.len(),
                if s.dropped > 0 {
                    format!(", {} dropped", s.dropped)
                } else {
                    String::new()
                }
            );
        }
    }
    out
}

/// Exports a recording as Chrome-trace-event / Perfetto JSON.
pub fn export(obs: &Obs) -> String {
    chrome_trace_json(obs)
}

/// Renders the critical-path attribution table (or the refusal message
/// for a truncated recording as `Err`).
pub fn critical_path_report(obs: &Obs) -> Result<String, String> {
    critical_path(obs).map(|cp| cp.render())
}

/// Compares two recordings; reports the first diverging record line of
/// their canonical text forms, or declares them identical.
pub fn diff(a: &Obs, b: &Obs) -> String {
    let ta = a.to_text();
    let tb = b.to_text();
    if ta == tb {
        return "traces are identical\n".to_string();
    }
    let mut out = String::new();
    for (i, (la, lb)) in ta.lines().zip(tb.lines()).enumerate() {
        if la != lb {
            let _ = writeln!(out, "first divergence at record line {}:", i + 1);
            let _ = writeln!(out, "  a: {la}");
            let _ = writeln!(out, "  b: {lb}");
            return out;
        }
    }
    let (na, nb) = (ta.lines().count(), tb.lines().count());
    let _ = writeln!(
        out,
        "traces agree on the first {} lines; lengths differ ({} vs {})",
        na.min(nb),
        na,
        nb
    );
    out
}

/// Timeline glyphs per [`TimeCategory`] index: Compute, Overhead, Comm,
/// Sync, Recovery.
const GLYPHS: [char; CATEGORIES] = ['#', 'o', '~', '.', '!'];

/// Renders an ASCII timeline: one row per rank, `width` columns spanning
/// `[0, end_time]`. Busy spans paint their category glyph, stall freezes
/// paint the recovery glyph, idle stays blank; where intervals share a
/// cell the later-starting one wins.
pub fn timeline(obs: &Obs, width: usize) -> String {
    assert!(width >= 1);
    let end_ns = u128::from(obs.end_time.as_ns().max(1));
    let col = |t: SimTime| u128::from(t.as_ns()) * width as u128;
    let mut intervals: Vec<(u32, SimTime, SimTime, u8)> = obs
        .spans
        .iter()
        .map(|s| (s.rank, s.start, s.end, s.category))
        .chain(
            obs.stalls
                .iter()
                .map(|s| (s.rank, s.at, s.thaw, TimeCategory::Recovery as u8)),
        )
        .collect();
    // Stable, so same-start intervals keep recording order.
    intervals.sort_by_key(|&(_, start, ..)| start);
    let mut rows = vec![vec![' '; width]; obs.nranks];
    for (rank, start, end, category) in intervals {
        // A parsed recording may name ranks its header does not declare.
        let Some(row) = rows.get_mut(rank as usize) else {
            continue;
        };
        let a = (col(start) / end_ns).min(width as u128) as usize;
        let b = col(end).div_ceil(end_ns).min(width as u128) as usize;
        let glyph = GLYPHS.get(category as usize).copied().unwrap_or('?');
        for cell in row.iter_mut().take(b).skip(a) {
            *cell = glyph;
        }
    }
    let mut out = String::new();
    for (rank, row) in rows.into_iter().enumerate() {
        let _ = write!(out, "r{rank:<3}|");
        out.extend(row);
        out.push_str("|\n");
    }
    out.push_str("     '#' compute  'o' overhead  '~' comm  '.' sync  '!' recovery\n");
    if obs.dropped_spans > 0 {
        let _ = writeln!(
            out,
            "WARNING: {} spans dropped (trace truncated); the blank regions above may have been busy",
            obs.dropped_spans
        );
    }
    out
}

/// A metric's sample series rendered as TSV (`time_ns<TAB>value`) —
/// feedstock for plotting a paper-style timeline.
pub fn series_tsv(obs: &Obs, metric: MetricId, rank: u32) -> Option<String> {
    let s = obs.get_series(metric, rank)?;
    let mut out = String::from("time_ns\tvalue\n");
    for (t, v) in &s.samples {
        let _ = writeln!(out, "{}\t{}", t.as_ns(), v);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnb_sim::obs::ObsConfig;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    fn sample_obs(cfg: ObsConfig) -> Obs {
        let mut o = Obs::new(cfg, 2);
        o.on_push(0, EdgeKind::Start, t(0), t(0));
        o.on_push(1, EdgeKind::Start, t(0), t(0));
        o.begin_dispatch(0, t(0), 0, 1);
        o.on_advance(0, t(0), t(120), TimeCategory::Compute);
        o.on_push(2, EdgeKind::Message, t(120), t(400));
        o.counter_add(MetricId::BytesSent, GLOBAL_RANK, t(120), 512);
        o.end_dispatch(t(120));
        o.begin_dispatch(1, t(0), 1, 1);
        o.end_dispatch(t(0));
        o.begin_dispatch(1, t(400), 2, 0);
        o.on_advance(1, t(400), t(450), TimeCategory::Overhead);
        o.instant(1, t(400), InstantKind::Retry, 9);
        o.end_dispatch(t(450));
        o.finish(t(450));
        o
    }

    #[test]
    fn summarize_complete_trace() {
        let s = summarize(&sample_obs(ObsConfig::default()));
        assert!(s.contains("2 ranks, end 450 ns"), "{s}");
        assert!(s.contains("complete: no records dropped"));
        assert!(s.contains("compute"));
        assert!(s.contains("bytes_sent"));
        assert!(s.contains("retry"));
        assert!(!s.contains("TRUNCATED"));
    }

    #[test]
    fn summarize_surfaces_dropped_spans() {
        let cfg = ObsConfig {
            max_spans: 1,
            ..ObsConfig::default()
        };
        let o = sample_obs(cfg);
        assert!(o.is_truncated());
        let s = summarize(&o);
        assert!(s.contains("TRUNCATED"), "{s}");
        assert!(s.contains("1 spans"), "dropped-span count surfaced: {s}");
    }

    #[test]
    fn critical_path_report_on_complete_trace() {
        let r = critical_path_report(&sample_obs(ObsConfig::default())).expect("complete");
        assert!(r.contains("wire"), "{r}");
        assert!(r.contains("450 ns  total"), "{r}");
    }

    #[test]
    fn critical_path_refuses_truncated() {
        let cfg = ObsConfig {
            max_spans: 1,
            ..ObsConfig::default()
        };
        let err = critical_path_report(&sample_obs(cfg)).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn diff_identical_and_divergent() {
        let a = sample_obs(ObsConfig::default());
        let b = sample_obs(ObsConfig::default());
        assert_eq!(diff(&a, &b), "traces are identical\n");
        let mut c = sample_obs(ObsConfig::default());
        c.instants[0].key = 1234;
        let d = diff(&a, &c);
        assert!(d.contains("first divergence"), "{d}");
        assert!(d.contains("1234"), "{d}");
    }

    #[test]
    fn round_trip_through_text() {
        let o = sample_obs(ObsConfig::default());
        let parsed = parse(&o.to_text()).expect("parse");
        assert_eq!(summarize(&parsed), summarize(&o));
        assert_eq!(export(&parsed), export(&o));
    }

    /// Durations near `u64::MAX` saturate instead of overflowing.
    #[test]
    fn hand_edited_maximal_durations_do_not_overflow() {
        let max = u64::MAX;
        let text = format!(
            "gnbtrace v1\nnranks 1\nend_ns {max}\n\
             dropped nodes 0 spans 0 instants 0 samples 0 edges 0\ntruncated 0\n\
             node 0 0 0 {max} start - 0 0\nspan 0 0 0 0 {max}\nspan 0 0 0 0 {max}\n\
             stall 0 0 {max}\nend\n"
        );
        let obs = parse(&text).expect("well-formed");
        assert!(summarize(&obs).contains(&format!("{max} ns")));
        assert!(export(&obs).contains("traceEvents"));
        assert!(critical_path_report(&obs)
            .expect("complete")
            .contains("total"));
        assert!(timeline(&obs, 10).starts_with("r0  |!!!!!!!!!!|"));
    }

    #[test]
    fn series_tsv_renders() {
        let o = sample_obs(ObsConfig::default());
        let tsv = series_tsv(&o, MetricId::BytesSent, GLOBAL_RANK).expect("series");
        assert_eq!(tsv, "time_ns\tvalue\n120\t512\n");
        assert!(series_tsv(&o, MetricId::MemCurrent, 0).is_none());
    }

    /// A recorder holding just the given `(rank, start, end, category)`
    /// busy spans, finished at `end`.
    fn span_obs(
        max_spans: usize,
        nranks: usize,
        end: u64,
        spans: &[(usize, u64, u64, TimeCategory)],
    ) -> Obs {
        let cfg = ObsConfig {
            max_spans,
            ..ObsConfig::default()
        };
        let mut o = Obs::new(cfg, nranks);
        for &(rank, a, b, cat) in spans {
            o.on_advance(rank, t(a), t(b), cat);
        }
        o.finish(t(end));
        o
    }

    #[test]
    fn timeline_paints_category_glyphs_and_leaves_idle_blank() {
        let o = span_obs(
            10,
            2,
            100,
            &[
                (0, 0, 50, TimeCategory::Compute),
                (1, 50, 100, TimeCategory::Comm),
            ],
        );
        let s = timeline(&o, 10);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "r0  |#####     |");
        assert_eq!(lines[1], "r1  |     ~~~~~|");
        assert!(lines[2].contains("compute"));
        assert!(!s.contains("WARNING"), "no warning on a complete trace");
    }

    #[test]
    fn timeline_warns_when_spans_were_dropped() {
        let spans: Vec<_> = (0..4u64)
            .map(|i| (0, i * 10, i * 10 + 5, TimeCategory::Compute))
            .collect();
        let o = span_obs(1, 1, 40, &spans);
        assert_eq!(o.dropped_spans, 3);
        let s = timeline(&o, 10);
        let last = s.lines().last().unwrap();
        assert!(
            last.contains("WARNING: 3 spans dropped"),
            "dropped spans must be surfaced, not silently absorbed: {s}"
        );
    }

    #[test]
    fn timeline_clamps_to_width() {
        let o = span_obs(10, 1, 100, &[(0, 90, 200, TimeCategory::Sync)]);
        let s = timeline(&o, 10);
        assert_eq!(s.lines().next().unwrap(), "r0  |         .|");
    }

    #[test]
    fn timeline_paints_stall_intervals_as_recovery() {
        let mut o = span_obs(10, 1, 100, &[(0, 0, 20, TimeCategory::Compute)]);
        o.on_stall(0, t(40), t(70));
        let s = timeline(&o, 10);
        assert_eq!(s.lines().next().unwrap(), "r0  |##  !!!   |");
    }
}
