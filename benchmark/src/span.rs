//! Host-time spans recorded by the benchmark around its calls into each
//! layer's public functions.
//!
//! Spans live in memory until the run ends. A layer's time is the *self*
//! time of its spans: a span's duration minus what its direct children
//! cover, so nested calls are never counted twice and the self times of a
//! tree sum to the root's duration exactly.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<crate>.<function>`, e.g. `kmer.index`.
    pub name: &'static str,
    /// The crate the call enters (`genome`, `kmer`, `overlap`, `align`,
    /// `sim`, `core`, `trace`).
    pub layer: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The pass this span belongs to (spans of one pass share it).
    pub pass: u32,
}

/// Records spans when on; when off, [`Tracer::span`] only calls the closure,
/// so the same pass code serves the timed and the traced run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    pass: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            pass: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A disabled tracer.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// Starts the next pass; later spans carry its number.
    pub fn next_pass(&mut self) -> u32 {
        self.pass += 1;
        self.pass
    }

    /// Runs `f` inside a span. `f` gets the tracer back to open children.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of each span, in nanoseconds: duration minus the durations of
/// its direct children (children of one span never overlap — they are
/// sequential calls on one thread).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Sums `ns` (one value per span) by span name within each pass: one entry
/// per pass in which the name occurred, in seconds.
fn secs_by_name_of(spans: &[Span], ns: Vec<u64>) -> BTreeMap<&'static str, Vec<f64>> {
    let mut per_pass: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(ns) {
        *per_pass.entry((s.name, s.pass)).or_default() += ns;
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), ns) in per_pass {
        out.entry(name).or_default().push(ns as f64 * 1e-9);
    }
    out
}

/// Self seconds per span name, one entry per pass.
pub fn self_secs_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    secs_by_name_of(spans, self_times_ns(spans))
}

/// Whole-span seconds (children included) per span name, one entry per pass.
pub fn secs_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    secs_by_name_of(spans, spans.iter().map(|s| s.end_ns - s.start_ns).collect())
}

/// The spans as a JSON array (what `trace-<workload>.json` holds).
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.to_string())),
                    ("layer", Json::Str(s.layer.to_string())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("pass", Json::Num(s.pass as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, pass: u32) -> Span {
        Span {
            name,
            layer: "test",
            start_ns: start,
            end_ns: end,
            parent,
            pass,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ─ a [10,40) ─ a1 [15,25)
        //               └ b [50,90)   (sibling of a)
        let spans = vec![
            span("root", 0, 100, None, 1),
            span("a", 10, 40, Some(0), 1),
            span("a1", 15, 25, Some(1), 1),
            span("b", 50, 90, Some(0), 1),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![30, 20, 10, 40]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(own.iter().sum::<u64>(), 100);
    }

    #[test]
    fn names_are_summed_within_a_pass_and_listed_per_pass() {
        let spans = vec![
            span("x", 0, 10, None, 1),
            span("x", 10, 30, None, 1),
            span("x", 100, 140, None, 2),
            span("y", 200, 201, None, 2),
        ];
        let by = self_secs_by_name(&spans);
        let ns = |v: &Vec<f64>| {
            v.iter()
                .map(|s| (s * 1e9).round() as u64)
                .collect::<Vec<_>>()
        };
        assert_eq!(ns(&by["x"]), vec![30, 40]);
        assert_eq!(ns(&by["y"]), vec![1]);
        // Whole-span time keeps what the children cover.
        let tree = vec![
            span("root", 0, 100, None, 1),
            span("kid", 10, 40, Some(0), 1),
        ];
        assert_eq!(ns(&secs_by_name(&tree)["root"]), vec![100]);
        assert_eq!(ns(&self_secs_by_name(&tree)["root"]), vec![70]);
    }

    #[test]
    fn tracer_nests_and_numbers_passes() {
        let mut t = Tracer::new(true);
        t.next_pass();
        let v = t.span("core", "outer", |t| {
            t.span("kmer", "inner", |_| 7) + t.span("align", "inner2", |_| 1)
        });
        assert_eq!(v, 8);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s.iter().all(|x| x.pass == 1 && x.end_ns >= x.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("core", "x", |t| t.span("core", "y", |_| 3)), 3);
        assert!(t.spans().is_empty());
    }
}
