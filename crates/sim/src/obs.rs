//! Structured observability: typed trace records, a deterministic metrics
//! registry, and the event-dependency DAG behind the critical-path
//! profiler.
//!
//! The per-rank ledger answers *how much* time each [`TimeCategory`]
//! took; this layer answers *why*: every handler dispatch becomes a
//! [`ObsNode`] with a typed causal edge back to the handler that
//! scheduled it (message send→deliver, self-timer arm→fire,
//! barrier fan-in→release), every [`crate::engine::Ctx::advance`] becomes
//! an [`ObsSpan`] attached to its node, and recovery machinery emits
//! [`ObsInstant`] markers (retries, duplicate replies, injected drops).
//! A fixed-id metrics registry samples counters and gauges *in virtual
//! time* — bytes sent, messages in flight, event-queue depth, per-rank
//! resident memory, retry counts — so a timeline viewer can overlay load
//! curves on the span tracks.
//!
//! # Determinism contract
//!
//! Recording is purely observational: enabling [`Obs`] on an engine
//! changes **nothing** about the simulation (pinned by
//! `tests/observer_invariance.rs`). All record content derives from
//! virtual time and deterministic engine state — no wall clock, no
//! ambient randomness — so the serialized trace of a seeded run is
//! byte-identical across runs, machines, and (modulo capacity settings)
//! enabled/disabled co-observers.
//!
//! # Bounded collectors
//!
//! Every collection is bounded by [`ObsConfig`]; overflow increments a
//! `dropped_*` counter instead of growing without limit. A trace with any
//! drops is *truncated*: [`Obs::is_truncated`] is `true`, the exporter
//! marks the output (see [`crate::export`]), and the critical-path walker
//! refuses to walk it rather than report a path with silent holes.

use crate::engine::TimeCategory;
use crate::time::SimTime;
use std::collections::BTreeMap;

/// Sentinel node id: "no node" (engine-internal records outside any
/// handler dispatch, or records whose node was dropped at capacity).
pub const NO_NODE: u32 = u32::MAX;

/// Sentinel rank for global (non-per-rank) metric series.
pub const GLOBAL_RANK: u32 = u32::MAX;

/// The most ranks a `.gnbtrace` text may declare. The analyses allocate
/// per rank (one timeline row, one dispatch index each), so an absurd
/// header must be refused rather than allocated; 2²⁰ is 32× the paper's
/// largest machine (512 nodes × 64 ranks).
const MAX_TEXT_RANKS: usize = 1 << 20;

/// How a dispatched event came to exist: the type of its causal edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// Engine-injected program start (virtual time zero, no cause).
    Start = 0,
    /// A wire message ([`crate::engine::Ctx::send`]).
    Message = 1,
    /// A self-timer ([`crate::engine::Ctx::after`]).
    Timer = 2,
    /// A barrier release fan-out; the cause is the last-entering handler.
    Barrier = 3,
}

impl EdgeKind {
    /// Stable short name (used by the text format and exporter).
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::Start => "start",
            EdgeKind::Message => "msg",
            EdgeKind::Timer => "timer",
            EdgeKind::Barrier => "barrier",
        }
    }

    /// Parses [`EdgeKind::name`] output.
    pub fn from_name(s: &str) -> Option<EdgeKind> {
        Some(match s {
            "start" => EdgeKind::Start,
            "msg" => EdgeKind::Message,
            "timer" => EdgeKind::Timer,
            "barrier" => EdgeKind::Barrier,
            _ => return None,
        })
    }
}

/// A point event worth marking on the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum InstantKind {
    /// A wire message was dropped by the fault plan.
    MsgDropped = 0,
    /// A wire message was duplicated by the fault plan.
    MsgDuplicated = 1,
    /// A tracked request was re-issued after a timeout.
    Retry = 2,
    /// A duplicate reply arrived and was discarded.
    DupReply = 3,
    /// A tracked request exhausted its retry budget and was abandoned.
    GiveUp = 4,
    /// A rank's crash-stop failure fired (key = the crashed rank).
    Crash = 5,
    /// A survivor took over a dead rank's key range (key = dead rank).
    Takeover = 6,
    /// State was restored from a checkpoint (key = the restored rank).
    Restore = 7,
}

impl InstantKind {
    /// Stable short name (used by the text format and exporter).
    pub fn name(self) -> &'static str {
        match self {
            InstantKind::MsgDropped => "msg_drop",
            InstantKind::MsgDuplicated => "msg_dup",
            InstantKind::Retry => "retry",
            InstantKind::DupReply => "dup_reply",
            InstantKind::GiveUp => "give_up",
            InstantKind::Crash => "crash",
            InstantKind::Takeover => "takeover",
            InstantKind::Restore => "restore",
        }
    }

    /// Parses [`InstantKind::name`] output.
    pub fn from_name(s: &str) -> Option<InstantKind> {
        Some(match s {
            "msg_drop" => InstantKind::MsgDropped,
            "msg_dup" => InstantKind::MsgDuplicated,
            "retry" => InstantKind::Retry,
            "dup_reply" => InstantKind::DupReply,
            "give_up" => InstantKind::GiveUp,
            "crash" => InstantKind::Crash,
            "takeover" => InstantKind::Takeover,
            "restore" => InstantKind::Restore,
            _ => return None,
        })
    }
}

/// Registry metric ids. Counters are cumulative; gauges are sampled
/// current values. All are recorded at the virtual time of the change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricId {
    /// Cumulative wire bytes handed to the network (counter, global).
    BytesSent = 0,
    /// Cumulative wire messages handed to the network (counter, global).
    MsgsSent = 1,
    /// Wire messages pushed but not yet delivered (gauge, global).
    MsgsInFlight = 2,
    /// Event-queue depth sampled at each dispatch (gauge, global).
    QueueDepth = 3,
    /// Cumulative tracked-request retries (counter, global).
    Retries = 4,
    /// Cumulative duplicate replies discarded (counter, global).
    DupReplies = 5,
    /// Resident memory per rank, bytes (gauge, per-rank).
    MemCurrent = 6,
}

impl MetricId {
    /// Stable name (used by the text format and exporter).
    pub fn name(self) -> &'static str {
        match self {
            MetricId::BytesSent => "bytes_sent",
            MetricId::MsgsSent => "msgs_sent",
            MetricId::MsgsInFlight => "msgs_in_flight",
            MetricId::QueueDepth => "queue_depth",
            MetricId::Retries => "retries",
            MetricId::DupReplies => "dup_replies",
            MetricId::MemCurrent => "mem_current",
        }
    }

    /// Parses [`MetricId::name`] output.
    pub fn from_name(s: &str) -> Option<MetricId> {
        Some(match s {
            "bytes_sent" => MetricId::BytesSent,
            "msgs_sent" => MetricId::MsgsSent,
            "msgs_in_flight" => MetricId::MsgsInFlight,
            "queue_depth" => MetricId::QueueDepth,
            "retries" => MetricId::Retries,
            "dup_replies" => MetricId::DupReplies,
            "mem_current" => MetricId::MemCurrent,
            _ => return None,
        })
    }
}

/// One handler dispatch: a node of the event-dependency DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsNode {
    /// Node id (dense, in dispatch order).
    pub id: u32,
    /// Rank the handler ran on.
    pub rank: u32,
    /// Dispatch (= handler start) virtual time.
    pub start: SimTime,
    /// Handler end virtual time.
    pub end: SimTime,
    /// Causal edge type of the event that triggered this dispatch.
    pub kind: EdgeKind,
    /// Node id of the handler that scheduled the event ([`NO_NODE`] for
    /// engine-injected starts).
    pub cause: u32,
    /// Virtual time the event was pushed (send time / timer arm time /
    /// last barrier entry).
    pub push_time: SimTime,
    /// Originally scheduled delivery time (message arrival, timer fire,
    /// barrier release) — dispatch may be later if the rank was busy.
    pub sched_time: SimTime,
}

/// One busy span, attached to the node whose handler booked it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsSpan {
    /// Owning node ([`NO_NODE`] for engine-side bookings such as stall
    /// freezes, which happen outside any handler).
    pub node: u32,
    /// Rank the time was booked on.
    pub rank: u32,
    /// Ledger category index ([`TimeCategory`] as `u8`).
    pub category: u8,
    /// Span start (virtual time).
    pub start: SimTime,
    /// Span end (virtual time).
    pub end: SimTime,
}

/// One marked point event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsInstant {
    /// Rank it happened on.
    pub rank: u32,
    /// Virtual time.
    pub time: SimTime,
    /// What happened.
    pub kind: InstantKind,
    /// Application key (request key, destination rank, ...).
    pub key: u64,
}

/// One transient-stall freeze interval (fault injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallInterval {
    /// Frozen rank.
    pub rank: u32,
    /// Freeze start.
    pub at: SimTime,
    /// Thaw time.
    pub thaw: SimTime,
}

/// One metric's sample series. Samples are `(time, value)` pairs recorded
/// at change time; same-time changes coalesce into the last sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSeries {
    /// Which metric.
    pub metric: MetricId,
    /// Rank for per-rank metrics, [`GLOBAL_RANK`] for global ones.
    pub rank: u32,
    /// `(virtual time, value)` samples in time order.
    pub samples: Vec<(SimTime, u64)>,
    /// Samples dropped after capacity was reached.
    pub dropped: u64,
    /// Live running value (counters accumulate here).
    current: u64,
}

impl MetricSeries {
    /// Final value of the series (the last sample, or the running value
    /// if sampling dropped it).
    pub fn last_value(&self) -> u64 {
        self.current
    }

    /// Samples `value` at `time`: a same-time change coalesces into the
    /// last sample, and past `max` samples the series counts drops.
    fn push_sample(&mut self, max: usize, time: SimTime, value: u64) {
        if let Some(last) = self.samples.last_mut() {
            if last.0 == time {
                last.1 = value;
                return;
            }
        }
        if self.samples.len() >= max {
            self.dropped += 1;
            return;
        }
        self.samples.push((time, value));
    }
}

/// Capacity bounds for the collectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Maximum dispatch nodes recorded.
    pub max_nodes: usize,
    /// Maximum busy spans recorded.
    pub max_spans: usize,
    /// Maximum instants recorded.
    pub max_instants: usize,
    /// Maximum samples per metric series.
    pub max_samples_per_series: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            max_nodes: 1 << 20,
            max_spans: 1 << 20,
            max_instants: 1 << 16,
            max_samples_per_series: 1 << 16,
        }
    }
}

/// In-flight edge bookkeeping for a pushed-but-undelivered event, keyed
/// by its heap sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EdgeInfo {
    kind: EdgeKind,
    cause: u32,
    push_time: SimTime,
    sched_time: SimTime,
}

/// The structured-trace recorder and its frozen output.
///
/// Installed with [`crate::engine::Engine::with_obs`]; the engine drives
/// the `on_*` hooks, and the filled recorder comes back in
/// [`crate::engine::SimReport::obs`].
#[derive(Debug, Clone, PartialEq)]
pub struct Obs {
    /// Capacity bounds this recorder was created with.
    pub cfg: ObsConfig,
    /// Number of ranks simulated.
    pub nranks: usize,
    /// Dispatch nodes, in dispatch order (`id` = index).
    pub nodes: Vec<ObsNode>,
    /// Busy spans, in recording order.
    pub spans: Vec<ObsSpan>,
    /// Point events, in recording order.
    pub instants: Vec<ObsInstant>,
    /// Stall freezes, in occurrence order.
    pub stalls: Vec<StallInterval>,
    /// Metric series, sorted by `(metric, rank)` once finished.
    pub series: Vec<MetricSeries>,
    /// Nodes dropped at capacity.
    pub dropped_nodes: u64,
    /// Spans dropped at capacity.
    pub dropped_spans: u64,
    /// Instants dropped at capacity.
    pub dropped_instants: u64,
    /// Virtual end time of the run (set by [`Obs::finish`]).
    pub end_time: SimTime,
    /// Causal edges never resolved to a dispatch (0 in a completed run).
    pub unresolved_edges: u64,
    series_index: BTreeMap<(u8, u32), usize>,
    edges: BTreeMap<u64, EdgeInfo>,
    cur_node: u32,
}

impl Obs {
    /// Creates a recorder for `nranks` ranks with the given bounds.
    pub fn new(cfg: ObsConfig, nranks: usize) -> Obs {
        Obs {
            cfg,
            nranks,
            nodes: Vec::new(),
            spans: Vec::new(),
            instants: Vec::new(),
            stalls: Vec::new(),
            series: Vec::new(),
            dropped_nodes: 0,
            dropped_spans: 0,
            dropped_instants: 0,
            end_time: SimTime::ZERO,
            unresolved_edges: 0,
            series_index: BTreeMap::new(),
            edges: BTreeMap::new(),
            cur_node: NO_NODE,
        }
    }

    /// `true` when any collector overflowed: record streams have holes
    /// and whole-trace analyses (critical path) are unsound.
    pub fn is_truncated(&self) -> bool {
        self.dropped_nodes > 0
            || self.dropped_spans > 0
            || self.dropped_instants > 0
            || self.series.iter().any(|s| s.dropped > 0)
            || self.unresolved_edges > 0
    }

    /// Total samples dropped across all metric series.
    pub fn dropped_samples(&self) -> u64 {
        self.series.iter().map(|s| s.dropped).sum()
    }

    // ---- engine hooks ----

    /// An event was pushed with heap sequence `seq`: records its causal
    /// edge from the currently dispatching node (if any).
    pub fn on_push(&mut self, seq: u64, kind: EdgeKind, push_time: SimTime, sched_time: SimTime) {
        self.edges.insert(
            seq,
            EdgeInfo {
                kind,
                cause: self.cur_node,
                push_time,
                sched_time,
            },
        );
    }

    /// A deferred event was re-queued under a fresh sequence number; its
    /// causal edge (and original schedule) follow it.
    pub fn on_requeue(&mut self, old_seq: u64, new_seq: u64) {
        if let Some(info) = self.edges.remove(&old_seq) {
            self.edges.insert(new_seq, info);
        }
    }

    /// An event is dispatching on `rank` at `time`; `queue_depth` is the
    /// number of events still pending. Opens the dispatch node.
    pub fn begin_dispatch(&mut self, rank: usize, time: SimTime, seq: u64, queue_depth: usize) {
        let info = self.edges.remove(&seq).unwrap_or(EdgeInfo {
            kind: EdgeKind::Start,
            cause: NO_NODE,
            push_time: SimTime::ZERO,
            sched_time: SimTime::ZERO,
        });
        if info.kind == EdgeKind::Message {
            self.gauge_add(MetricId::MsgsInFlight, GLOBAL_RANK, time, -1);
        }
        self.gauge_set(MetricId::QueueDepth, GLOBAL_RANK, time, queue_depth as u64);
        if self.nodes.len() >= self.cfg.max_nodes {
            self.dropped_nodes += 1;
            self.cur_node = NO_NODE;
            return;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(ObsNode {
            id,
            rank: rank as u32,
            start: time,
            end: time,
            kind: info.kind,
            cause: info.cause,
            push_time: info.push_time,
            sched_time: info.sched_time,
        });
        self.cur_node = id;
    }

    /// The current handler returned at virtual `end`.
    pub fn end_dispatch(&mut self, end: SimTime) {
        // NO_NODE indexes no node; any other cur_node was minted by
        // begin_dispatch as a nodes index.
        if let Some(node) = self.nodes.get_mut(self.cur_node as usize) {
            node.end = end;
        }
        self.cur_node = NO_NODE;
    }

    /// Busy time was booked by [`crate::engine::Ctx::advance`] (or a stall
    /// freeze); zero-length spans are skipped.
    pub fn on_advance(&mut self, rank: usize, start: SimTime, end: SimTime, cat: TimeCategory) {
        if start == end {
            return;
        }
        if self.spans.len() >= self.cfg.max_spans {
            self.dropped_spans += 1;
            return;
        }
        self.spans.push(ObsSpan {
            node: self.cur_node,
            rank: rank as u32,
            category: cat as u8,
            start,
            end,
        });
    }

    /// A stall froze `rank` over `[at, thaw)`.
    pub fn on_stall(&mut self, rank: usize, at: SimTime, thaw: SimTime) {
        self.stalls.push(StallInterval {
            rank: rank as u32,
            at,
            thaw,
        });
    }

    /// Records a point event (and bumps its derived counter, if any).
    pub fn instant(&mut self, rank: usize, time: SimTime, kind: InstantKind, key: u64) {
        match kind {
            InstantKind::Retry => self.counter_add(MetricId::Retries, GLOBAL_RANK, time, 1),
            InstantKind::DupReply => self.counter_add(MetricId::DupReplies, GLOBAL_RANK, time, 1),
            InstantKind::MsgDropped
            | InstantKind::MsgDuplicated
            | InstantKind::GiveUp
            | InstantKind::Crash
            | InstantKind::Takeover
            | InstantKind::Restore => {}
        }
        if self.instants.len() >= self.cfg.max_instants {
            self.dropped_instants += 1;
            return;
        }
        self.instants.push(ObsInstant {
            rank: rank as u32,
            time,
            kind,
            key,
        });
    }

    /// Adds `delta` to a cumulative counter and samples the new total.
    pub fn counter_add(&mut self, metric: MetricId, rank: u32, time: SimTime, delta: u64) {
        let max = self.cfg.max_samples_per_series;
        let s = self.series_slot(metric, rank);
        s.current += delta;
        let v = s.current;
        s.push_sample(max, time, v);
    }

    /// Adds a signed `delta` to a gauge and samples the new value
    /// (saturating at zero, so a decrement with no matching increment —
    /// e.g. a hand-built partial trace — cannot panic).
    pub fn gauge_add(&mut self, metric: MetricId, rank: u32, time: SimTime, delta: i64) {
        let max = self.cfg.max_samples_per_series;
        let s = self.series_slot(metric, rank);
        s.current = s.current.saturating_add_signed(delta);
        let v = s.current;
        s.push_sample(max, time, v);
    }

    /// Sets a gauge to `value` and samples it.
    pub fn gauge_set(&mut self, metric: MetricId, rank: u32, time: SimTime, value: u64) {
        let max = self.cfg.max_samples_per_series;
        let s = self.series_slot(metric, rank);
        s.current = value;
        s.push_sample(max, time, value);
    }

    /// The run is over at `end_time`: freezes the recorder (sorts series,
    /// counts unresolved edges).
    pub fn finish(&mut self, end_time: SimTime) {
        self.end_time = end_time;
        self.cur_node = NO_NODE;
        self.unresolved_edges = self.edges.len() as u64;
        self.edges.clear();
        // Deterministic presentation order, whatever the touch order was.
        self.series.sort_by_key(|s| (s.metric, s.rank));
        self.series_index.clear();
        for (i, s) in self.series.iter().enumerate() {
            self.series_index.insert((s.metric as u8, s.rank), i);
        }
    }

    /// The series of `(metric, rank)`, created empty on first touch.
    fn series_slot(&mut self, metric: MetricId, rank: u32) -> &mut MetricSeries {
        let fresh = self.series.len();
        let i = *self
            .series_index
            .entry((metric as u8, rank))
            .or_insert(fresh);
        if i == fresh {
            self.series.push(MetricSeries {
                metric,
                rank,
                samples: Vec::new(),
                dropped: 0,
                current: 0,
            });
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "series_index maps only to indexes of series, and a fresh key's series was pushed just above"
        )]
        let s = &mut self.series[i];
        s
    }

    /// Looks up a series by metric and rank.
    pub fn get_series(&self, metric: MetricId, rank: u32) -> Option<&MetricSeries> {
        self.series
            .iter()
            .find(|s| s.metric == metric && s.rank == rank)
    }

    /// Spans of one node, in recording (= time) order.
    pub fn node_spans(&self, node: u32) -> impl Iterator<Item = &ObsSpan> {
        self.spans.iter().filter(move |s| s.node == node)
    }

    /// Per-category busy totals across all spans, ns (index =
    /// [`TimeCategory`] as usize). Saturates at `u64::MAX`, which only a
    /// hand-edited recording reaches.
    pub fn busy_totals_ns(&self) -> [u64; crate::engine::CATEGORIES] {
        let mut out = [0u64; crate::engine::CATEGORIES];
        for s in &self.spans {
            if let Some(slot) = out.get_mut(s.category as usize) {
                *slot = slot.saturating_add((s.end - s.start).as_ns());
            }
        }
        out
    }

    // ---- text serialization (the `.gnbtrace` format) ----

    /// Serializes the trace to the line-oriented `gnbtrace v1` text
    /// format: deterministic, diffable, and parseable by
    /// [`Obs::from_text`] without any JSON machinery.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut o = String::new();
        o.push_str("gnbtrace v1\n");
        let _ = writeln!(o, "nranks {}", self.nranks);
        let _ = writeln!(o, "end_ns {}", self.end_time.as_ns());
        let _ = writeln!(
            o,
            "dropped nodes {} spans {} instants {} samples {} edges {}",
            self.dropped_nodes,
            self.dropped_spans,
            self.dropped_instants,
            self.dropped_samples(),
            self.unresolved_edges
        );
        let _ = writeln!(o, "truncated {}", if self.is_truncated() { 1 } else { 0 });
        for n in &self.nodes {
            let _ = writeln!(
                o,
                "node {} {} {} {} {} {} {} {}",
                n.id,
                n.rank,
                n.start.as_ns(),
                n.end.as_ns(),
                n.kind.name(),
                if n.cause == NO_NODE {
                    "-".to_string()
                } else {
                    n.cause.to_string()
                },
                n.push_time.as_ns(),
                n.sched_time.as_ns()
            );
        }
        for s in &self.spans {
            let _ = writeln!(
                o,
                "span {} {} {} {} {}",
                if s.node == NO_NODE {
                    "-".to_string()
                } else {
                    s.node.to_string()
                },
                s.rank,
                s.category,
                s.start.as_ns(),
                s.end.as_ns()
            );
        }
        for i in &self.instants {
            let _ = writeln!(
                o,
                "inst {} {} {} {}",
                i.rank,
                i.time.as_ns(),
                i.kind.name(),
                i.key
            );
        }
        for s in &self.stalls {
            let _ = writeln!(o, "stall {} {} {}", s.rank, s.at.as_ns(), s.thaw.as_ns());
        }
        for s in &self.series {
            let _ = writeln!(
                o,
                "series {} {} dropped {}",
                s.metric.name(),
                if s.rank == GLOBAL_RANK {
                    "-".to_string()
                } else {
                    s.rank.to_string()
                },
                s.dropped
            );
            for (t, v) in &s.samples {
                let _ = writeln!(o, "s {} {}", t.as_ns(), v);
            }
        }
        o.push_str("end\n");
        o
    }

    /// Checks what the analyses index by or subtract without looking:
    /// `nranks` is at most [`MAX_TEXT_RANKS`], node ids equal their index,
    /// every node and span id is `-` or names a node, every rank is below
    /// `nranks` (or `-` for a global series), and no interval ends before
    /// it starts. A recording of a run always passes.
    fn check_references(&self) -> Result<(), String> {
        if self.nranks > MAX_TEXT_RANKS {
            return Err(format!(
                "nranks {} exceeds the {MAX_TEXT_RANKS} a recording may declare",
                self.nranks
            ));
        }
        let node = |id: u32, what: &str| {
            if id == NO_NODE || (id as usize) < self.nodes.len() {
                Ok(())
            } else {
                Err(format!("{what} {id} names no node"))
            }
        };
        let rank = |r: u32, what: &str| {
            if (r as usize) < self.nranks {
                Ok(())
            } else {
                Err(format!("{what} {r} is not below nranks {}", self.nranks))
            }
        };
        let ordered = |start: SimTime, end: SimTime, what: &str| {
            if start <= end {
                Ok(())
            } else {
                Err(format!("{what} ends before it starts"))
            }
        };
        for (i, n) in self.nodes.iter().enumerate() {
            if n.id as usize != i {
                return Err(format!("node {} at index {i}", n.id));
            }
            rank(n.rank, "node rank")?;
            node(n.cause, "node cause")?;
            ordered(n.start, n.end, "node")?;
        }
        for s in &self.spans {
            node(s.node, "span node")?;
            rank(s.rank, "span rank")?;
            ordered(s.start, s.end, "span")?;
        }
        for i in &self.instants {
            rank(i.rank, "inst rank")?;
        }
        for s in &self.stalls {
            rank(s.rank, "stall rank")?;
            ordered(s.at, s.thaw, "stall")?;
        }
        for s in &self.series {
            if s.rank != GLOBAL_RANK {
                rank(s.rank, "series rank")?;
            }
        }
        Ok(())
    }

    /// Parses the output of [`Obs::to_text`], and refuses a text whose
    /// records do not fit together (see `check_references`), so every
    /// analysis of a parsed recording can index by its ids and ranks.
    pub fn from_text(text: &str) -> Result<Obs, String> {
        fn num<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<T, String> {
            tok.ok_or_else(|| format!("missing {what}"))?
                .parse()
                .map_err(|_| format!("bad {what}"))
        }
        fn opt_id(tok: Option<&str>, what: &str) -> Result<u32, String> {
            match tok {
                Some("-") => Ok(NO_NODE),
                t => num(t, what),
            }
        }
        let mut lines = text.lines();
        if lines.next() != Some("gnbtrace v1") {
            return Err("not a gnbtrace v1 file".to_string());
        }
        let mut obs = Obs::new(ObsConfig::default(), 0);
        let mut truncated_flag = 0u8;
        let mut saw_end = false;
        for line in lines {
            let mut f = line.split_ascii_whitespace();
            match f.next() {
                Some("nranks") => obs.nranks = num(f.next(), "nranks")?,
                Some("end_ns") => obs.end_time = SimTime::from_ns(num(f.next(), "end_ns")?),
                Some("dropped") => {
                    // dropped nodes N spans N instants N samples N edges N
                    while let Some(kind) = f.next() {
                        let v: u64 = num(f.next(), kind)?;
                        match kind {
                            "nodes" => obs.dropped_nodes = v,
                            "spans" => obs.dropped_spans = v,
                            "instants" => obs.dropped_instants = v,
                            "samples" => {} // re-derived from series lines
                            "edges" => obs.unresolved_edges = v,
                            _ => return Err(format!("unknown dropped field {kind}")),
                        }
                    }
                }
                Some("truncated") => truncated_flag = num(f.next(), "truncated")?,
                Some("node") => {
                    let id = num(f.next(), "node id")?;
                    let rank = num(f.next(), "node rank")?;
                    let start = SimTime::from_ns(num(f.next(), "node start")?);
                    let end = SimTime::from_ns(num(f.next(), "node end")?);
                    let kind = EdgeKind::from_name(f.next().ok_or("missing node kind")?)
                        .ok_or("bad node kind")?;
                    let cause = opt_id(f.next(), "node cause")?;
                    let push_time = SimTime::from_ns(num(f.next(), "node push")?);
                    let sched_time = SimTime::from_ns(num(f.next(), "node sched")?);
                    obs.nodes.push(ObsNode {
                        id,
                        rank,
                        start,
                        end,
                        kind,
                        cause,
                        push_time,
                        sched_time,
                    });
                }
                Some("span") => {
                    let node = opt_id(f.next(), "span node")?;
                    let rank = num(f.next(), "span rank")?;
                    let category = num(f.next(), "span cat")?;
                    let start = SimTime::from_ns(num(f.next(), "span start")?);
                    let end = SimTime::from_ns(num(f.next(), "span end")?);
                    obs.spans.push(ObsSpan {
                        node,
                        rank,
                        category,
                        start,
                        end,
                    });
                }
                Some("inst") => {
                    let rank = num(f.next(), "inst rank")?;
                    let time = SimTime::from_ns(num(f.next(), "inst time")?);
                    let kind = InstantKind::from_name(f.next().ok_or("missing inst kind")?)
                        .ok_or("bad inst kind")?;
                    let key = num(f.next(), "inst key")?;
                    obs.instants.push(ObsInstant {
                        rank,
                        time,
                        kind,
                        key,
                    });
                }
                Some("stall") => {
                    let rank = num(f.next(), "stall rank")?;
                    let at = SimTime::from_ns(num(f.next(), "stall at")?);
                    let thaw = SimTime::from_ns(num(f.next(), "stall thaw")?);
                    obs.stalls.push(StallInterval { rank, at, thaw });
                }
                Some("series") => {
                    let metric = MetricId::from_name(f.next().ok_or("missing metric")?)
                        .ok_or("unknown metric")?;
                    let rank = opt_id(f.next(), "series rank")?;
                    if f.next() != Some("dropped") {
                        return Err("malformed series line".to_string());
                    }
                    let dropped = num(f.next(), "series dropped")?;
                    obs.series.push(MetricSeries {
                        metric,
                        rank,
                        samples: Vec::new(),
                        dropped,
                        current: 0,
                    });
                }
                Some("s") => {
                    let t = SimTime::from_ns(num(f.next(), "sample time")?);
                    let v = num(f.next(), "sample value")?;
                    let series = obs
                        .series
                        .last_mut()
                        .ok_or("sample before any series line")?;
                    series.samples.push((t, v));
                    series.current = v;
                }
                Some("end") => {
                    saw_end = true;
                    break;
                }
                Some(other) => return Err(format!("unknown record {other}")),
                None => {}
            }
        }
        if !saw_end {
            return Err("missing end marker (truncated file)".to_string());
        }
        if (truncated_flag != 0) != obs.is_truncated() {
            return Err("truncated flag disagrees with drop counters".to_string());
        }
        obs.check_references()?;
        for (i, s) in obs.series.iter().enumerate() {
            obs.series_index.insert((s.metric as u8, s.rank), i);
        }
        Ok(obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    /// Builds a tiny two-node trace through the hook API.
    fn small_obs() -> Obs {
        let mut o = Obs::new(ObsConfig::default(), 2);
        // Engine pushes two starts.
        o.on_push(0, EdgeKind::Start, t(0), t(0));
        o.on_push(1, EdgeKind::Start, t(0), t(0));
        // Rank 0 start dispatches, computes, sends a message.
        o.begin_dispatch(0, t(0), 0, 1);
        o.on_advance(0, t(0), t(100), TimeCategory::Compute);
        o.counter_add(MetricId::BytesSent, GLOBAL_RANK, t(100), 64);
        o.gauge_add(MetricId::MsgsInFlight, GLOBAL_RANK, t(100), 1);
        o.on_push(2, EdgeKind::Message, t(100), t(300));
        o.end_dispatch(t(100));
        // Rank 1 start dispatches (empty: a zero-length advance is no span).
        o.begin_dispatch(1, t(0), 1, 1);
        o.on_advance(1, t(0), t(0), TimeCategory::Sync);
        o.end_dispatch(t(0));
        // The message arrives on rank 1.
        o.begin_dispatch(1, t(300), 2, 0);
        o.on_advance(1, t(300), t(350), TimeCategory::Overhead);
        o.instant(1, t(300), InstantKind::Retry, 7);
        o.end_dispatch(t(350));
        o.finish(t(350));
        o
    }

    #[test]
    fn hooks_build_dag() {
        let o = small_obs();
        assert_eq!(o.nodes.len(), 3);
        assert_eq!(o.nodes[2].kind, EdgeKind::Message);
        assert_eq!(o.nodes[2].cause, 0);
        assert_eq!(o.nodes[2].push_time, t(100));
        assert_eq!(o.nodes[2].sched_time, t(300));
        assert_eq!(o.spans.len(), 2);
        assert_eq!(o.spans[0].node, 0);
        assert!(!o.is_truncated());
        assert_eq!(o.unresolved_edges, 0);
        // Metrics: retry instant bumped the derived counter.
        let retries = o.get_series(MetricId::Retries, GLOBAL_RANK).unwrap();
        assert_eq!(retries.last_value(), 1);
        // In-flight went 1 then back to 0.
        let inflight = o.get_series(MetricId::MsgsInFlight, GLOBAL_RANK).unwrap();
        assert_eq!(inflight.last_value(), 0);
        assert_eq!(o.busy_totals_ns()[TimeCategory::Compute as usize], 100);
    }

    #[test]
    fn requeue_preserves_edge_and_schedule() {
        let mut o = Obs::new(ObsConfig::default(), 1);
        o.on_push(5, EdgeKind::Message, t(10), t(20));
        o.on_requeue(5, 9);
        o.begin_dispatch(0, t(50), 9, 0);
        o.end_dispatch(t(50));
        o.finish(t(50));
        let n = o.nodes[0];
        assert_eq!(n.kind, EdgeKind::Message);
        assert_eq!(n.sched_time, t(20), "original schedule survives requeue");
        assert_eq!(n.start, t(50));
    }

    #[test]
    fn capacities_bound_and_count() {
        let cfg = ObsConfig {
            max_nodes: 1,
            max_spans: 1,
            max_instants: 1,
            max_samples_per_series: 2,
        };
        let mut o = Obs::new(cfg, 1);
        for seq in 0..3u64 {
            o.on_push(seq, EdgeKind::Timer, t(seq), t(seq));
            o.begin_dispatch(0, t(seq), seq, 0);
            o.on_advance(0, t(seq * 10), t(seq * 10 + 5), TimeCategory::Compute);
            o.instant(0, t(seq), InstantKind::Retry, seq);
            o.end_dispatch(t(seq));
        }
        o.finish(t(100));
        assert_eq!(o.nodes.len(), 1);
        assert_eq!(o.dropped_nodes, 2);
        assert_eq!(o.spans.len(), 1);
        assert_eq!(o.dropped_spans, 2);
        assert_eq!(o.instants.len(), 1);
        assert_eq!(o.dropped_instants, 2);
        assert!(o.is_truncated());
        // Retries counter: 3 distinct times, capacity 2 (queue_depth took
        // nothing here since gauge_set coalesces per time).
        let retries = o.get_series(MetricId::Retries, GLOBAL_RANK).unwrap();
        assert_eq!(retries.samples.len(), 2);
        assert_eq!(retries.dropped, 1);
        assert_eq!(retries.last_value(), 3, "running value keeps counting");
    }

    #[test]
    fn same_time_samples_coalesce() {
        let mut o = Obs::new(ObsConfig::default(), 1);
        o.gauge_set(MetricId::QueueDepth, GLOBAL_RANK, t(5), 1);
        o.gauge_set(MetricId::QueueDepth, GLOBAL_RANK, t(5), 3);
        o.gauge_set(MetricId::QueueDepth, GLOBAL_RANK, t(6), 2);
        let s = o.get_series(MetricId::QueueDepth, GLOBAL_RANK).unwrap();
        assert_eq!(s.samples, vec![(t(5), 3), (t(6), 2)]);
    }

    #[test]
    fn text_round_trip() {
        let o = small_obs();
        let text = o.to_text();
        let back = Obs::from_text(&text).expect("parse");
        assert_eq!(back.nodes, o.nodes);
        assert_eq!(back.spans, o.spans);
        assert_eq!(back.instants, o.instants);
        assert_eq!(back.stalls, o.stalls);
        assert_eq!(back.end_time, o.end_time);
        assert_eq!(back.nranks, o.nranks);
        assert_eq!(back.series.len(), o.series.len());
        for (a, b) in back.series.iter().zip(&o.series) {
            assert_eq!((a.metric, a.rank, a.dropped), (b.metric, b.rank, b.dropped));
            assert_eq!(a.samples, b.samples);
        }
        // Serialization is stable.
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(Obs::from_text("nonsense").is_err());
        assert!(Obs::from_text("gnbtrace v1\nnode 0\nend\n").is_err());
        assert!(Obs::from_text("gnbtrace v1\n").is_err(), "missing end");
        assert!(Obs::from_text("gnbtrace v1\ntruncated 1\nend\n").is_err());
    }

    #[test]
    fn from_text_rejects_dangling_references() {
        let text = small_obs().to_text();
        let bad = |from: &str, to: &str| {
            assert!(text.contains(from), "{from:?} not in the recording");
            let err = Obs::from_text(&text.replacen(from, to, 1)).unwrap_err();
            assert!(!err.is_empty());
        };
        bad("nranks 2", "nranks 4294967295");
        bad("nranks 2", "nranks 1");
        bad("node 1 1", "node 7 1");
        bad("node 2 1", "node 2 9");
        bad("msg 0", "msg 3");
        bad("span 0 0", "span 5 0");
        bad("inst 1", "inst 2");
        bad("node 0 0 0 100", "node 0 0 101 100");
    }

    #[test]
    fn kind_names_round_trip() {
        for k in [
            EdgeKind::Start,
            EdgeKind::Message,
            EdgeKind::Timer,
            EdgeKind::Barrier,
        ] {
            assert_eq!(EdgeKind::from_name(k.name()), Some(k));
        }
        for k in [
            InstantKind::MsgDropped,
            InstantKind::MsgDuplicated,
            InstantKind::Retry,
            InstantKind::DupReply,
            InstantKind::GiveUp,
            InstantKind::Crash,
            InstantKind::Takeover,
            InstantKind::Restore,
        ] {
            assert_eq!(InstantKind::from_name(k.name()), Some(k));
        }
        for m in [
            MetricId::BytesSent,
            MetricId::MsgsSent,
            MetricId::MsgsInFlight,
            MetricId::QueueDepth,
            MetricId::Retries,
            MetricId::DupReplies,
            MetricId::MemCurrent,
        ] {
            assert_eq!(MetricId::from_name(m.name()), Some(m));
        }
    }
}
