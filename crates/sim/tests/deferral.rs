//! Busy-rank deferral through the public engine API: how many times a
//! backlog is re-deferred (`SimReport::deferrals`), and the order in which
//! two ranks that free up at the same instant serve interleaved backlogs.
//!
//! Both are properties of the simulated timeline. The event queue keeps
//! deferred events apart from its main heap; the expectations below were
//! computed by hand and recorded from the single-heap queue respectively,
//! and must hold for any queue. Two more tests pin the whole deferral
//! stream, recorder text included, of a scenario that mixes every case and
//! of a group of ranks in lockstep.

use gnb_sim::engine::{Ctx, Engine, Program, SimReport, TimeCategory};
use gnb_sim::{CrashPlan, FaultPlan, ObsConfig, TieBreak};
use gnb_sim::{NetParams, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

fn net() -> NetParams {
    NetParams {
        ranks_per_node: 2,
        alpha_ns: 1000,
        intra_alpha_ns: 100,
        node_bw_bytes_per_sec: 1e9,
        per_msg_overhead_ns: 50,
        taper: 1.0,
    }
}

/// Warm-up compute of a server: every request arrives long before it ends.
const WARMUP: SimTime = SimTime::from_ms(1);
/// Service time of one request.
const SERVICE: SimTime = SimTime::from_us(10);

/// When a server that served `k` requests back to back goes idle.
fn drained_after(k: usize) -> SimTime {
    SimTime::from_ns(WARMUP.as_ns() + SERVICE.as_ns() * k as u64)
}

/// `(server rank, client rank)` of every request, in dispatch order.
type ServiceLog = Rc<RefCell<Vec<(usize, usize)>>>;

/// Ranks below `servers` compute for [`WARMUP`] and then serve requests at
/// [`SERVICE`] each; every other rank waits `3·rank mod 5` µs on a timer
/// and then sends one request to each server, odd clients in descending
/// server order, so the backlogs arrive shuffled and interleaved.
struct Node {
    servers: usize,
    log: ServiceLog,
}

impl Program<()> for Node {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        if ctx.rank() < self.servers {
            ctx.advance(WARMUP, TimeCategory::Compute);
        } else {
            ctx.after(SimTime::from_us(3 * ctx.rank() as u64 % 5), ());
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, src: usize, _msg: ()) {
        if ctx.rank() >= self.servers {
            // The client's timer fired.
            for i in 0..self.servers {
                let server = if ctx.rank() % 2 == 0 {
                    i
                } else {
                    self.servers - 1 - i
                };
                ctx.send(server, 64, ());
            }
            return;
        }
        assert!(ctx.now() >= WARMUP, "served while still warming up");
        self.log.borrow_mut().push((ctx.rank(), src));
        ctx.advance(SERVICE, TimeCategory::Compute);
    }

    fn on_barrier(&mut self, _ctx: &mut Ctx<'_, ()>, _id: u64) {}
}

fn run(servers: usize, clients: usize) -> (Vec<(usize, usize)>, SimReport) {
    let log = ServiceLog::default();
    let mut progs: Vec<Node> = (0..servers + clients)
        .map(|_| Node {
            servers,
            log: Rc::clone(&log),
        })
        .collect();
    let report = Engine::new(servers + clients, net()).run(&mut progs);
    let served = log.borrow().clone();
    (served, report)
}

/// One busy rank, k queued requests: all k are deferred on arrival, and
/// each service re-defers the rest — k + (k−1) + … + 1 deferrals for k
/// dispatches. This quadratic shape is why deferral must be cheap.
#[test]
fn backlog_of_k_requests_is_deferred_k_k_minus_1_and_so_on_times() {
    for k in [1usize, 2, 7, 40] {
        let (log, report) = run(1, k);
        assert_eq!(log.len(), k, "every request served once");
        assert_eq!(
            report.events,
            (1 + 3 * k) as u64,
            "starts, timers, requests"
        );
        assert_eq!(report.deferrals, (k * (k + 1) / 2) as u64, "k = {k}");
        assert_eq!(report.end_time, drained_after(k));
    }
}

/// The lockstep case: two servers share every `busy_until`, so their
/// backlogs are re-deferred to the same instants and interleave by
/// sequence number. Service order recorded from the single-heap queue of
/// the parent commit.
#[test]
fn two_ranks_in_lockstep_serve_interleaved_backlogs_in_recorded_order() {
    let (log, report) = run(2, 5);
    let recorded = [
        (1, 5),
        (0, 5),
        (0, 2),
        (1, 2),
        (0, 4),
        (1, 4),
        (0, 6),
        (1, 6),
        (1, 3),
        (0, 3),
    ];
    assert_eq!(log, recorded);
    let finish: Vec<SimTime> = report.ranks.iter().take(2).map(|r| r.finish).collect();
    assert_eq!(finish, [drained_after(5); 2], "lockstep to the end");
    // Each server: 5 on arrival, then 4 + 3 + 2 + 1.
    assert_eq!(report.deferrals, 2 * 15);
}

/// Servers of the pinned scenario below: ranks 0 and 1 serve every
/// client once, in lockstep.
const LOCKSTEP: [usize; 2] = [0, 1];
/// Serves every client three times, and after some requests arms a
/// zero-delay self-tick: a fresh event that lands exactly at its
/// `busy_until`.
const LONG: usize = 2;
/// Crashes between its second and third request and is reborn 1 µs later,
/// so re-deferring the rest of its backlog across the crash kills it.
const DOOMED: usize = 3;
/// Clients of the pinned scenario.
const CLIENTS: usize = 12;
/// Service time of a self-tick.
const TICK: SimTime = SimTime::from_us(5);

/// The pinned scenario's program: [`Node`]'s servers, plus the long
/// backlog, the self-ticks and the crash victim above.
struct Mixed {
    log: ServiceLog,
}

impl Program<()> for Mixed {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        if ctx.rank() <= DOOMED {
            ctx.advance(WARMUP, TimeCategory::Compute);
        } else {
            ctx.after(SimTime::from_us(3 * ctx.rank() as u64 % 5), ());
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, src: usize, _msg: ()) {
        let rank = ctx.rank();
        if rank > DOOMED {
            // The client's timer fired.
            let [a, b] = LOCKSTEP;
            let lockstep = if rank % 2 == 0 { [a, b] } else { [b, a] };
            for server in lockstep.into_iter().chain([LONG; 3]).chain([DOOMED]) {
                ctx.send(server, 64, ());
            }
            return;
        }
        self.log.borrow_mut().push((rank, src));
        if src == rank {
            ctx.advance(TICK, TimeCategory::Compute);
            return;
        }
        ctx.advance(SERVICE, TimeCategory::Compute);
        if rank == LONG && src.is_multiple_of(3) {
            ctx.after(SimTime::ZERO, ());
        }
    }

    fn on_barrier(&mut self, _ctx: &mut Ctx<'_, ()>, _id: u64) {}
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What [`pinned_deferral_stream_matches_recorded_constants`] pins for one
/// tie-break.
#[derive(Debug, PartialEq)]
struct Pinned {
    events: u64,
    deferrals: u64,
    end_ns: u64,
    crash_events_dropped: u64,
    served: usize,
    log_fnv: u64,
    obs_fnv: u64,
}

fn run_mixed(tb: TieBreak) -> Pinned {
    let log = ServiceLog::default();
    let nranks = DOOMED + 1 + CLIENTS;
    let mut progs: Vec<Mixed> = (0..nranks)
        .map(|_| Mixed {
            log: Rc::clone(&log),
        })
        .collect();
    let crash_at = WARMUP.as_ns() + SERVICE.as_ns() * 3 / 2;
    let plan =
        FaultPlan::new(1).with_crashes(CrashPlan::none().with_crash(DOOMED, crash_at, Some(1_000)));
    let report = Engine::new(nranks, net())
        .with_faults(plan)
        .with_obs(ObsConfig::default())
        .with_tie_break(tb)
        .run(&mut progs);
    let obs = report.obs.as_ref().expect("obs attached");
    let served = log.borrow().clone();
    Pinned {
        events: report.events,
        deferrals: report.deferrals,
        end_ns: report.end_time.as_ns(),
        crash_events_dropped: report.faults.crash_events_dropped,
        served: served.len(),
        log_fnv: fnv1a64(format!("{served:?}").as_bytes()),
        obs_fnv: fnv1a64(obs.to_text().as_bytes()),
    }
}

/// Pins the whole deferral stream of a scenario that reaches every way a
/// busy rank's backlog can be re-deferred: a long backlog on one server,
/// two lanes interleaving at one instant, a fresh event at exactly a
/// server's `busy_until`, and a deferral that a crash kills, under both
/// tie-breaks and with the recorder attached (its text carries every
/// requeue edge). The constants were recorded from the one-entry-per-pop
/// deferral path; any queue must reproduce them.
#[test]
fn pinned_deferral_stream_matches_recorded_constants() {
    let fifo = Pinned {
        events: 102,
        deferrals: 1_073,
        end_ns: 1_420_000,
        crash_events_dropped: 10,
        served: 74,
        log_fnv: 3_540_142_807_988_471_187,
        obs_fnv: 142_752_951_506_442_225,
    };
    let lifo = Pinned {
        events: 102,
        deferrals: 1_025,
        end_ns: 1_420_000,
        crash_events_dropped: 10,
        served: 74,
        log_fnv: 5_895_312_453_520_215_863,
        obs_fnv: 13_795_528_042_798_283_886,
    };
    assert_eq!(run_mixed(TieBreak::Fifo), fifo);
    assert_eq!(run_mixed(TieBreak::Lifo), lifo);
}

/// Servers of the lockstep scenario: one service cost, so after the
/// warm-up they free up at the same instants and their backlogs are
/// re-deferred, interleaved, to one shared instant after every service.
const GROUP: usize = 6;
/// The group member that, after some services, arms a zero-delay
/// self-tick: a fresh event at the group's next instant whose sequence
/// number falls between entries already deferred there and entries still
/// to come. The tick costs nothing, so the member stays in lockstep.
const TICKER: usize = 3;
/// The group member that crashes mid-instant and is reborn 1 µs later:
/// its entries deferred across the crash die, the rest of the group's do
/// not.
const VICTIM: usize = 4;
/// Clients of the lockstep scenario.
const FEEDERS: usize = 30;

/// The lockstep scenario's program: every client sends one request to
/// each of three consecutive group members, starting at its own rank mod
/// [`GROUP`], so the members' backlogs arrive round-robin and interleave
/// at every shared instant.
struct Lockstep {
    log: ServiceLog,
}

impl Program<()> for Lockstep {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        if ctx.rank() < GROUP {
            ctx.advance(WARMUP, TimeCategory::Compute);
        } else {
            ctx.after(SimTime::from_us(3 * ctx.rank() as u64 % 5), ());
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, src: usize, _msg: ()) {
        let rank = ctx.rank();
        if rank >= GROUP {
            // The client's timer fired.
            for i in 0..3 {
                ctx.send((rank + i) % GROUP, 64, ());
            }
            return;
        }
        self.log.borrow_mut().push((rank, src));
        if src == rank {
            // The self-tick: served at no cost.
            return;
        }
        ctx.advance(SERVICE, TimeCategory::Compute);
        if rank == TICKER && src.is_multiple_of(2) {
            ctx.after(SimTime::ZERO, ());
        }
    }

    fn on_barrier(&mut self, _ctx: &mut Ctx<'_, ()>, _id: u64) {}
}

fn run_lockstep(tb: TieBreak) -> Pinned {
    let log = ServiceLog::default();
    let nranks = GROUP + FEEDERS;
    let mut progs: Vec<Lockstep> = (0..nranks)
        .map(|_| Lockstep {
            log: Rc::clone(&log),
        })
        .collect();
    let crash_at = WARMUP.as_ns() + SERVICE.as_ns() * 5 / 2;
    let plan =
        FaultPlan::new(1).with_crashes(CrashPlan::none().with_crash(VICTIM, crash_at, Some(1_000)));
    let report = Engine::new(nranks, net())
        .with_faults(plan)
        .with_obs(ObsConfig::default())
        .with_tie_break(tb)
        .run(&mut progs);
    let obs = report.obs.as_ref().expect("obs attached");
    let served = log.borrow().clone();
    Pinned {
        events: report.events,
        deferrals: report.deferrals,
        end_ns: report.end_time.as_ns(),
        crash_events_dropped: report.faults.crash_events_dropped,
        served: served.len(),
        log_fnv: fnv1a64(format!("{served:?}").as_bytes()),
        obs_fnv: fnv1a64(obs.to_text().as_bytes()),
    }
}

/// Pins the deferral stream of ranks in lockstep: six servers with one
/// service cost whose round-robin backlogs share every deferral instant, a
/// fresh self-tick landing at a shared instant between two deferred
/// sequence numbers, and a crash that dooms one member's deferrals in the
/// middle of an instant, under both tie-breaks and with the recorder
/// attached. The constants were recorded from the one-entry-per-pop
/// deferral path; any queue must reproduce them.
#[test]
fn lockstep_group_deferral_stream_matches_recorded_constants() {
    let fifo = Pinned {
        events: 149,
        deferrals: 642,
        end_ns: 1_150_000,
        crash_events_dropped: 12,
        served: 83,
        log_fnv: 7_914_851_729_453_569_827,
        obs_fnv: 7_260_521_485_847_418_053,
    };
    let lifo = Pinned {
        events: 149,
        deferrals: 646,
        end_ns: 1_150_000,
        crash_events_dropped: 12,
        served: 83,
        log_fnv: 3_606_698_540_845_077_516,
        obs_fnv: 18_288_707_076_564_536_532,
    };
    assert_eq!(run_lockstep(TieBreak::Fifo), fifo);
    assert_eq!(run_lockstep(TieBreak::Lifo), lifo);
}
