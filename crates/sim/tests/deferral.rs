//! Busy-rank deferral through the public engine API: how many times a
//! backlog is re-deferred (`SimReport::deferrals`), and the order in which
//! two ranks that free up at the same instant serve interleaved backlogs.
//!
//! Both are properties of the simulated timeline. The event queue keeps
//! deferred events in per-destination lanes instead of its main heap; the
//! expectations below were computed by hand and recorded from the
//! single-heap queue respectively, and must hold for any queue.

use gnb_sim::engine::{Ctx, Engine, Program, SimReport, TimeCategory};
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
