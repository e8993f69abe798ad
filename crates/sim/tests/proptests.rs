//! Property-based tests of the DES engine: message conservation, barrier
//! correctness, virtual-time monotonicity, and determinism under random
//! SPMD programs. The event queue's single-heap model test lives beside
//! the queue (`event.rs`), because it drives a crate-internal entry point.

use gnb_sim::engine::{Ctx, Program, TimeCategory};
use gnb_sim::{Engine, NetParams, SimTime};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Msg {
    Token { hops_left: u32 },
}

/// Forwards a token around the ring a random number of hops, then
/// barriers.
struct RingProg {
    sends: Vec<(usize, u32)>, // (initial target, hops) for this rank
    received: u64,
    forwarded: u64,
    last_event: SimTime,
    monotone: bool,
    compute_ns: u64,
}

impl RingProg {
    fn check_time(&mut self, now: SimTime) {
        if now < self.last_event {
            self.monotone = false;
        }
        self.last_event = now;
    }
}

impl Program<Msg> for RingProg {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.check_time(ctx.now());
        if self.compute_ns > 0 {
            ctx.advance(SimTime::from_ns(self.compute_ns), TimeCategory::Compute);
        }
        for &(dst, hops) in &self.sends.clone() {
            ctx.send(dst, 64, Msg::Token { hops_left: hops });
        }
        ctx.barrier_enter(0);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _src: usize, msg: Msg) {
        self.check_time(ctx.now());
        let Msg::Token { hops_left } = msg;
        self.received += 1;
        if hops_left > 0 {
            let next = (ctx.rank() + 1) % ctx.nranks();
            ctx.send(
                next,
                64,
                Msg::Token {
                    hops_left: hops_left - 1,
                },
            );
            self.forwarded += 1;
        }
    }

    fn on_barrier(&mut self, ctx: &mut Ctx<'_, Msg>, _id: u64) {
        self.check_time(ctx.now());
        ctx.classify_idle(TimeCategory::Sync);
    }
}

fn net() -> NetParams {
    NetParams {
        ranks_per_node: 4,
        alpha_ns: 900,
        intra_alpha_ns: 120,
        node_bw_bytes_per_sec: 2e9,
        per_msg_overhead_ns: 80,
        taper: 0.9,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// Every injected token is received exactly (hops + 1) times across
    /// the machine; per-rank handler times are monotone; the run is
    /// deterministic.
    #[test]
    fn tokens_conserved_and_deterministic(
        nranks in 1usize..12,
        seeds in proptest::collection::vec((0usize..12, 0u32..6, 0u64..5000), 0..10)
    ) {
        let build = || -> Vec<RingProg> {
            (0..nranks)
                .map(|r| RingProg {
                    sends: seeds
                        .iter()
                        .filter(|(dst, _, _)| dst % nranks == r % nranks)
                        .map(|&(dst, hops, _)| ((dst * 7 + 3) % nranks, hops))
                        .collect(),
                    received: 0,
                    forwarded: 0,
                    last_event: SimTime::ZERO,
                    monotone: true,
                    compute_ns: seeds.iter().map(|&(_, _, c)| c).sum::<u64>() % 3000,
                })
                .collect()
        };
        let mut progs = build();
        let report = Engine::new(nranks, net()).run(&mut progs);

        let injected: u64 = progs.iter().map(|p| p.sends.len() as u64).sum();
        let expected_receives: u64 = progs
            .iter()
            .flat_map(|p| p.sends.iter().map(|&(_, hops)| hops as u64 + 1))
            .sum();
        let received: u64 = progs.iter().map(|p| p.received).sum();
        let forwarded: u64 = progs.iter().map(|p| p.forwarded).sum();
        prop_assert_eq!(received, expected_receives);
        prop_assert_eq!(forwarded, received - injected);
        prop_assert!(progs.iter().all(|p| p.monotone), "per-rank time must be monotone");

        // Determinism: a second run is bit-identical.
        let mut progs2 = build();
        let report2 = Engine::new(nranks, net()).run(&mut progs2);
        prop_assert_eq!(report, report2);
    }

    /// Barrier release time is never before any rank's entry, and all
    /// ranks see the same release time.
    #[test]
    fn barrier_release_consistent(nranks in 1usize..16, computes in proptest::collection::vec(0u64..100_000, 16)) {
        struct BarProg {
            compute_ns: u64,
            entered: SimTime,
            released: SimTime,
        }
        impl Program<Msg> for BarProg {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.advance(SimTime::from_ns(self.compute_ns), TimeCategory::Compute);
                self.entered = ctx.now();
                ctx.barrier_enter(7);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: usize, _: Msg) {}
            fn on_barrier(&mut self, ctx: &mut Ctx<'_, Msg>, id: u64) {
                assert_eq!(id, 7);
                self.released = ctx.now();
            }
        }
        let mut progs: Vec<BarProg> = (0..nranks)
            .map(|r| BarProg {
                compute_ns: computes[r % computes.len()],
                entered: SimTime::ZERO,
                released: SimTime::ZERO,
            })
            .collect();
        let _ = Engine::new(nranks, net()).run(&mut progs);
        let release = progs[0].released;
        let max_entry = progs.iter().map(|p| p.entered).max().unwrap();
        for p in &progs {
            prop_assert_eq!(p.released, release);
            prop_assert!(p.released >= max_entry);
        }
    }

    /// Network delivery: inter-node messages always arrive at least
    /// alpha + overhead later; NIC reservations never go backwards.
    #[test]
    fn network_monotone(sends in proptest::collection::vec((0usize..16, 0usize..16, 1u64..100_000), 1..50)) {
        let mut network = gnb_sim::Network::new(net(), 16);
        let mut now = SimTime::ZERO;
        for (src, dst, bytes) in sends {
            now += SimTime::from_ns(10);
            let arrival = network.delivery_time(now, src, dst, bytes);
            prop_assert!(arrival > now);
            let p = net();
            if p.node_of(src) != p.node_of(dst) {
                prop_assert!(arrival.as_ns() >= now.as_ns() + p.alpha_ns + 2 * p.per_msg_overhead_ns);
            } else {
                prop_assert_eq!(arrival.as_ns(), now.as_ns() + p.intra_alpha_ns);
            }
        }
    }
}
