//! The default observability capacities hold a whole fault-free run: a
//! recording whose dispatch nodes fit `max_nodes` is not truncated by its
//! metric series, which gain up to two samples per message.

use gnb_sim::engine::{Ctx, Engine, Program};
use gnb_sim::{MetricId, NetParams, Obs, ObsConfig};

/// Messages bounced between the two ranks, one dispatch each: more than
/// the 65,536 samples a series used to hold.
const HOPS: u64 = 70_000;

/// Passes a hop counter back and forth until it reaches [`HOPS`].
struct Relay;

impl Program<u64> for Relay {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        if ctx.rank() == 0 {
            ctx.send(1, 8, 1);
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, src: usize, hop: u64) {
        if hop < HOPS {
            ctx.send(src, 8, hop + 1);
        }
    }
    fn on_barrier(&mut self, _ctx: &mut Ctx<'_, u64>, _id: u64) {}
}

#[test]
fn long_fault_free_recording_is_not_truncated() {
    let net = NetParams {
        ranks_per_node: 1,
        alpha_ns: 1000,
        intra_alpha_ns: 100,
        node_bw_bytes_per_sec: 1e9,
        per_msg_overhead_ns: 50,
        taper: 1.0,
    };
    let report = Engine::new(2, net)
        .with_obs(ObsConfig::default())
        .run(&mut [Relay, Relay]);
    let obs = report.obs.expect("obs attached");
    assert!(obs.nodes.len() as u64 > HOPS);
    assert!(
        !obs.is_truncated(),
        "dropped {} samples",
        obs.dropped_samples()
    );
    let depth = obs.get_series(MetricId::QueueDepth, u32::MAX).unwrap();
    assert!(depth.samples.len() > 1 << 16);
    assert_eq!(Obs::from_text(&obs.to_text()).as_ref(), Ok(&obs));
}
