//! Network model: α–β costs with per-node NIC serialisation and a global
//! bandwidth taper.
//!
//! Cori's Aries dragonfly gives low latency (~1–2 µs) and high per-node
//! injection bandwidth (~8–10 GB/s), but a KNL node runs 64 application
//! ranks over **one** NIC — per-rank effective bandwidth is the node's
//! divided by however many ranks are injecting. The model captures this by
//! serialising message bodies through per-node TX/RX channels. Global
//! (inter-group) traffic additionally pays a dragonfly bisection taper.
//!
//! Every quantity is a parameter; the defaults are Aries-class and are the
//! ones used for all experiments (documented in EXPERIMENTS.md).

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Network and machine-topology parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetParams {
    /// Ranks (application cores) per node sharing a NIC.
    pub ranks_per_node: usize,
    /// One-way inter-node wire latency.
    pub alpha_ns: u64,
    /// Intra-node (shared-memory) message latency.
    pub intra_alpha_ns: u64,
    /// Per-node NIC injection/ejection bandwidth, bytes per second.
    pub node_bw_bytes_per_sec: f64,
    /// Fixed per-message NIC occupancy (header/DMA setup), ns.
    pub per_msg_overhead_ns: u64,
    /// Global-traffic bandwidth taper (0–1]; dragonfly bisection factor.
    pub taper: f64,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            ranks_per_node: 64,
            alpha_ns: 1_500,
            intra_alpha_ns: 400,
            node_bw_bytes_per_sec: 8.0e9,
            per_msg_overhead_ns: 500,
            taper: 0.7,
        }
    }
}

impl NetParams {
    /// Node index of a rank.
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_node
    }

    /// Serialisation time of `bytes` through a node NIC (tapered).
    pub fn wire_time(&self, bytes: u64) -> SimTime {
        let secs = bytes as f64 / (self.node_bw_bytes_per_sec * self.taper);
        SimTime::from_secs_f64(secs) + SimTime::from_ns(self.per_msg_overhead_ns)
    }

    /// Effective per-rank bandwidth when all ranks of a node inject at
    /// once (bytes/sec) — the quantity that throttles bulk exchanges.
    pub fn per_rank_bw(&self) -> f64 {
        self.node_bw_bytes_per_sec * self.taper / self.ranks_per_node as f64
    }
}

/// Mutable network state: per-node NIC channel availability.
#[derive(Debug, Clone)]
pub struct Network {
    /// Parameters.
    pub params: NetParams,
    tx_free: Vec<SimTime>,
    rx_free: Vec<SimTime>,
}

impl Network {
    /// Creates the network for `nranks` ranks.
    pub fn new(params: NetParams, nranks: usize) -> Network {
        assert!(params.ranks_per_node >= 1);
        assert!(params.taper > 0.0 && params.taper <= 1.0);
        let nodes = nranks.div_ceil(params.ranks_per_node);
        Network {
            params,
            tx_free: vec![SimTime::ZERO; nodes.max(1)],
            rx_free: vec![SimTime::ZERO; nodes.max(1)],
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.tx_free.len()
    }

    /// Reserves only source-side NIC time for a message that will never
    /// arrive (a wire loss injected by a fault plan): the sender pays
    /// injection as usual, the destination NIC is untouched. Returns when
    /// the doomed message left the source NIC. Intra-node messages occupy
    /// no NIC and return immediately.
    pub fn tx_time(&mut self, now: SimTime, src: usize, dst: usize, bytes: u64) -> SimTime {
        let p = self.params;
        let (sn, dn) = (p.node_of(src), p.node_of(dst));
        if sn == dn {
            return now + SimTime::from_ns(p.intra_alpha_ns);
        }
        let tx_start = self.tx_free[sn].max(now);
        let tx_end = tx_start + p.wire_time(bytes);
        self.tx_free[sn] = tx_end;
        tx_end
    }

    /// Computes the arrival time of a message sent at `now` from `src` to
    /// `dst` with `bytes` of payload, reserving NIC channel time.
    ///
    /// Must be called with non-decreasing `now` across calls (the engine
    /// guarantees this by executing handlers in virtual-time order).
    pub fn delivery_time(&mut self, now: SimTime, src: usize, dst: usize, bytes: u64) -> SimTime {
        let p = self.params;
        let (sn, dn) = (p.node_of(src), p.node_of(dst));
        if sn == dn {
            // Shared memory / on-node loopback: no NIC involvement.
            return now + SimTime::from_ns(p.intra_alpha_ns);
        }
        let occupancy = p.wire_time(bytes);
        // TX: wait for the source NIC, occupy it for the body.
        let tx_start = self.tx_free[sn].max(now);
        let tx_end = tx_start + occupancy;
        self.tx_free[sn] = tx_end;
        // Wire latency.
        let at_dst = tx_end + SimTime::from_ns(p.alpha_ns);
        // RX: wait for the destination NIC, occupy it for the body.
        let rx_start = self.rx_free[dn].max(at_dst);
        let rx_end = rx_start + occupancy;
        self.rx_free[dn] = rx_end;
        rx_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(ranks_per_node: usize) -> Network {
        let params = NetParams {
            ranks_per_node,
            alpha_ns: 1000,
            intra_alpha_ns: 100,
            node_bw_bytes_per_sec: 1e9, // 1 GB/s -> 1 byte/ns
            per_msg_overhead_ns: 50,
            taper: 1.0,
        };
        Network::new(params, ranks_per_node * 4)
    }

    #[test]
    fn intra_node_is_cheap() {
        let mut n = net(4);
        let t = n.delivery_time(SimTime::ZERO, 0, 3, 1_000_000);
        assert_eq!(t.as_ns(), 100, "same node: only intra alpha");
    }

    #[test]
    fn inter_node_pays_alpha_and_bandwidth() {
        let mut n = net(4);
        // 1000 bytes at 1 byte/ns + 50ns overhead, twice (tx + rx) + alpha.
        let t = n.delivery_time(SimTime::ZERO, 0, 4, 1000);
        assert_eq!(t.as_ns(), 1050 + 1000 + 1050);
    }

    #[test]
    fn nic_serialises_concurrent_senders() {
        let mut n = net(4);
        // Two ranks on node 0 send big messages at t=0: second waits.
        let t1 = n.delivery_time(SimTime::ZERO, 0, 4, 10_000);
        let t2 = n.delivery_time(SimTime::ZERO, 1, 8, 10_000);
        assert!(t2 > t1, "second message serialised behind the first");
        // TX occupancy of msg1 = 10050ns, so msg2 tx starts there.
        assert_eq!(t2.as_ns(), 10_050 + 10_050 + 1000 + 10_050);
    }

    #[test]
    fn rx_contention_at_target() {
        let mut n = net(4);
        // Different source nodes, same destination node: RX serialises.
        let t1 = n.delivery_time(SimTime::ZERO, 4, 0, 10_000);
        let t2 = n.delivery_time(SimTime::ZERO, 8, 1, 10_000);
        assert_eq!(t1.as_ns(), 10_050 + 1000 + 10_050);
        assert_eq!(t2.as_ns(), 10_050 + 1000 + 10_050 + 10_050);
    }

    #[test]
    fn tx_time_occupies_only_source_nic() {
        let mut n = net(4);
        // A doomed message reserves the source NIC…
        let left = n.tx_time(SimTime::ZERO, 0, 4, 10_000);
        assert_eq!(left.as_ns(), 10_050);
        // …so a later real send from the same node queues behind it…
        let t = n.delivery_time(SimTime::ZERO, 1, 8, 10_000);
        assert_eq!(t.as_ns(), 10_050 + 10_050 + 1000 + 10_050);
        // …but the destination NIC of the doomed message was untouched.
        let rx = n.delivery_time(SimTime::ZERO, 8, 4, 100);
        assert_eq!(rx.as_ns(), 150 + 1000 + 150);
    }

    #[test]
    fn tx_time_intra_node_is_free() {
        let mut n = net(4);
        let left = n.tx_time(SimTime::from_ns(5), 0, 1, 1_000_000);
        assert_eq!(left.as_ns(), 5 + 100);
        // NIC untouched.
        let t = n.delivery_time(SimTime::ZERO, 0, 4, 1000);
        assert_eq!(t.as_ns(), 1050 + 1000 + 1050);
    }

    #[test]
    fn taper_reduces_bandwidth() {
        let mut full = net(4);
        let mut tapered = {
            let mut p = full.params;
            p.taper = 0.5;
            Network::new(p, 16)
        };
        let a = full.delivery_time(SimTime::ZERO, 0, 4, 100_000);
        let b = tapered.delivery_time(SimTime::ZERO, 0, 4, 100_000);
        assert!(b > a);
    }

    #[test]
    fn per_rank_bw_division() {
        let p = NetParams {
            ranks_per_node: 64,
            taper: 1.0,
            node_bw_bytes_per_sec: 6.4e9,
            ..NetParams::default()
        };
        assert!((p.per_rank_bw() - 1e8).abs() < 1.0);
    }

    #[test]
    fn node_mapping() {
        let p = NetParams {
            ranks_per_node: 64,
            ..NetParams::default()
        };
        assert_eq!(p.node_of(0), 0);
        assert_eq!(p.node_of(63), 0);
        assert_eq!(p.node_of(64), 1);
    }
}
