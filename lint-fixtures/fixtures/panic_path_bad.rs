//! panic-path: the simulator and coordination libraries deny every panic
//! site crate-wide (unwrap, expect, panic!, unreachable!, indexing), not
//! only what the recovery hooks reach.
use std::collections::BTreeMap;

pub struct Takeover {
    pending: BTreeMap<u64, usize>,
    plan: Vec<u32>,
    shards: Vec<Vec<u32>>,
    data: Option<u32>,
}

impl Takeover {
    /// Reached from a give-up hook.
    pub fn takeover(&mut self, key: u64) -> u32 {
        let owner = self.pending.remove(&key).expect("tracked");
        self.plan[owner]
    }

    /// Reached from an adoption hook.
    pub fn on_adopt(&mut self, dead: usize) -> usize {
        self.shards[dead].len()
    }

    /// Reached from engine dispatch.
    pub fn on_message(&mut self, msg: u32) {
        if msg > 3 {
            unreachable!("no such message");
        }
        if msg == 3 {
            panic!("bad message");
        }
    }

    /// A give-up hook that bails instead of unwinding.
    pub fn on_give_up(&mut self, _key: u64) {
        unreachable!("requests are never abandoned");
    }

    /// Reached by nothing at all: still denied.
    pub fn unrelated(&mut self) -> u32 {
        self.data.unwrap()
    }

    pub fn head(&self) -> &[u32] {
        &self.plan[..2]
    }
}
