//! Checked access passes; a site whose invariant cannot be a type carries
//! a statement-level `#[expect]` with the invariant as its reason; test
//! code may panic (clippy.toml's allow-*-in-tests).
use std::collections::BTreeMap;

pub struct Takeover {
    pending: BTreeMap<u64, usize>,
    plan: Vec<u32>,
}

impl Takeover {
    pub fn takeover(&mut self, key: u64) -> Option<u32> {
        let owner = self.pending.remove(&key)?;
        self.plan.get(owner).copied()
    }

    pub fn first(&self) -> u32 {
        #[expect(clippy::indexing_slicing, reason = "fixture: plan is never empty")]
        let first = self.plan[0];
        first
    }

    pub fn on_give_up(&mut self, key: u64) {
        #[expect(
            clippy::unreachable,
            reason = "fixture: a degrade-only strategy abandons nothing"
        )]
        if key == u64::MAX {
            unreachable!("degrade");
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_panic() {
        let v: Vec<u32> = (1..3).collect();
        assert_eq!(v[1], 2);
        let o = v.first().copied();
        assert_eq!(o.unwrap(), 1);
        assert_eq!(o.expect("some"), 1);
        if v.len() > 2 {
            panic!("test-only");
        }
    }
}
