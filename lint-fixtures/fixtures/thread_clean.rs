//! Shared immutable data is deterministic; a variable named `thread` and
//! a string mentioning `Mutex` are not primitives.
use std::sync::Arc;

pub struct BarrierState {
    pub entered: usize,
}

pub fn shared() -> u64 {
    let a = Arc::new(1u64);
    let b = BarrierState { entered: 2 };
    let thread = 3u64;
    let _s = "Mutex poisoning";
    *a + b.entered as u64 + thread
}
