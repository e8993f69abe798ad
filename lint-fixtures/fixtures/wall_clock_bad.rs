//! wall-clock: `Instant` and `SystemTime` read the host clock; simulated
//! and accounting code runs on virtual time.
use std::time::Instant;

pub fn measure() -> u128 {
    let t0 = Instant::now();
    let wall = std::time::SystemTime::now();
    let _ = wall;
    t0.elapsed().as_nanos()
}
