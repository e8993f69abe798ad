//! Explicit seeding is deterministic and passes.
use rand::{rngs::StdRng, Rng, SeedableRng};

pub fn jitter(seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    rng.gen::<f64>()
}
