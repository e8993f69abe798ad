//! ambient-rng: the vendored `rand` has no OS entropy source, so every
//! way to reach one is a compile error (E0425 / E0599).
pub fn jitter() -> f64 {
    let mut rng = rand::thread_rng();
    let seeded_from_os = rand::rngs::StdRng::from_entropy();
    let _ = seeded_from_os;
    let x: f64 = rand::random();
    let _ = &mut rng;
    x
}
