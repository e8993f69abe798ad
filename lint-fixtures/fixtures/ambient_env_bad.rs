//! ambient-env: `std::env` makes behaviour depend on invisible process
//! state.
pub fn configured() -> Option<String> {
    std::env::var("GNB_SECRET_KNOB").ok()
}

pub fn arguments() -> Vec<String> {
    use std::env;
    env::args().collect()
}

pub fn reconfigure() {
    std::env::remove_var("GNB_SECRET_KNOB");
}
