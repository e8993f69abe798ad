//! Configuration arrives as data, not ambient process state. `env!` is a
//! compile-time constant, and a module of our own named `env` is not
//! `std::env`.
pub struct Opts {
    pub knob: Option<String>,
}

pub fn configured(opts: &Opts) -> Option<&str> {
    opts.knob.as_deref()
}

pub fn manifest_dir() -> &'static str {
    env!("CARGO_MANIFEST_DIR")
}

pub mod my {
    pub mod env {
        pub fn thing() -> u32 {
            7
        }
    }
}

pub fn own_env() -> u32 {
    my::env::thing()
}
