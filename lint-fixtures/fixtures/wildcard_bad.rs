//! protocol-contract: a wildcard arm silently discards every variant
//! added later.
pub enum SApp {
    Poll,
    Ckpt,
    Flush(u32),
}

pub fn on_app(msg: SApp) -> u32 {
    match msg {
        SApp::Poll => 1,
        _ => 0,
    }
}
