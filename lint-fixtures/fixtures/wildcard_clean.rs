//! Every variant named: rustc proves the match exhaustive, so a new
//! variant is a compile error until it has an arm. Re-arming a timer
//! inside its own arm is fine.
pub enum SApp {
    Poll,
    Ckpt,
    Flush(u32),
}

pub fn on_app(msg: SApp, rearm: &mut Vec<SApp>) -> u32 {
    match msg {
        SApp::Poll => {
            rearm.push(SApp::Poll);
            1
        }
        SApp::Ckpt => 2,
        SApp::Flush(n) => n,
    }
}
