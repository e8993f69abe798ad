//! A strategy that issues tracked requests handles replies and give-ups
//! both: an abandoned request unwinds its in-flight count. (One that
//! issues none declares uninhabited payloads and answers
//! `match payload {}`, as `gnb_core::bsp::BspStrategy` does.)
use gnb_core::runtime::{CoordinationStrategy, RtCtx, Snapshot};
use std::convert::Infallible;

type Ctx<'c, 'e> = RtCtx<'c, 'e, Infallible, u32, ()>;

pub struct Broken {
    in_flight: usize,
}

impl CoordinationStrategy for Broken {
    type App = Infallible;
    type Req = u32;
    type Rep = ();

    fn on_start(&mut self, rt: &mut Ctx<'_, '_>) {
        self.in_flight += 1;
        rt.send_tracked(1, 0, 64, 7);
    }

    fn on_app(&mut self, _rt: &mut Ctx<'_, '_>, _src: usize, msg: Infallible) {
        match msg {}
    }

    fn on_request(&mut self, rt: &mut Ctx<'_, '_>, src: usize, key: u64, attempt: u32, _p: u32) {
        rt.serve_reply(src, key, attempt, 64, 1, ());
    }

    fn on_reply(&mut self, _rt: &mut Ctx<'_, '_>, _key: u64, _p: ()) {
        self.in_flight -= 1;
    }

    fn on_give_up(&mut self, _rt: &mut Ctx<'_, '_>, _key: u64, _p: u32) {
        self.in_flight -= 1;
    }

    fn on_adopt(&mut self, _rt: &mut Ctx<'_, '_>, _dead: usize, _ckpt: Option<Snapshot>) {}

    fn on_barrier(&mut self, _rt: &mut Ctx<'_, '_>, _id: u64) {}

    fn tasks_done(&self) -> u64 {
        0
    }

    fn checksum(&self) -> u64 {
        0
    }
}
