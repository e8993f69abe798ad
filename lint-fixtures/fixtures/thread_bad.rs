//! thread-primitives: shared-state concurrency makes effect order
//! scheduler-dependent.
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex, RwLock};

pub fn racy(m: &Mutex<u64>, l: &RwLock<u64>) -> u64 {
    let c = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<u64>();
    std::thread::scope(|s| s.spawn(|| c.fetch_add(1, Ordering::Relaxed)).join().is_ok());
    let sent = std::thread::spawn(move || tx.send(1).is_ok()).join();
    let locked = m.try_lock().map_or(0, |g| *g) + l.try_read().map_or(0, |g| *g);
    locked + c.load(Ordering::Relaxed) + rx.recv().unwrap_or(0) + u64::from(sent.is_ok())
}
