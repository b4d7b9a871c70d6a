//! The benchmark's one wall clock. Every host-time metric is read here;
//! nothing read from this clock reaches the simulation or its inputs.

use std::sync::OnceLock;
use std::time::Instant; // lc-lint: allow(D1) -- wall-clock host-time metrics of the benchmark

static EPOCH: OnceLock<Instant> = OnceLock::new(); // lc-lint: allow(D1) -- wall-clock epoch of the host-time metrics

/// Host nanoseconds since the first call.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64 // lc-lint: allow(D1) -- wall-clock host-time read
}

/// Host nanoseconds spent in `f`, and its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let t0 = now_ns();
    let r = f();
    (now_ns() - t0, r)
}
