//! An estimate of the core clock, so that work can be counted in cycles.
//!
//! A shared host's core clock follows the host's load (turbo): over
//! minutes it drifts by 15 % or more, and every wall-clock figure drifts
//! with it, whatever the code does. Before each slice the benchmark times
//! a chain of dependent xor-multiply steps (the FNV-1a loop of
//! `stats::fnv`). Each step waits on the one before, so a byte costs a
//! fixed number of cycles: the 64-bit multiply's latency (3 cycles on
//! current x86-64 cores) plus one for the xor. A chain that waits on its
//! own result uses almost none of the core's shared caches and ports, so
//! neighbours contending for those barely slow it: it reads the clock,
//! not the contention.

use crate::stats::{fnv, median, FNV_BASIS};
use std::hint::black_box;
use std::time::Instant;

/// Cycles per byte of the FNV-1a chain: multiply latency 3, xor 1.
const CHAIN_CYCLES_PER_BYTE: f64 = 4.0;
/// Bytes per timed chain (about 13 µs at 2.5 GHz).
const CHAIN_BYTES: usize = 8192;
/// Chains per sample. The fastest one counts: an interrupt or a
/// preemption can only make a chain slower.
const CHAINS: usize = 4;
/// The estimate is the median of this many recent samples.
const WINDOW: usize = 9;

/// A running core-clock estimate.
#[derive(Debug)]
pub struct CoreClock {
    buf: Vec<u8>,
    recent: [f64; WINDOW],
    taken: usize,
}

impl CoreClock {
    /// A clock with no samples yet.
    pub fn new() -> Self {
        CoreClock {
            buf: (0..CHAIN_BYTES).map(|i| i as u8).collect(),
            recent: [0.0; WINDOW],
            taken: 0,
        }
    }

    /// Take a sample and return the estimate, GHz: the median of the
    /// last `WINDOW` samples (fewer at the start).
    pub fn ghz(&mut self) -> f64 {
        let mut best = u64::MAX;
        for _ in 0..CHAINS {
            let t = Instant::now();
            black_box(fnv(FNV_BASIS, black_box(&self.buf)));
            best = best.min(t.elapsed().as_nanos() as u64);
        }
        self.recent[self.taken % WINDOW] =
            CHAIN_CYCLES_PER_BYTE * CHAIN_BYTES as f64 / best.max(1) as f64;
        self.taken += 1;
        median(&self.recent[..self.taken.min(WINDOW)]).expect("at least one sample")
    }
}
