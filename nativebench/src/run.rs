//! The interleaved slice schedule shared by every workload, and what a
//! run collects per path.

use crate::clock::CoreClock;
use crate::ledger::{KernelStats, Ledger, Tally, NB};
use crate::stats::FNV_BASIS;
use std::time::{Duration, Instant};

/// Path index of the fused ILP stack.
pub const ILP: usize = 0;
/// Path index of the pass-per-layer stack.
pub const NON_ILP: usize = 1;
/// Ops per latency block: enough that at least 10 lie beyond its p99.
pub const BLOCK_OPS: usize = 1024;
/// Path names, in index order (the metric prefixes).
pub const PATHS: [&str; 2] = ["ilp", "non_ilp"];

/// Nanoseconds on a monotonic clock with a fixed origin.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        Clock(Instant::now())
    }

    /// Nanoseconds since the origin.
    #[inline]
    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// What one slice did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slice {
    /// Timed wall time (verification excluded).
    pub ns: u64,
    /// Ops attempted.
    pub ops: u64,
    /// Verified payload bytes delivered.
    pub bytes: u64,
    /// Ops not delivered byte-exact or not complete at the deadline.
    pub failed: u64,
    /// Counts the workload loop itself kept (ticks, waves, step time).
    pub counts: Counts,
    /// The world stalled and cannot run another slice.
    pub stalled: bool,
}

/// Layer counts summed over a path's measured traced slices.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Data segments the sender transmitted, retransmissions included.
    pub data_sent: u64,
    /// ACKs the sender processed.
    pub acks_recvd: u64,
    /// Retransmissions (RTO and fast).
    pub retransmits: u64,
    /// Fast retransmissions.
    pub fast_retransmits: u64,
    /// Segments the receiver rejected.
    pub rejected: u64,
    /// Segments the receiver accepted.
    pub accepted: u64,
    /// Sender `tick` calls made by the benchmark loop.
    pub ticks: u64,
    /// Socket receive polls that found nothing (`EWOULDBLOCK`).
    pub would_block: u64,
    /// What the timing kernel-part wrapper saw.
    pub kernel: KernelStats,
    /// Sessions served (harness workloads).
    pub sessions: u64,
    /// Waves run (harness workloads).
    pub waves: u64,
    /// `step` calls.
    pub steps: u64,
    /// Wall time inside `step`.
    pub step_ns: u64,
    /// Wall time inside `drain_to_closed`.
    pub drain_ns: u64,
    /// Wall time inside `reopen_wave`.
    pub reopen_ns: u64,
    /// Rounds `drain_to_closed` took.
    pub drain_rounds: u64,
}

impl Counts {
    /// Add what the workload loop counted in one slice.
    pub fn add(&mut self, o: &Counts) {
        self.ticks += o.ticks;
        self.sessions += o.sessions;
        self.waves += o.waves;
        self.steps += o.steps;
        self.step_ns += o.step_ns;
        self.drain_ns += o.drain_ns;
        self.reopen_ns += o.reopen_ns;
        self.drain_rounds += o.drain_rounds;
    }

    /// Add the stack-counter growth from `before` to `after`.
    pub fn add_delta(&mut self, before: &Counts, after: &Counts) {
        self.data_sent += after.data_sent - before.data_sent;
        self.acks_recvd += after.acks_recvd - before.acks_recvd;
        self.retransmits += after.retransmits - before.retransmits;
        self.fast_retransmits += after.fast_retransmits - before.fast_retransmits;
        self.rejected += after.rejected - before.rejected;
        self.accepted += after.accepted - before.accepted;
        self.would_block += after.would_block - before.would_block;
    }
}

/// Everything a run collected for one path.
#[derive(Debug, Clone)]
pub struct PathRun {
    /// Goodput of each measured untraced slice, Mbit/s.
    pub goodput: Vec<f64>,
    /// Core cycles per payload byte of each measured untraced slice.
    pub cycles_per_byte: Vec<f64>,
    /// p50 and p99 op latency of each block of measured untraced ops,
    /// core cycles.
    pub block_p50: Vec<f64>,
    pub block_p99: Vec<f64>,
    /// Op latencies of the block in progress, core cycles.
    block: Vec<u64>,
    /// Core clock estimate for the slice in progress, GHz.
    ghz: f64,
    /// Goodput of each measured traced slice, Mbit/s.
    pub traced_goodput: Vec<f64>,
    /// Wall time, ops and payload bytes of measured traced slices.
    pub traced_ns: u64,
    pub traced_ops: u64,
    pub traced_bytes: u64,
    /// Ledger nanoseconds of measured traced slices, per bucket.
    pub ledger: [u64; NB],
    /// Layer counts of measured traced slices.
    pub counts: Counts,
    /// Digest of every verified delivered byte, in delivery order.
    pub digest: u64,
}

impl PathRun {
    fn new() -> Self {
        PathRun {
            goodput: Vec::new(),
            cycles_per_byte: Vec::new(),
            block_p50: Vec::new(),
            block_p99: Vec::new(),
            block: Vec::with_capacity(2 * BLOCK_OPS),
            ghz: 0.0,
            traced_goodput: Vec::new(),
            traced_ns: 0,
            traced_ops: 0,
            traced_bytes: 0,
            ledger: [0; NB],
            counts: Counts::default(),
            digest: FNV_BASIS,
        }
    }

    /// Record the latency of one measured untraced op, in core cycles.
    pub fn record(&mut self, ns: u64) {
        self.block.push((ns as f64 * self.ghz).round() as u64);
    }

    /// At a slice boundary, close the block once it holds `BLOCK_OPS`.
    fn end_slice(&mut self) {
        let n = self.block.len();
        if n >= BLOCK_OPS {
            // Nearest rank: ceil(q·n), 1-based.
            let mut at = |q: f64| {
                let rank = (q * n as f64).ceil() as usize;
                *self.block.select_nth_unstable(rank - 1).1 as f64
            };
            let (p50, p99) = (at(0.5), at(0.99));
            self.block_p50.push(p50);
            self.block_p99.push(p99);
            self.block.clear();
        }
    }
}

/// A whole run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Wall time of each set-up, s.
    pub setup_s: Vec<f64>,
    /// Per path, in index order.
    pub paths: [PathRun; 2],
    /// Ops attempted and failed over both paths, warm-up included.
    pub attempted: u64,
    pub failed: u64,
    /// ILP / non-ILP goodput of each measured round's untraced pair.
    pub speedup: Vec<f64>,
    /// Core clock estimate taken before each measured slice, GHz.
    pub clock_ghz: Vec<f64>,
    /// Peak resident memory once set-up and the warm-up round are done,
    /// KiB, and the ops attempted by then.
    pub warm_kib: f64,
    pub warm_ops: u64,
    /// A slice stalled and ended the run early.
    pub stalled: bool,
}

/// Peak resident set of this process so far (`VmHWM`), KiB.
pub fn vm_hwm_kib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Options a run passes down to a workload.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed.
    pub seed: u64,
    /// Measurement time, s.
    pub seconds: u64,
    /// Traced run.
    pub trace: bool,
    /// Set-ups timed for `setup_s`.
    pub setup_reps: usize,
    /// Flip one delivered byte in the first measured ILP slice.
    pub corrupt: bool,
}

/// What a slice is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct SliceReq {
    /// Which stack.
    pub path: usize,
    /// Run with the timing observer and kernel wrapper on.
    pub traced: bool,
    /// Counted in the results (false in the warm-up round).
    pub measured: bool,
}

fn mbps(bytes: u64, ns: u64) -> f64 {
    bytes as f64 * 8e3 / ns.max(1) as f64
}

/// Run slices in rounds until `seconds` have passed (and at least one
/// round after the warm-up round). A round is one untraced slice per
/// path, plus one traced slice per path when `trace` is set; the order
/// within a round rotates so neither path always runs first. The core
/// clock is sampled, untimed, before every slice.
pub fn interleave(
    seconds: u64,
    trace: bool,
    setup_s: Vec<f64>,
    mut slice: impl FnMut(SliceReq, &mut PathRun) -> Slice,
) -> Run {
    let mut order = vec![(ILP, false), (NON_ILP, false)];
    if trace {
        order.extend([(ILP, true), (NON_ILP, true)]);
    }
    let mut run = Run {
        setup_s,
        paths: [PathRun::new(), PathRun::new()],
        attempted: 0,
        failed: 0,
        speedup: Vec::new(),
        clock_ghz: Vec::new(),
        warm_kib: f64::NAN,
        warm_ops: 0,
        stalled: false,
    };
    let mut core = CoreClock::new();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut round = 0usize;
    while round < 2 || start.elapsed() < budget {
        let measured = round > 0;
        let mut untraced = [0.0; 2];
        for k in 0..order.len() {
            let (path, traced) = order[(k + round) % order.len()];
            let ghz = core.ghz();
            let pr = &mut run.paths[path];
            pr.ghz = ghz;
            let s = slice(SliceReq { path, traced, measured }, pr);
            pr.end_slice();
            run.attempted += s.ops;
            run.failed += s.failed;
            if measured {
                let g = mbps(s.bytes, s.ns);
                if traced {
                    pr.traced_goodput.push(g);
                    pr.traced_ns += s.ns;
                    pr.traced_ops += s.ops;
                    pr.traced_bytes += s.bytes;
                } else {
                    pr.goodput.push(g);
                    pr.cycles_per_byte.push(s.ns as f64 * ghz / s.bytes.max(1) as f64);
                    untraced[path] = g;
                }
                run.clock_ghz.push(ghz);
            }
            if s.stalled {
                run.stalled = true;
                return run;
            }
        }
        if measured {
            run.speedup.push(untraced[ILP] / untraced[NON_ILP]);
        } else {
            run.warm_kib = vm_hwm_kib().unwrap_or(f64::NAN);
            run.warm_ops = run.attempted;
        }
        round += 1;
    }
    run
}

/// Run one traced slice of `w`: the kernel wrapper times calls only
/// inside it. When the slice is measured, fold into `pr` the ledger,
/// the wrapper's counts, the loop's own counts and the growth of the
/// stack's counters as `snapshot` reads them.
pub fn traced<W>(
    w: &mut W,
    tally: &Tally,
    ledger: &mut Ledger,
    req: SliceReq,
    pr: &mut PathRun,
    snapshot: impl Fn(&W) -> Counts,
    slice: impl FnOnce(&mut W, &mut Ledger, &mut PathRun) -> Slice,
) -> Slice {
    tally.take_stats();
    tally.set_on(true);
    let before = snapshot(w);
    let s = slice(w, ledger, pr);
    tally.set_on(false);
    let kernel = tally.take_stats();
    let ns = std::mem::take(&mut ledger.ns);
    if req.measured {
        let c = &mut pr.counts;
        c.add(&s.counts);
        c.add_delta(&before, &snapshot(w));
        c.kernel.absorb(&kernel);
        for (acc, v) in pr.ledger.iter_mut().zip(ns) {
            *acc += v;
        }
    }
    s
}
