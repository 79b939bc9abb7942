//! The `churn_512` workload: one `ScaleHarness` per path over the
//! in-process loop-back, driven from one thread. A slice is one wave:
//! connect, transfer, FIN, TIME_WAIT drain and reopen for every
//! connection.

use crate::ledger::{Ctx, Ledger, MarkingScheduler, Probe, Timed, TimingKernel};
use crate::run::{interleave, traced, Clock, Counts, Opts, PathRun, Run, Slice, SliceReq, ILP};
use crate::stats::fnv;
use cipher::SimplifiedSafer;
use memsim::{AddressSpace, NativeMem};
use obs::NoopObserver;
use server::{Path, RoundRobin, ScaleHarness, ServerConfig, WorldInit};
use std::time::Instant;
use utcp::Loopback;

/// Steps after which a wave that has not finished counts as stalled.
const MAX_STEPS: u64 = 20_000;

/// Shape of the churn workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Connections per harness.
    pub n_conns: usize,
    /// File bytes per connection per wave (one chunk).
    pub file_len: usize,
}

struct World<K: Timed> {
    arena: Vec<u8>,
    h: ScaleHarness<SimplifiedSafer, K>,
    sched: MarkingScheduler<RoundRobin>,
    pending: Vec<usize>,
}

/// The seed picks the harness's global connection base, which sets
/// every port, initial sequence number and file pattern of the wave.
fn build<K: Timed>(spec: &Spec, seed: u64, wrap: impl Fn(Loopback) -> K) -> World<K> {
    let cfg = ServerConfig {
        n_conns: spec.n_conns,
        conn_base: (seed % (10_000 - spec.n_conns as u64 + 1)) as usize,
        file_len: spec.file_len,
        chunk: spec.file_len,
        ring_capacity: (spec.file_len + 64) * 4,
        max_rounds: u64::MAX,
        ..ServerConfig::default()
    };
    let mut space = AddressSpace::new();
    let lb = Loopback::with_capacity(&mut space, 16 * spec.n_conns + 64);
    let cipher = SimplifiedSafer::alloc(&mut space);
    let h = ScaleHarness::with_cipher_over(&mut space, cipher, cfg, wrap(lb));
    let mut arena = space.native_arena();
    h.init_world(&mut NativeMem::new(&mut arena));
    let sched = MarkingScheduler::new(RoundRobin::new(), h.lb.tally());
    World { arena, h, sched, pending: Vec::with_capacity(spec.n_conns) }
}

/// Sender- and receiver-side counters summed over every connection.
fn snapshot<K: Timed>(w: &World<K>) -> Counts {
    let mut c = Counts::default();
    for s in w.h.table.iter() {
        c.data_sent += s.tx.stats.data_sent;
        c.acks_recvd += s.tx.stats.acks_received;
        c.retransmits += s.tx.stats.retransmits;
        c.fast_retransmits += s.tx.stats.fast_retransmits;
    }
    for i in 0..w.h.config().n_conns {
        let rx = &w.h.client_rx(i).stats;
        c.rejected += rx.rejected;
        c.accepted += rx.accepted;
    }
    c
}

/// One wave on `path`. Session latency runs from the wave's first step
/// to the end of the step after which the client holds its whole file.
fn wave<K: Timed, P: Probe>(
    w: &mut World<K>,
    clock: &Clock,
    path: usize,
    p: &mut P,
    pr: &mut PathRun,
    record_lat: bool,
    corrupt: bool,
) -> Slice {
    let World { arena, h, sched, pending } = w;
    let mut m = NativeMem::new(arena);
    let n = h.config().n_conns;
    let file_len = h.config().file_len;
    let hp = if path == ILP { Path::Ilp } else { Path::NonIlp };
    if corrupt {
        let f = h.table.iter().next().expect("at least one session").file;
        m.bytes_mut(f.base, 1)[0] ^= 0x01;
    }
    pending.clear();
    pending.extend(0..n);
    let (mut steps, mut step_ns, mut stalled) = (0u64, 0u64, false);
    let t0 = clock.now();
    let mut run = h.begin_run::<P>();
    loop {
        let ts = clock.now();
        p.enter(Ctx::Step);
        let more = h.step(&mut m, sched, hp, p, &mut run);
        p.leave();
        let t = clock.now();
        step_ns += t - ts;
        steps += 1;
        pending.retain(|&i| {
            let done = h.client_progress(i).0 >= file_len as u64;
            if done && record_lat {
                pr.record(t - t0);
            }
            !done
        });
        if !more {
            break;
        }
        if steps >= MAX_STEPS {
            stalled = true;
            break;
        }
    }
    let t1 = clock.now();

    // Verification, outside the timed interval.
    let mut failed = 0u64;
    for (i, s) in h.table.iter().enumerate() {
        let whole = h.client_progress(i).0 == file_len as u64;
        if whole && h.verify_output_prefix(&mut m, i, file_len) {
            pr.digest = fnv(pr.digest, m.bytes(s.file.base, file_len));
        } else {
            failed += 1;
        }
    }
    if corrupt {
        let f = h.table.iter().next().expect("at least one session").file;
        m.bytes_mut(f.base, 1)[0] ^= 0x01;
    }
    let ops = n as u64;
    if stalled {
        return Slice {
            ns: t1 - t0,
            ops,
            bytes: 0,
            failed: ops,
            counts: Counts::default(),
            stalled,
        };
    }

    let t2 = clock.now();
    p.enter(Ctx::Drain);
    let drain_rounds = h.drain_to_closed(&mut m, hp, p);
    p.leave();
    let t3 = clock.now();
    p.enter(Ctx::Drain);
    h.reopen_wave(&mut m);
    p.leave();
    let t4 = clock.now();
    let counts = Counts {
        sessions: ops,
        waves: 1,
        steps,
        step_ns,
        drain_ns: t3 - t2,
        reopen_ns: t4 - t3,
        drain_rounds,
        ..Counts::default()
    };
    Slice {
        ns: (t1 - t0) + (t4 - t2),
        ops,
        bytes: (ops - failed) * file_len as u64,
        failed,
        counts,
        stalled,
    }
}

fn run_world<K: Timed>(spec: &Spec, opts: &Opts, wrap: impl Fn(Loopback) -> K + Copy) -> Run {
    let mut setup_s = Vec::with_capacity(opts.setup_reps);
    let mut worlds = None;
    for _ in 0..opts.setup_reps {
        drop(worlds.take());
        let t = Instant::now();
        worlds = Some([build(spec, opts.seed, wrap), build(spec, opts.seed, wrap)]);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut worlds = worlds.expect("at least one set-up");
    let mut ledgers = worlds.each_ref().map(|w| w.h.lb.tally().map(Ledger::new));
    let clock = Clock::new();
    let mut corrupt = opts.corrupt;
    interleave(opts.seconds, opts.trace, setup_s, |req: SliceReq, pr: &mut PathRun| {
        let flip = corrupt && req.measured && req.path == ILP && !req.traced;
        corrupt &= !flip;
        let w = &mut worlds[req.path];
        if !req.traced {
            return wave(w, &clock, req.path, &mut NoopObserver, pr, req.measured, flip);
        }
        let tally = w.h.lb.tally().expect("a traced run wraps its backend");
        let ledger = ledgers[req.path].as_mut().expect("a traced run has a ledger");
        traced(w, &tally, ledger, req, pr, snapshot, |w, l, pr| {
            wave(w, &clock, req.path, l, pr, false, false)
        })
    })
}

/// Run the churn workload.
pub fn run(spec: &Spec, opts: &Opts) -> Run {
    if opts.trace {
        run_world(spec, opts, TimingKernel::new)
    } else {
        run_world(spec, opts, |lb| lb)
    }
}
