//! The one-connection workloads: `bulk_1k`, `lossy_1k` and `rpc_64_udp`.
//!
//! One address space holds one connection pair per path (ILP on ports
//! 4000→5000, non-ILP on 4001→5001) over a shared kernel part, one
//! cipher, the shared pipeline scratch and one seeded file. A slice
//! sends a fixed number of chunks on one pair and runs until every one
//! is accepted and acknowledged, so no op is left in flight while the
//! other path runs.

use crate::ledger::{Ctx, Ledger, Probe, Timed, TimingKernel};
use crate::run::{interleave, traced, Clock, Counts, Opts, PathRun, Run, Slice, SliceReq, ILP};
use crate::stats::fnv;
use cipher::{CipherKernel, SimplifiedSafer};
use memsim::region::{Region, RegionKind};
use memsim::{AddressSpace, NativeMem};
use obs::{NoopObserver, PathLabel};
use rpcapp::ReplyMeta;
use server::pipeline::{recv_chunk_ilp_obs, recv_chunk_non_ilp_obs, Scratch};
use server::pipeline::{send_chunk_ilp_obs, send_chunk_non_ilp_obs};
use std::io;
use std::time::Instant;
use utcp::rng::XorShift64;
use utcp::{Connection, FaultPlan, FaultProbs, KernelPart, Loopback, SendError, UtcpConfig};

const KEY: [u8; 8] = *b"ILP95key";
const REQUEST_ID: u32 = 0x4E42_454E;
const LABELS: [PathLabel; 2] = [PathLabel::Ilp, PathLabel::NonIlp];
/// Send timestamps kept per pair (more than a window of chunks).
const SENT_RING: usize = 1024;
/// Over the loop-back the sender ticks once per loop round. Over a real
/// socket a round is one busy poll, so it ticks only after this much
/// wall time without progress.
const SOCKET_TICK_NS: u64 = 1_000_000;
/// Wall time without progress after which a slice counts as stalled.
const STALL_NS: u64 = 2_000_000_000;

/// Shape of a one-connection workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Payload bytes per chunk.
    pub chunk: usize,
    /// Seeded file length; chunks cycle through it.
    pub file_len: usize,
    /// Chunks per slice (`slice_ops · chunk` divides `file_len`).
    pub slice_ops: u64,
    /// Seeded loop-back faults, if any.
    pub faults: Option<FaultProbs>,
    /// Request/reply over one UDP socket on 127.0.0.1 instead of the
    /// full-window loop-back: one chunk in flight, so each send waits for
    /// the previous ACK.
    pub rpc_udp: bool,
}

struct Pair {
    tx: Connection,
    rx: Connection,
    app_out: Region,
    next: u64,
    sent_at: Vec<u64>,
}

struct World<K> {
    arena: Vec<u8>,
    lb: K,
    scratch: Scratch,
    cipher: SimplifiedSafer,
    file: Region,
    pairs: [Pair; 2],
}

fn build<K: KernelPart>(
    spec: &Spec,
    seed: u64,
    make_lb: impl FnOnce(&mut AddressSpace) -> io::Result<K>,
) -> io::Result<World<K>> {
    let mut space = AddressSpace::new();
    let mut lb = make_lb(&mut space)?;
    let cipher = SimplifiedSafer::alloc(&mut space);
    let scratch = Scratch::alloc(&mut space);
    let file = space.alloc_kind("bench_file", spec.file_len, 64, RegionKind::AppData);
    let pairs = [0u16, 1].map(|p| {
        let tx_cfg = UtcpConfig { local_port: 4000 + p, peer_port: 5000 + p, ..Default::default() };
        let rx_cfg = UtcpConfig {
            local_port: 5000 + p,
            peer_port: 4000 + p,
            local_ip: tx_cfg.peer_ip,
            peer_ip: tx_cfg.local_ip,
            ..Default::default()
        };
        let tx_iss = 0x1000 + u32::from(p) * 0x0100_0000;
        let rx_iss = 0x9000 + u32::from(p) * 0x0100_0000;
        let mut tx = Connection::new(&mut space, &mut lb, tx_cfg, tx_iss);
        let mut rx = Connection::new(&mut space, &mut lb, rx_cfg, rx_iss);
        tx.set_peer_iss(rx_iss);
        rx.set_peer_iss(tx_iss);
        let app_out = space.alloc_kind("app_out", spec.file_len, 64, RegionKind::AppData);
        Pair { tx, rx, app_out, next: 0, sent_at: vec![0; SENT_RING] }
    });
    let mut arena = space.native_arena();
    {
        let mut m = NativeMem::new(&mut arena);
        cipher.init(&mut m, KEY);
        let mut rng = XorShift64::new(seed ^ 0x6E61_7469_7665);
        for b in m.bytes_mut(file.base, spec.file_len) {
            *b = rng.next_u64() as u8;
        }
    }
    Ok(World { arena, lb, scratch, cipher, file, pairs })
}

fn meta_for(spec: &Spec, chunk: u64) -> ReplyMeta {
    ReplyMeta {
        request_id: REQUEST_ID,
        seq: chunk as u32,
        offset: ((chunk * spec.chunk as u64) % spec.file_len as u64) as u32,
        last: 0,
        data_len: spec.chunk as u32,
    }
}

/// Run one slice of `spec.slice_ops` chunks on `path`, then verify the
/// delivered bytes (untimed) and fold them into the path's digest.
#[allow(clippy::too_many_arguments)]
fn slice<K: KernelPart, P: Probe>(
    w: &mut World<K>,
    spec: &Spec,
    clock: &Clock,
    path: usize,
    p: &mut P,
    pr: &mut PathRun,
    record_lat: bool,
    corrupt: bool,
) -> Slice {
    let World { arena, lb, scratch, cipher, file, pairs } = w;
    let mut m = NativeMem::new(arena);
    let pair = &mut pairs[path];
    let label = LABELS[path];
    let start = pair.next;
    let end = start + spec.slice_ops;
    let (mut next, mut expect, mut misordered, mut ticks) = (start, start, 0u64, 0u64);
    let mut stalled = false;
    let t0 = clock.now();
    let (mut last_progress, mut last_tick) = (t0, t0);
    loop {
        let mut progress = false;
        while next < end && (!spec.rpc_udp || pair.tx.in_flight() == 0) {
            let meta = meta_for(spec, next);
            if !pair.tx.can_send(meta.padded_len(SimplifiedSafer::UNIT)) {
                break;
            }
            let addr = file.base + meta.offset as usize;
            pair.sent_at[next as usize % SENT_RING] = clock.now();
            p.enter(Ctx::Send);
            let r = if path == ILP {
                send_chunk_ilp_obs(scratch, *cipher, &mut m, &mut pair.tx, lb, &meta, addr, p)
            } else {
                send_chunk_non_ilp_obs(scratch, cipher, &mut m, &mut pair.tx, lb, &meta, addr, p)
            };
            p.leave();
            match r {
                Ok(_) => {
                    next += 1;
                    progress = true;
                }
                Err(SendError::BufferFull | SendError::WindowClosed) => break,
                Err(_) => {
                    stalled = true;
                    break;
                }
            }
        }
        loop {
            p.enter(Ctx::Recv);
            let r = if path == ILP {
                recv_chunk_ilp_obs(scratch, *cipher, &mut m, &mut pair.rx, lb, pair.app_out, p)
            } else {
                recv_chunk_non_ilp_obs(scratch, cipher, &mut m, &mut pair.rx, lb, pair.app_out, p)
            };
            p.leave();
            match r {
                None => break,
                Some(Ok(meta)) => {
                    let t = clock.now();
                    if meta.seq == expect as u32 {
                        if record_lat {
                            pr.record(t - pair.sent_at[expect as usize % SENT_RING]);
                        }
                    } else {
                        misordered += 1;
                    }
                    expect += 1;
                    progress = true;
                }
                // A duplicate, out-of-order or damaged segment: TCP
                // recovers it, so it is not a failed op.
                Some(Err(_)) => {}
            }
        }
        let in_flight = pair.tx.in_flight();
        p.enter(Ctx::Ack);
        while pair.tx.poll_input_obs(&mut m, lb, p, label).is_some() {}
        p.leave();
        progress |= pair.tx.in_flight() != in_flight;
        let now = clock.now();
        if progress {
            last_progress = now;
        }
        if stalled || (expect >= end && pair.tx.in_flight() == 0) {
            break;
        }
        let tick = !spec.rpc_udp || now - last_progress.max(last_tick) >= SOCKET_TICK_NS;
        if tick {
            p.enter(Ctx::Tick);
            pair.tx.tick_obs(&mut m, lb, p, label);
            p.leave();
            ticks += 1;
            last_tick = now;
        }
        if now - last_progress > STALL_NS {
            stalled = true;
            break;
        }
    }
    let ns = clock.now() - t0;

    // Verification, outside the timed interval: every chunk of the
    // slice against the seeded file, then clear the range so the next
    // slice over it proves its own delivery.
    let off = (start as usize * spec.chunk) % spec.file_len;
    let len = spec.slice_ops as usize * spec.chunk;
    let out = pair.app_out.base + off;
    if corrupt {
        m.bytes_mut(out + len / 2, 1)[0] ^= 0x01;
    }
    let got = m.bytes(out, len);
    let want = m.bytes(file.base + off, len);
    let damaged =
        got.chunks(spec.chunk).zip(want.chunks(spec.chunk)).filter(|(g, w)| g != w).count() as u64;
    pr.digest = fnv(pr.digest, got);
    m.bytes_mut(out, len).fill(0);
    pair.next = end;
    let undelivered = end - expect.min(end);
    let failed = (undelivered + misordered + damaged).min(spec.slice_ops);
    Slice {
        ns,
        ops: spec.slice_ops,
        bytes: (spec.slice_ops - failed) * spec.chunk as u64,
        failed,
        counts: Counts { ticks, ..Counts::default() },
        stalled,
    }
}

/// Sender- and receiver-side counters of one pair, for traced deltas.
fn snapshot<K: KernelPart>(w: &World<K>, path: usize) -> Counts {
    let pair = &w.pairs[path];
    Counts {
        data_sent: pair.tx.stats.data_sent,
        acks_recvd: pair.tx.stats.acks_received,
        retransmits: pair.tx.stats.retransmits,
        fast_retransmits: pair.tx.stats.fast_retransmits,
        rejected: pair.rx.stats.rejected,
        accepted: pair.rx.stats.accepted,
        would_block: w.lb.counters().would_block,
        ..Counts::default()
    }
}

fn run_world<K: Timed>(
    spec: &Spec,
    opts: &Opts,
    make_lb: impl Fn(&mut AddressSpace) -> io::Result<K>,
) -> io::Result<Run> {
    let mut setup_s = Vec::with_capacity(opts.setup_reps);
    let mut world = None;
    for _ in 0..opts.setup_reps {
        drop(world.take());
        let t = Instant::now();
        world = Some(build(spec, opts.seed, &make_lb)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = world.expect("at least one set-up");
    let tally = w.lb.tally();
    let mut ledger = tally.clone().map(Ledger::new);
    let clock = Clock::new();
    let mut corrupt = opts.corrupt;
    Ok(interleave(opts.seconds, opts.trace, setup_s, |req: SliceReq, pr: &mut PathRun| {
        let flip = corrupt && req.measured && req.path == ILP && !req.traced;
        corrupt &= !flip;
        if !req.traced {
            return slice(
                &mut w,
                spec,
                &clock,
                req.path,
                &mut NoopObserver,
                pr,
                req.measured,
                flip,
            );
        }
        let tally = tally.as_deref().expect("a traced run wraps its backend");
        let ledger = ledger.as_mut().expect("a traced run has a ledger");
        traced(
            &mut w,
            tally,
            ledger,
            req,
            pr,
            |w| snapshot(w, req.path),
            |w, l, pr| slice(w, spec, &clock, req.path, l, pr, false, false),
        )
    }))
}

/// Run a one-connection workload. Fails only when the kernel part
/// cannot be set up (no UDP socket on this host).
pub fn run(spec: &Spec, opts: &Opts) -> io::Result<Run> {
    let loopback = |space: &mut AddressSpace| {
        let mut lb = Loopback::with_capacity(space, 256);
        if let Some(probs) = spec.faults {
            lb.set_faults(FaultPlan::seeded(opts.seed, probs));
        }
        Ok(lb)
    };
    let udp = |space: &mut AddressSpace| {
        let mut net = netback::UdpBackend::bind(space, "127.0.0.1:0")?;
        let me = net.local_addr()?;
        net.set_peer(me)?;
        Ok(net)
    };
    match (spec.rpc_udp, opts.trace) {
        (false, false) => run_world(spec, opts, loopback),
        (false, true) => {
            run_world(spec, opts, |s: &mut AddressSpace| loopback(s).map(TimingKernel::new))
        }
        (true, false) => run_world(spec, opts, udp),
        (true, true) => run_world(spec, opts, |s: &mut AddressSpace| udp(s).map(TimingKernel::new)),
    }
}
