//! Traced-run instruments, built only from the stack's public seams:
//!
//! * [`TimingKernel`] wraps any [`KernelPart`] and times every `send`
//!   and `recv_into` on the wall clock;
//! * [`Ledger`] is a [`SpanObserver`] handed to the pipeline's and the
//!   harness's `_obs` entry points. Each callback closes an interval
//!   that began at the previous callback (or at [`Probe::enter`]), and
//!   the interval's wall time, minus the kernel time the wrapper saw
//!   inside it, is charged to the layer the callback names.
//!
//! * [`MarkingScheduler`] wraps the harness's scheduler and marks the
//!   moment each pick returns, so the harness's ready-set scan before a
//!   send is charged to the server rather than to the send's first span.
//!
//! Time between a [`Probe::leave`] and the next [`Probe::enter`] (the
//! benchmark's own loop) is charged to nothing; the report shows it as
//! the unattributed remainder, so the ledger's coverage is visible.

use memsim::Mem;
use obs::{ConnState, Counter, EventKind, FlightSnap, Layer, Metric, PathLabel, SegEv, SegTag};
use obs::{NoopObserver, SpanObserver, Stage, Work};
use server::{ConnId, Scheduler};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;
use utcp::TCP_HEADER_LEN;
use utcp::{Datagram, EndpointId, KernelCounters, KernelPart, Loopback, IP_HEADER_LEN};

const SENT_DATA: u8 = 1;
const RECVD_DATA: u8 = 2;
const SENT_CTL: u8 = 4;
const RECVD_CTL: u8 = 8;
const EMPTY_POLL: u8 = 16;

/// Longest control datagram: IPv4 + TCP header + a full 40-byte option
/// area. Anything longer carries payload.
const CONTROL_MAX: usize = IP_HEADER_LEN + TCP_HEADER_LEN + 40;

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Kernel-part activity seen by a [`TimingKernel`].
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelStats {
    /// Wall time inside `send`.
    pub send_ns: u64,
    /// `send` calls.
    pub sends: u64,
    /// Wall time inside `recv_into`.
    pub recv_ns: u64,
    /// `recv_into` calls.
    pub recv_calls: u64,
    /// `recv_into` calls that returned a datagram.
    pub recv_hits: u64,
    /// Data-bearing datagrams received.
    pub data_recvd: u64,
    /// Deepest endpoint queue seen at a dequeue.
    pub queue_max: u64,
}

impl KernelStats {
    /// Add `other`'s totals (and its queue high-water mark) into `self`.
    pub fn absorb(&mut self, other: &KernelStats) {
        self.send_ns += other.send_ns;
        self.sends += other.sends;
        self.recv_ns += other.recv_ns;
        self.recv_calls += other.recv_calls;
        self.recv_hits += other.recv_hits;
        self.data_recvd += other.data_recvd;
        self.queue_max = self.queue_max.max(other.queue_max);
    }
}

/// State shared between a [`TimingKernel`] and the [`Ledger`] reading it.
#[derive(Debug, Default)]
pub struct Tally {
    on: Cell<bool>,
    /// Kernel time not yet subtracted from a ledger interval.
    pending_ns: Cell<u64>,
    /// What crossed the kernel part since the last ledger charge
    /// (`MOVED_*` bits).
    moved: Cell<u8>,
    /// When the last scheduler pick returned, if after the last charge.
    picked: Cell<Option<Instant>>,
    stats: Cell<KernelStats>,
}

impl Tally {
    /// Switch timing on or off (off: the wrapper only delegates).
    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    /// Take the activity recorded since the last call.
    pub fn take_stats(&self) -> KernelStats {
        self.stats.take()
    }

    fn mark(&self, bit: u8) {
        self.moved.set(self.moved.get() | bit);
    }

    fn update(&self, f: impl FnOnce(&mut KernelStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }
}

/// A [`KernelPart`] that times every call into the backend it wraps.
#[derive(Debug)]
pub struct TimingKernel<K> {
    inner: K,
    tally: Rc<Tally>,
}

impl<K: KernelPart> TimingKernel<K> {
    /// Wrap `inner`; timing starts switched off.
    pub fn new(inner: K) -> Self {
        TimingKernel { inner, tally: Rc::new(Tally::default()) }
    }
}

impl<K: KernelPart> KernelPart for TimingKernel<K> {
    fn register(&mut self, port: u16) -> EndpointId {
        self.inner.register(port)
    }

    fn unregister(&mut self, port: u16) {
        self.inner.unregister(port);
    }

    fn send<M: Mem>(
        &mut self,
        m: &mut M,
        src_ip: u32,
        dst_ip: u32,
        dst_port: u16,
        hdr_addr: usize,
        payload_addr: usize,
        payload_len: usize,
    ) {
        if !self.tally.on.get() {
            return self.inner.send(
                m,
                src_ip,
                dst_ip,
                dst_port,
                hdr_addr,
                payload_addr,
                payload_len,
            );
        }
        let t = Instant::now();
        self.inner.send(m, src_ip, dst_ip, dst_port, hdr_addr, payload_addr, payload_len);
        let ns = ns_since(t);
        let tally = &self.tally;
        tally.pending_ns.set(tally.pending_ns.get() + ns);
        let data = IP_HEADER_LEN + TCP_HEADER_LEN + payload_len > CONTROL_MAX;
        tally.mark(if data { SENT_DATA } else { SENT_CTL });
        tally.update(|s| {
            s.send_ns += ns;
            s.sends += 1;
        });
    }

    fn recv_into<M: Mem>(&mut self, m: &mut M, id: EndpointId) -> Option<Datagram> {
        if !self.tally.on.get() {
            return self.inner.recv_into(m, id);
        }
        let t = Instant::now();
        let d = self.inner.recv_into(m, id);
        let ns = ns_since(t);
        let depth = (self.inner.pending(id) + usize::from(d.is_some())) as u64;
        let data = d.is_some_and(|d| d.len > CONTROL_MAX);
        let tally = &self.tally;
        tally.pending_ns.set(tally.pending_ns.get() + ns);
        tally.mark(match d {
            None => EMPTY_POLL,
            Some(_) if data => RECVD_DATA,
            Some(_) => RECVD_CTL,
        });
        tally.update(|s| {
            s.recv_ns += ns;
            s.recv_calls += 1;
            s.recv_hits += u64::from(d.is_some());
            s.data_recvd += u64::from(data);
            s.queue_max = s.queue_max.max(depth);
        });
        d
    }

    fn pending(&self, id: EndpointId) -> usize {
        self.inner.pending(id)
    }

    fn counters(&self) -> KernelCounters {
        self.inner.counters()
    }

    fn set_send_ctx(&mut self, ctx: Option<SegTag>) {
        self.inner.set_send_ctx(ctx);
    }

    fn take_recv_ctx(&mut self) -> Option<SegTag> {
        self.inner.take_recv_ctx()
    }
}

/// A [`Scheduler`] that marks, while timing is on, the instant each
/// pick returns.
#[derive(Debug)]
pub struct MarkingScheduler<S> {
    inner: S,
    tally: Option<Rc<Tally>>,
}

impl<S: Scheduler> MarkingScheduler<S> {
    /// Wrap `inner`, marking into `tally` (none: plain delegation).
    pub fn new(inner: S, tally: Option<Rc<Tally>>) -> Self {
        MarkingScheduler { inner, tally }
    }
}

impl<S: Scheduler> Scheduler for MarkingScheduler<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pick(&mut self, ready: &[ConnId]) -> Option<ConnId> {
        let id = self.inner.pick(ready);
        if let Some(t) = self.tally.as_ref().filter(|t| t.on.get()) {
            t.picked.set(Some(Instant::now()));
        }
        id
    }

    fn charge(&mut self, conn: ConnId, bytes: usize) {
        self.inner.charge(conn, bytes);
    }
}

/// A backend the benchmark can run untraced or traced.
pub trait Timed: KernelPart {
    /// The timing tally, when this backend is a [`TimingKernel`].
    fn tally(&self) -> Option<Rc<Tally>>;
}

impl Timed for Loopback {
    fn tally(&self) -> Option<Rc<Tally>> {
        None
    }
}

impl Timed for netback::UdpBackend {
    fn tally(&self) -> Option<Rc<Tally>> {
        None
    }
}

impl<K: KernelPart> Timed for TimingKernel<K> {
    fn tally(&self) -> Option<Rc<Tally>> {
        Some(self.tally.clone())
    }
}

/// The benchmark call a ledger interval belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ctx {
    /// `send_chunk_*`.
    Send,
    /// `recv_chunk_*`.
    Recv,
    /// The sender's `poll_input` (the ACK path).
    Ack,
    /// The sender's `tick` (the retransmission timer).
    Tick,
    /// `ScaleHarness::step`.
    Step,
    /// `ScaleHarness::drain_to_closed` and `reopen_wave`.
    Drain,
}

// Ledger buckets. Every charged nanosecond lands in exactly one.
/// Number of ledger buckets.
pub const NB: usize = 12;
pub const MARSHAL: usize = 0;
pub const CIPHER: usize = 1;
pub const CHECKSUM: usize = 2;
pub const FUSED_SEND: usize = 3;
pub const FUSED_RECV: usize = 4;
pub const TCP_SEND: usize = 5;
pub const TCP_RECV: usize = 6;
pub const ACK: usize = 7;
pub const TICK: usize = 8;
pub const KERNEL: usize = 9;
pub const SERVER_STEP: usize = 10;
pub const SERVER_DRAIN: usize = 11;

/// What the benchmark loop calls around each call into the stack.
pub trait Probe: SpanObserver {
    /// A call in context `ctx` begins.
    fn enter(&mut self, ctx: Ctx);
    /// The call returned.
    fn leave(&mut self);
}

/// The untraced probe: compiles to nothing.
impl Probe for NoopObserver {
    #[inline(always)]
    fn enter(&mut self, _ctx: Ctx) {}
    #[inline(always)]
    fn leave(&mut self) {}
}

/// The timing observer: wall time per ledger bucket.
#[derive(Debug)]
pub struct Ledger {
    tally: Rc<Tally>,
    last: Instant,
    ctx: Ctx,
    /// Inside the harness: a poll staged a data segment whose receive
    /// has not reached its fused or final stage yet.
    rx_staged: bool,
    /// Charged nanoseconds per bucket.
    pub ns: [u64; NB],
}

impl Ledger {
    /// A ledger reading the kernel time of `tally`.
    pub fn new(tally: Rc<Tally>) -> Self {
        Ledger { tally, last: Instant::now(), ctx: Ctx::Send, rx_staged: false, ns: [0; NB] }
    }

    fn default_bucket(&self) -> usize {
        match self.ctx {
            Ctx::Send => TCP_SEND,
            Ctx::Recv => TCP_RECV,
            Ctx::Ack => ACK,
            Ctx::Tick => TICK,
            Ctx::Step => SERVER_STEP,
            Ctx::Drain => SERVER_DRAIN,
        }
    }

    fn in_harness(&self) -> bool {
        matches!(self.ctx, Ctx::Step | Ctx::Drain)
    }

    /// The bucket a span names. Inside the benchmark's own calls the
    /// context decides. Inside the harness, where one call serves both
    /// directions of many connections, what crossed the kernel part in
    /// the interval decides a TCP span: a data send is send-side TCP, a
    /// data receive or the receiver's verdict (a final-stage span that
    /// sent a control segment) is receive-side TCP, any other control
    /// segment received is the ACK path, and a span whose polls all came
    /// back empty is the harness's per-round scan, charged to the server.
    fn bucket_of(&mut self, stage: Stage, layer: Layer) -> usize {
        let moved = self.tally.moved.get();
        let harness = self.in_harness();
        let b = match layer {
            Layer::Marshal => MARSHAL,
            Layer::Cipher => CIPHER,
            Layer::Checksum => CHECKSUM,
            Layer::Fused if self.rx_staged || self.ctx == Ctx::Recv => FUSED_RECV,
            Layer::Fused => FUSED_SEND,
            Layer::Kernel => KERNEL,
            Layer::Tcp if !harness => self.default_bucket(),
            Layer::Tcp if moved & SENT_DATA != 0 => TCP_SEND,
            Layer::Tcp if moved & RECVD_DATA != 0 => TCP_RECV,
            Layer::Tcp if stage == Stage::Final && moved & SENT_CTL != 0 => TCP_RECV,
            Layer::Tcp if moved & RECVD_CTL != 0 => ACK,
            Layer::Tcp if moved & EMPTY_POLL != 0 => self.default_bucket(),
            Layer::Tcp if self.rx_staged => TCP_RECV,
            Layer::Tcp => TCP_SEND,
        };
        if harness {
            match (layer, stage) {
                (Layer::Tcp, Stage::Initial) if moved & RECVD_DATA != 0 => self.rx_staged = true,
                (Layer::Fused, _) | (_, Stage::Final) => self.rx_staged = false,
                _ => {}
            }
        }
        b
    }

    fn charge(&mut self, b: usize) {
        let now = Instant::now();
        let k = self.tally.pending_ns.take();
        self.tally.moved.set(0);
        let mut from = self.last;
        if let Some(picked) = self.tally.picked.take().filter(|&t| t > from) {
            let scan = picked.duration_since(from).as_nanos() as u64;
            self.ns[self.default_bucket()] += scan;
            from = picked;
        }
        let dt = now.duration_since(from).as_nanos() as u64;
        self.ns[KERNEL] += k;
        self.ns[b] += dt.saturating_sub(k);
        self.last = now;
    }

    fn charge_default(&mut self) {
        let b = self.default_bucket();
        self.charge(b);
    }
}

impl Probe for Ledger {
    fn enter(&mut self, ctx: Ctx) {
        self.tally.pending_ns.set(0);
        self.tally.picked.set(None);
        self.tally.moved.set(0);
        self.ctx = ctx;
        self.rx_staged = false;
        self.last = Instant::now();
    }

    fn leave(&mut self) {
        self.charge_default();
    }
}

impl SpanObserver for Ledger {
    fn tick(&mut self, _now: u64) {
        self.charge_default();
    }

    fn span(&mut self, _path: PathLabel, stage: Stage, layer: Layer, _work: Work) {
        let b = self.bucket_of(stage, layer);
        self.charge(b);
    }

    fn count(&mut self, _counter: Counter, _n: u64) {
        self.charge_default();
    }

    fn sample(&mut self, _metric: Metric, _value: u64) {
        self.charge_default();
    }

    fn event(&mut self, _kind: EventKind, _conn: u32, _value: u64) {
        self.charge_default();
    }

    fn flight(&mut self, _conn: u32, _snap: FlightSnap) {
        self.charge_default();
    }

    fn seg(&mut self, _tag: SegTag, _ev: SegEv) {
        self.charge_default();
    }

    fn lifecycle(&mut self, _conn: u32, _from: ConnState, _to: ConnState) {
        self.charge_default();
    }
}
