//! Per-connection data paths, ILP and non-ILP, over shared scratch.
//!
//! These mirror `rpcapp::paths` — same message format, same fused-loop
//! schedule, byte-identical wire format — but decoupled from the
//! single-pair [`rpcapp::Suite`]: each call names the connection it
//! operates on, so one server drives N of them. What is *shared* across
//! connections ([`Scratch`]: the non-ILP intermediate buffers and every
//! loop's instruction footprint) versus *private* (ring, TCB, staging,
//! file, output — all inside [`utcp::Connection`] and the session)
//! mirrors a real server process: one code image and one set of static
//! buffers, N connection states. That split is precisely what makes the
//! multi-connection cache question interesting — connection B's private
//! state competes with A's for the same lines, while the shared scratch
//! is re-warmed by whoever ran last.

use checksum::internet::checksum_buf;
use cipher::CipherKernel;
use ilp_core::{
    ilp_run, three_stage_observed, ChecksumTap, DecryptStage, EncryptStage, Fused, Ordering,
    Reject, SegmentPlan,
};
use obs::{Layer, NoopObserver, PathLabel, SegEv, SpanObserver, Stage, Work};
use memsim::layout::AddressSpace;
use memsim::region::{Region, RegionKind};
use memsim::{CodeRegion, Mem};
use rpcapp::{ReplyMeta, ENC_HDR_LEN, PREFIX_BYTES, RPC_HDR_WORDS};
use rpcapp::msg::{ReplyUnmarshalSink, ReplyWords};
use utcp::{Connection, KernelPart, SendError};
use xdr::stream::OpaqueSource;

/// Buffers and instruction footprints shared by every connection of one
/// server process.
#[derive(Debug, Clone, Copy)]
pub struct Scratch {
    /// Non-ILP: marshalling output buffer.
    pub marshal_buf: Region,
    /// Non-ILP: encryption output buffer.
    pub encrypt_buf: Region,
    /// Non-ILP: decryption output buffer.
    pub decrypt_buf: Region,
    /// ILP receive: staging for segments that are not the next in-order
    /// one (§3.2.2 pre-manipulation — their fused pass must not touch
    /// application memory, since the final stage will reject them).
    pub recv_staging: Region,
    /// Fused send loop footprint.
    pub code_ilp_send: CodeRegion,
    /// Fused receive loop footprint.
    pub code_ilp_recv: CodeRegion,
    /// Non-ILP marshalling loop footprint.
    pub code_marshal: CodeRegion,
    /// Non-ILP unmarshal+copy loop footprint.
    pub code_unmarshal: CodeRegion,
    /// Non-ILP checksum pass footprint.
    pub code_checksum: CodeRegion,
    /// `tcp_send` copy loop footprint.
    pub code_copy: CodeRegion,
}

/// Largest single message (plaintext, padded) the scratch accommodates.
pub const MAX_MSG: usize = 2048;

impl Scratch {
    /// Allocate the shared buffers and code footprints (sizes follow
    /// [`rpcapp::Suite`], including its ≈3%-code-growth fused loops).
    pub fn alloc(space: &mut AddressSpace) -> Self {
        Scratch {
            marshal_buf: space.alloc_kind("marshal_buf", MAX_MSG, 8, RegionKind::Buffer),
            encrypt_buf: space.alloc_kind("encrypt_buf", MAX_MSG, 8, RegionKind::Buffer),
            decrypt_buf: space.alloc_kind("decrypt_buf", MAX_MSG, 8, RegionKind::Buffer),
            recv_staging: space.alloc_kind("recv_staging", MAX_MSG, 8, RegionKind::Buffer),
            code_ilp_send: space.alloc_code("ilp_send_loop", 240 + 480 + 96 + 120),
            code_ilp_recv: space.alloc_code("ilp_recv_loop", 280 + 560 + 96 + 120),
            code_marshal: space.alloc_code("marshal_loop", 240),
            code_unmarshal: space.alloc_code("unmarshal_loop", 280),
            code_checksum: space.alloc_code("checksum_loop", 96),
            code_copy: space.alloc_code("tcp_send_copy", 64),
        }
    }
}

/// Begin teardown on `conn` once every queued byte has been
/// acknowledged: sends the FIN and moves the lifecycle machine forward
/// (ESTABLISHED → FIN_WAIT_1, or CLOSE_WAIT → LAST_ACK). Returns `true`
/// when the close was initiated, `false` while data is still in flight
/// or the connection is already past the point of sending one.
///
/// The FIN is a bare fixed-size header like every other control TPDU,
/// so threading teardown through either data path leaves the ILP ≡
/// non-ILP wire identity untouched.
pub fn close_when_drained<M: Mem, O: SpanObserver>(
    m: &mut M,
    conn: &mut Connection,
    lb: &mut impl KernelPart,
    obs: &mut O,
) -> bool {
    if conn.in_flight() != 0 || !conn.state().may_send_data() {
        return false;
    }
    conn.close_obs(m, lb, obs);
    true
}

/// Non-ILP marshalling pass into the shared marshal buffer (one read of
/// the chunk, one write of the complete plaintext message).
fn marshal_pass<C: CipherKernel, M: Mem>(
    s: &Scratch,
    m: &mut M,
    meta: &ReplyMeta,
    data_addr: usize,
) -> usize {
    m.fetch(s.code_marshal);
    let padded = meta.padded_len(C::UNIT);
    let out = s.marshal_buf.base;
    for (i, w) in meta.prefix_words().iter().enumerate() {
        m.write_u32_be(out + 4 * i, *w);
        m.compute(1);
    }
    let data_len = meta.data_len as usize;
    let words = data_len / 4;
    for i in 0..words {
        let w = m.read_u32_be(data_addr + 4 * i);
        m.write_u32_be(out + PREFIX_BYTES + 4 * i, w);
        m.compute(1);
    }
    let tail = data_len - words * 4;
    if tail > 0 {
        let w = xdr::runtime::read_partial_word(m, data_addr + words * 4, tail);
        m.compute(tail as u32 + 1);
        m.write_u32_be(out + PREFIX_BYTES + 4 * words, w);
    }
    let body_end = PREFIX_BYTES + xdr::runtime::pad4(data_len);
    for off in (body_end..padded).step_by(4) {
        m.write_u32_be(out + off, 0);
        m.compute(1);
    }
    padded
}

/// **Non-ILP send** of one chunk on `tx`: marshal → encrypt →
/// `tcp_send`/`tcp_output`.
///
/// # Errors
/// Propagates transport back-pressure.
pub fn send_chunk_non_ilp<C: CipherKernel, M: Mem>(
    s: &Scratch,
    cipher: &C,
    m: &mut M,
    tx: &mut Connection,
    lb: &mut impl KernelPart,
    meta: &ReplyMeta,
    data_addr: usize,
) -> Result<usize, SendError> {
    send_chunk_non_ilp_obs(s, cipher, m, tx, lb, meta, data_addr, &mut NoopObserver)
}

/// [`send_chunk_non_ilp`] with span attribution: each separate pass
/// reports under its own layer (marshal, cipher, then the connection's
/// copy/checksum/output spans via [`Connection::send_buf_obs`]), all in
/// the integrated-stage position of the non-ILP path.
///
/// # Errors
/// Propagates transport back-pressure.
#[allow(clippy::too_many_arguments)]
pub fn send_chunk_non_ilp_obs<C: CipherKernel, M: Mem, O: SpanObserver>(
    s: &Scratch,
    cipher: &C,
    m: &mut M,
    tx: &mut Connection,
    lb: &mut impl KernelPart,
    meta: &ReplyMeta,
    data_addr: usize,
    obs: &mut O,
) -> Result<usize, SendError> {
    const PATH: PathLabel = PathLabel::NonIlp;
    let seg = tx.seg_begin(meta.seq);
    if O::ENABLED {
        if let Some(tag) = seg {
            obs.seg(tag, SegEv::SendStage(Stage::Initial));
        }
    }
    let before = if O::ENABLED { m.work_counters() } else { (0, 0) };
    let padded = marshal_pass::<C, M>(s, m, meta, data_addr);
    if O::ENABLED {
        obs.span(PATH, Stage::Integrated, Layer::Marshal, Work::delta(before, m.work_counters()));
    }
    let before = if O::ENABLED { m.work_counters() } else { (0, 0) };
    cipher::encrypt_buf(cipher, m, s.marshal_buf.base, s.encrypt_buf.base, padded);
    if O::ENABLED {
        obs.span(PATH, Stage::Integrated, Layer::Cipher, Work::delta(before, m.work_counters()));
        if let Some(tag) = seg {
            obs.seg(tag, SegEv::SendStage(Stage::Integrated));
        }
    }
    let before = if O::ENABLED { m.work_counters() } else { (0, 0) };
    m.fetch(s.code_copy);
    if O::ENABLED {
        obs.span(PATH, Stage::Integrated, Layer::Tcp, Work::delta(before, m.work_counters()));
    }
    let before = if O::ENABLED { m.work_counters() } else { (0, 0) };
    m.fetch(s.code_checksum);
    if O::ENABLED {
        obs.span(PATH, Stage::Integrated, Layer::Checksum, Work::delta(before, m.work_counters()));
        if let Some(tag) = seg {
            obs.seg(tag, SegEv::SendStage(Stage::Final));
        }
    }
    tx.send_buf_obs(m, lb, s.encrypt_buf.base, padded, obs, PATH)?;
    Ok(padded)
}

/// **ILP send** of one chunk on `tx`: one fused
/// marshal+encrypt+checksum loop per message part, stored straight into
/// the connection's ring.
///
/// # Errors
/// Propagates transport back-pressure.
pub fn send_chunk_ilp<C: CipherKernel + Copy, M: Mem>(
    s: &Scratch,
    cipher: C,
    m: &mut M,
    tx: &mut Connection,
    lb: &mut impl KernelPart,
    meta: &ReplyMeta,
    data_addr: usize,
) -> Result<usize, SendError> {
    send_chunk_ilp_obs(s, cipher, m, tx, lb, meta, data_addr, &mut NoopObserver)
}

/// [`send_chunk_ilp`] with span attribution: segmentation planning and
/// ring reservation report as initial-stage work, the fused loop as the
/// integrated stage (one span — the layers are inseparable by
/// construction), and the commit as the final stage.
///
/// # Errors
/// Propagates transport back-pressure.
#[allow(clippy::too_many_arguments)]
pub fn send_chunk_ilp_obs<C: CipherKernel + Copy, M: Mem, O: SpanObserver>(
    s: &Scratch,
    cipher: C,
    m: &mut M,
    tx: &mut Connection,
    lb: &mut impl KernelPart,
    meta: &ReplyMeta,
    data_addr: usize,
    obs: &mut O,
) -> Result<usize, SendError> {
    const PATH: PathLabel = PathLabel::Ilp;
    let seg = tx.seg_begin(meta.seq);
    let before = if O::ENABLED { m.work_counters() } else { (0, 0) };
    let padded = meta.padded_len(C::UNIT);
    let plan = SegmentPlan::for_message(
        ENC_HDR_LEN,
        meta.marshalled_len(),
        C::UNIT,
        Ordering::Unconstrained,
    )
    .expect("block cipher stack is fusible");
    let (extent, _writer0) = tx.begin_ilp_send(padded)?;
    if O::ENABLED {
        obs.span(PATH, Stage::Initial, Layer::Tcp, Work::delta(before, m.work_counters()));
        if let Some(tag) = seg {
            obs.seg(tag, SegEv::SendStage(Stage::Initial));
        }
    }
    let before = if O::ENABLED { m.work_counters() } else { (0, 0) };
    let words = ReplyWords::new(meta, data_addr, C::UNIT);
    let mut stages = Fused::new(EncryptStage::new(cipher), ChecksumTap::new());
    for part in plan.processing_order() {
        if part.is_empty() {
            continue;
        }
        // The per-part checksum taps are merged with InetChecksum::combine,
        // which only reassociates over even byte counts at even offsets
        // (an odd part would pad mid-message per RFC 1071 and silently
        // corrupt the patched header checksum). SegmentPlan aligns parts
        // to the cipher block (a multiple of 4), so this always holds.
        debug_assert!(
            part.start % 2 == 0 && part.len() % 2 == 0,
            "combine precondition: part [{}, {}) must be even-aligned",
            part.start,
            part.end
        );
        let mut source = words.range_source(part.start / 4, part.end / 4);
        let mut sink = tx.ring_writer_at(extent, part.start);
        ilp_run(m, &mut source, &mut stages, &mut sink, 1, Some(s.code_ilp_send))
            .expect("negotiated unit fits registers");
    }
    if O::ENABLED {
        obs.span(PATH, Stage::Integrated, Layer::Fused, Work::delta(before, m.work_counters()));
        if let Some(tag) = seg {
            obs.seg(tag, SegEv::SendStage(Stage::Integrated));
            obs.seg(tag, SegEv::SendStage(Stage::Final));
        }
    }
    tx.commit_send_obs(m, lb, extent, stages.b.sum(), obs, PATH);
    Ok(padded)
}

/// **Non-ILP receive** of one chunk on `rx` into `app_out`: checksum
/// pass, accept/reject, decrypt pass, unmarshal+copy pass.
pub fn recv_chunk_non_ilp<C: CipherKernel, M: Mem>(
    s: &Scratch,
    cipher: &C,
    m: &mut M,
    rx: &mut Connection,
    lb: &mut impl KernelPart,
    app_out: Region,
) -> Option<Result<ReplyMeta, Reject>> {
    recv_chunk_non_ilp_obs(s, cipher, m, rx, lb, app_out, &mut NoopObserver)
}

/// [`recv_chunk_non_ilp`] with span attribution: the poll reports as
/// the initial stage, each separate pass (checksum, cipher, unmarshal)
/// under its own layer in the integrated-stage position, and the
/// accept/reject verdict as the final stage.
pub fn recv_chunk_non_ilp_obs<C: CipherKernel, M: Mem, O: SpanObserver>(
    s: &Scratch,
    cipher: &C,
    m: &mut M,
    rx: &mut Connection,
    lb: &mut impl KernelPart,
    app_out: Region,
    obs: &mut O,
) -> Option<Result<ReplyMeta, Reject>> {
    const PATH: PathLabel = PathLabel::NonIlp;
    let d = rx.poll_input_obs(m, lb, obs, PATH)?;
    let seg = d.ctx;
    if O::ENABLED {
        if let Some(tag) = seg {
            obs.seg(tag, SegEv::RecvStage(Stage::Initial));
        }
    }
    let before = if O::ENABLED { m.work_counters() } else { (0, 0) };
    m.fetch(s.code_checksum);
    let payload_sum = checksum_buf(m, d.payload_addr, d.payload_len);
    if O::ENABLED {
        obs.span(PATH, Stage::Integrated, Layer::Checksum, Work::delta(before, m.work_counters()));
        if let Some(tag) = seg {
            obs.seg(tag, SegEv::RecvStage(Stage::Integrated));
        }
    }
    if let Err(e) = rx.finish_recv_obs(m, lb, &d, payload_sum, obs, PATH) {
        return Some(Err(e));
    }
    let before = if O::ENABLED { m.work_counters() } else { (0, 0) };
    cipher::decrypt_buf(cipher, m, d.payload_addr, s.decrypt_buf.base, d.payload_len);
    if O::ENABLED {
        obs.span(PATH, Stage::Integrated, Layer::Cipher, Work::delta(before, m.work_counters()));
    }
    let before = if O::ENABLED { m.work_counters() } else { (0, 0) };
    let out = unmarshal_pass(s, m, d.payload_len, app_out);
    if O::ENABLED {
        obs.span(PATH, Stage::Integrated, Layer::Marshal, Work::delta(before, m.work_counters()));
        if let Some(tag) = seg {
            obs.seg(tag, SegEv::RecvStage(Stage::Final));
        }
    }
    Some(out)
}

/// Non-ILP unmarshal+copy pass: parse the decrypted message and copy
/// the chunk into `app_out` at the header's offset.
fn unmarshal_pass<M: Mem>(
    s: &Scratch,
    m: &mut M,
    payload_len: usize,
    app_out: Region,
) -> Result<ReplyMeta, Reject> {
    m.fetch(s.code_unmarshal);
    let buf = s.decrypt_buf.base;
    let mut prefix = [0u32; 1 + RPC_HDR_WORDS];
    for (i, slot) in prefix.iter_mut().enumerate() {
        *slot = m.read_u32_be(buf + 4 * i);
        m.compute(1);
    }
    let Some((msg_len, meta)) = ReplyMeta::parse_prefix(&prefix) else {
        return Err(Reject::BadFormat("reply prefix"));
    };
    if msg_len > payload_len {
        return Err(Reject::BadFormat("length field exceeds payload"));
    }
    let data_len = meta.data_len as usize;
    let offset = meta.offset as usize;
    if offset + data_len > app_out.len {
        return Err(Reject::BadFormat("chunk beyond file bounds"));
    }
    let dst = app_out.base + offset;
    let words = data_len / 4;
    for i in 0..words {
        let w = m.read_u32_be(buf + PREFIX_BYTES + 4 * i);
        m.write_u32_be(dst + 4 * i, w);
        m.compute(1);
    }
    for k in words * 4..data_len {
        let b = m.read_u8(buf + PREFIX_BYTES + k);
        m.write_u8(dst + k, b);
        m.compute(1);
    }
    Ok(meta)
}

/// **ILP receive** of one chunk on `rx` into `app_out`, shaped by the
/// [`three_stage`] combinator: the initial stage staged the segment
/// ([`Connection::poll_input`]), the integrated stage runs the fused
/// checksum+decrypt+unmarshal loop (and cannot reject), and the final
/// stage renders the accept/reject verdict before any TCP state moves.
pub fn recv_chunk_ilp<C: CipherKernel + Copy, M: Mem>(
    s: &Scratch,
    cipher: C,
    m: &mut M,
    rx: &mut Connection,
    lb: &mut impl KernelPart,
    app_out: Region,
) -> Option<Result<ReplyMeta, Reject>> {
    recv_chunk_ilp_obs(s, cipher, m, rx, lb, app_out, &mut NoopObserver)
}

/// [`recv_chunk_ilp`] with span attribution: the poll reports as the
/// initial stage, and the [`three_stage_observed`] combinator brackets
/// the fused loop (integrated stage, one inseparable span) and the
/// verdict (final stage).
pub fn recv_chunk_ilp_obs<C: CipherKernel + Copy, M: Mem, O: SpanObserver>(
    s: &Scratch,
    cipher: C,
    m: &mut M,
    rx: &mut Connection,
    lb: &mut impl KernelPart,
    app_out: Region,
    obs: &mut O,
) -> Option<Result<ReplyMeta, Reject>> {
    const PATH: PathLabel = PathLabel::Ilp;
    let d = rx.poll_input_obs(m, lb, obs, PATH)?;
    let seg = d.ctx;
    if O::ENABLED {
        if let Some(tag) = seg {
            obs.seg(tag, SegEv::RecvStage(Stage::Initial));
        }
    }
    let code = s.code_ilp_recv;
    let verdict = three_stage_observed(
        m,
        obs,
        PATH,
        [Layer::Tcp, Layer::Fused, Layer::Tcp],
        |_m| Ok(d),
        |m, d| {
            let mut stages = Fused::new(ChecksumTap::new(), DecryptStage::new(cipher));
            // An out-of-order or duplicate segment is certain to be
            // rejected by the final stage — the fused pass still runs
            // in full (its checksum drives the repeat-ACK decision) but
            // unmarshals into staging so a stale retransmission that
            // was corrupted in flight cannot scribble over bytes the
            // application already owns.
            let mut sink = if d.in_order {
                ReplyUnmarshalSink::new(app_out.base, app_out.len)
            } else {
                ReplyUnmarshalSink::staging(s.recv_staging.base, s.recv_staging.len)
            };
            let mut source = OpaqueSource::new(d.payload_addr, d.payload_len);
            ilp_run(m, &mut source, &mut stages, &mut sink, 1, Some(code))
                .expect("negotiated unit fits registers");
            (stages.a.sum(), sink)
        },
        |m, d, (sum, sink)| {
            rx.finish_recv(m, lb, d, *sum)?;
            if sink.meta().is_none() {
                return Err(Reject::BadFormat("reply prefix"));
            }
            Ok(())
        },
    );
    // The final stage ran plain `finish_recv` (the combinator closure
    // has no observer), so its hold/accept/ack marks are parked on the
    // connection; forward them now, bracketed by the stage marks.
    if O::ENABLED {
        if let Some(tag) = seg {
            obs.seg(tag, SegEv::RecvStage(Stage::Integrated));
        }
    }
    rx.drain_seg_marks(obs);
    if O::ENABLED && verdict.is_ok() {
        if let Some(tag) = seg {
            obs.seg(tag, SegEv::RecvStage(Stage::Final));
        }
    }
    Some(verdict.map(|(_, sink)| sink.meta().expect("checked in final stage").1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cipher::SimplifiedSafer;
    use utcp::Loopback;
    use memsim::NativeMem;

    struct World {
        space: AddressSpace,
        lb: Loopback,
        tx: Connection,
        rx: Connection,
        scratch: Scratch,
        cipher: SimplifiedSafer,
        file: Region,
        app_out: Region,
    }

    fn world() -> World {
        let mut space = AddressSpace::new();
        let cipher = SimplifiedSafer::alloc(&mut space);
        let mut lb = Loopback::new(&mut space);
        let tx_cfg =
            utcp::UtcpConfig { local_port: 4000, peer_port: 5000, ..Default::default() };
        let rx_cfg = utcp::UtcpConfig {
            local_port: 5000,
            peer_port: 4000,
            local_ip: tx_cfg.peer_ip,
            peer_ip: tx_cfg.local_ip,
            ..Default::default()
        };
        let mut tx = Connection::new(&mut space, &mut lb, tx_cfg, 0x1000);
        let mut rx = Connection::new(&mut space, &mut lb, rx_cfg, 0x9000);
        rx.set_peer_iss(0x1000);
        tx.set_peer_iss(0x9000);
        let scratch = Scratch::alloc(&mut space);
        let file = space.alloc_kind("app_file", 4096, 64, RegionKind::AppData);
        let app_out = space.alloc_kind("app_out", 4096, 64, RegionKind::AppData);
        World { space, lb, tx, rx, scratch, cipher, file, app_out }
    }

    fn meta(seq: u32, offset: u32, data_len: u32) -> ReplyMeta {
        ReplyMeta { request_id: 0x53525621, seq, offset, last: 0, data_len }
    }

    #[test]
    fn ilp_and_non_ilp_interoperate_over_explicit_connections() {
        let mut w = world();
        let mut arena = w.space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        w.cipher.init(&mut m, *b"ILP95key");
        for i in 0..1024 {
            m.write_u8(w.file.at(i), ((i * 7 + 3) % 256) as u8);
        }
        let a = meta(0, 0, 600);
        send_chunk_ilp(&w.scratch, w.cipher, &mut m, &mut w.tx, &mut w.lb, &a, w.file.base)
            .unwrap();
        let got = recv_chunk_non_ilp(&w.scratch, &w.cipher, &mut m, &mut w.rx, &mut w.lb, w.app_out)
            .expect("delivered")
            .expect("accepted");
        assert_eq!(got, a);
        while w.tx.poll_input(&mut m, &mut w.lb).is_some() {}
        let b = meta(1, 600, 400);
        send_chunk_non_ilp(&w.scratch, &w.cipher, &mut m, &mut w.tx, &mut w.lb, &b, w.file.at(600))
            .unwrap();
        let got = recv_chunk_ilp(&w.scratch, w.cipher, &mut m, &mut w.rx, &mut w.lb, w.app_out)
            .expect("delivered")
            .expect("accepted");
        assert_eq!(got, b);
        for i in 0..1000 {
            assert_eq!(m.bytes(w.app_out.at(i), 1)[0], ((i * 7 + 3) % 256) as u8, "byte {i}");
        }
    }

    #[test]
    fn pipeline_wire_bytes_match_rpcapp_suite() {
        // The detached pipeline must speak the exact wire format of the
        // single-pair Suite paths — same prefix, same ciphertext.
        use rpcapp::suite::{Suite, SuiteInit};
        let mut w = world();
        let mut arena = w.space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        w.cipher.init(&mut m, *b"ILP95key");
        for i in 0..512 {
            m.write_u8(w.file.at(i), (i % 251) as u8);
        }
        let meta0 = meta(0, 0, 500);
        send_chunk_ilp(&w.scratch, w.cipher, &mut m, &mut w.tx, &mut w.lb, &meta0, w.file.base)
            .unwrap();
        let d = w.rx.poll_input(&mut m, &mut w.lb).unwrap();
        let wire_pipeline = m.bytes(d.payload_addr, d.payload_len).to_vec();

        let mut space2 = AddressSpace::new();
        let mut s = Suite::simplified(&mut space2);
        let mut arena2 = space2.native_arena();
        let mut m2 = NativeMem::new(&mut arena2);
        s.init_world(&mut m2);
        for i in 0..512 {
            m2.write_u8(s.file.at(i), (i % 251) as u8);
        }
        let suite_file = s.file.base;
        rpcapp::paths::send_reply_ilp(&mut s, &mut m2, &meta0, suite_file).unwrap();
        let d2 = s.rx.poll_input(&mut m2, &mut s.lb).unwrap();
        assert_eq!(wire_pipeline, m2.bytes(d2.payload_addr, d2.payload_len).to_vec());
    }

    #[test]
    fn pipeline_transfer_tears_down_to_closed_on_both_sides() {
        use utcp::State;
        let mut w = world();
        let mut arena = w.space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        w.cipher.init(&mut m, *b"ILP95key");
        for i in 0..512 {
            m.write_u8(w.file.at(i), (i % 241) as u8);
        }
        let a = meta(0, 0, 512);
        send_chunk_ilp(&w.scratch, w.cipher, &mut m, &mut w.tx, &mut w.lb, &a, w.file.base)
            .unwrap();
        // Close refuses while the chunk is unacknowledged.
        let mut obs = NoopObserver;
        assert!(!close_when_drained(&mut m, &mut w.tx, &mut w.lb, &mut obs));
        assert_eq!(w.tx.state(), State::Established);
        recv_chunk_ilp(&w.scratch, w.cipher, &mut m, &mut w.rx, &mut w.lb, w.app_out)
            .expect("delivered")
            .expect("accepted");
        while w.tx.poll_input(&mut m, &mut w.lb).is_some() {}
        // Drained: the close goes out and the peer answers in kind.
        assert!(close_when_drained(&mut m, &mut w.tx, &mut w.lb, &mut obs));
        assert_eq!(w.tx.state(), State::FinWait1);
        while w.rx.poll_input(&mut m, &mut w.lb).is_some() {}
        assert_eq!(w.rx.state(), State::CloseWait);
        assert!(close_when_drained(&mut m, &mut w.rx, &mut w.lb, &mut obs));
        assert_eq!(w.rx.state(), State::LastAck);
        while w.tx.poll_input(&mut m, &mut w.lb).is_some() {}
        while w.rx.poll_input(&mut m, &mut w.lb).is_some() {}
        assert_eq!(w.tx.state(), State::TimeWait);
        assert_eq!(w.rx.state(), State::Closed);
        for _ in 0..2 * utcp::MSL_TICKS {
            w.tx.tick(&mut m, &mut w.lb);
        }
        assert_eq!(w.tx.state(), State::Closed);
        // A closed pipeline refuses new work with the lifecycle error.
        let b = meta(1, 0, 64);
        assert!(matches!(
            send_chunk_ilp(&w.scratch, w.cipher, &mut m, &mut w.tx, &mut w.lb, &b, w.file.base),
            Err(SendError::Closing)
        ));
    }

    #[test]
    fn corrupted_segment_rejected_in_the_final_stage() {
        let mut w = world();
        w.lb.set_faults(utcp::FaultPlan { corrupt_every: 1, ..Default::default() });
        let mut arena = w.space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        w.cipher.init(&mut m, *b"ILP95key");
        let a = meta(0, 0, 200);
        send_chunk_ilp(&w.scratch, w.cipher, &mut m, &mut w.tx, &mut w.lb, &a, w.file.base)
            .unwrap();
        let outcome = recv_chunk_ilp(&w.scratch, w.cipher, &mut m, &mut w.rx, &mut w.lb, w.app_out)
            .expect("delivered");
        assert!(matches!(outcome, Err(Reject::BadChecksum { .. })));
        assert_eq!(w.rx.stats.accepted, 0);
    }
}
