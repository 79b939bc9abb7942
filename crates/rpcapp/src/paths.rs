//! The four data paths: {send, receive} × {non-ILP, ILP}, plus the
//! placement-policy variants of §3.2.2.
//!
//! **Non-ILP send** (paper Figure 3, left): marshalling writes the
//! complete plaintext message to a buffer; encryption reads it and
//! writes the ciphertext to a second buffer; `tcp_send` copies that into
//! the ring; `tcp_output` re-reads the ring for the checksum; the system
//! copy moves it to the kernel. Five passes over the data.
//!
//! **ILP send** (Figure 3, right): one fused loop per message part —
//! the B→C→A schedule of Figure 4 — reads the application data once,
//! marshals/encrypts/checksums in registers, and stores straight into
//! the ring; then only the system copy remains.
//!
//! **Non-ILP receive** (Figure 5, left): system copy, checksum pass,
//! decrypt pass, unmarshal+copy pass.
//!
//! **ILP receive** (Figure 5, right): system copy, then one fused
//! checksum+decrypt+unmarshal loop delivering straight into the
//! application buffer; the accept/reject verdict falls in the final
//! stage (the three-stage split of §2.1: `poll_input` is the initial
//! stage, the fused loop the integrated stage, `finish_recv` the final
//! stage).

use checksum::internet::checksum_buf;
use cipher::CipherKernel;
use ilp_core::{ilp_run, ChecksumTap, DecryptStage, EncryptStage, Fused, Ordering, Reject, SegmentPlan};
use memsim::Mem;
use utcp::SendError;
use xdr::stream::OpaqueSource;

use crate::msg::{ReplyMeta, ReplyUnmarshalSink, ReplyWords, ENC_HDR_LEN, PREFIX_BYTES, RPC_HDR_WORDS};
use crate::suite::Suite;

/// Outcome of a receive poll.
pub type RecvOutcome = Option<Result<ReplyMeta, Reject>>;

// ----------------------------------------------------------------------
// Send
// ----------------------------------------------------------------------

/// Non-ILP marshalling pass: build the complete plaintext message
/// (encryption header + RPC header + XDR data + alignment) in
/// `marshal_buf`. One read of the application data, one write of the
/// message.
fn marshal_pass<C: CipherKernel, M: Mem>(
    s: &Suite<C>,
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
    // Alignment bytes to the cipher block.
    let body_end = PREFIX_BYTES + xdr::runtime::pad4(data_len);
    for off in (body_end..padded).step_by(4) {
        m.write_u32_be(out + off, 0);
        m.compute(1);
    }
    padded
}

/// **Non-ILP send**: marshal → encrypt → `tcp_send`/`tcp_output`
/// (copy + checksum + header + system copy).
///
/// # Errors
/// Propagates transport back-pressure ([`SendError`]).
pub fn send_reply_non_ilp<C: CipherKernel, M: Mem>(
    s: &mut Suite<C>,
    m: &mut M,
    meta: &ReplyMeta,
    data_addr: usize,
) -> Result<usize, SendError> {
    let padded = marshal_pass(s, m, meta, data_addr); // step 1
    cipher::encrypt_buf(&s.cipher, m, s.marshal_buf.base, s.encrypt_buf.base, padded); // step 2
    m.fetch(s.code_copy);
    m.fetch(s.code_checksum);
    s.tx.send_buf(m, &mut s.lb, s.encrypt_buf.base, padded)?; // steps 3–5
    Ok(padded)
}

/// **ILP send**: one fused marshal+encrypt+checksum loop per message
/// part, stored directly into the TCP ring in B→C→A order; the header
/// checksum is patched from the register-resident sum.
///
/// # Errors
/// Propagates transport back-pressure ([`SendError`]).
pub fn send_reply_ilp<C: CipherKernel + Copy, M: Mem>(
    s: &mut Suite<C>,
    m: &mut M,
    meta: &ReplyMeta,
    data_addr: usize,
) -> Result<usize, SendError> {
    let padded = meta.padded_len(C::UNIT);
    let plan = SegmentPlan::for_message(
        ENC_HDR_LEN,
        meta.marshalled_len(),
        C::UNIT,
        Ordering::Unconstrained,
    )
    .expect("block cipher stack is fusible");
    debug_assert_eq!(plan.padded_len, padded);

    let (extent, _writer0) = s.tx.begin_ilp_send(padded)?;
    let words = ReplyWords::new(meta, data_addr, C::UNIT);
    let mut stages = Fused::new(EncryptStage::new(s.cipher), ChecksumTap::new());
    for part in plan.processing_order() {
        if part.is_empty() {
            continue;
        }
        // The part taps merge via InetChecksum::combine, which requires
        // even byte counts at even offsets; SegmentPlan's block-aligned
        // parts (block % 4 == 0) guarantee it, and a future odd-sized
        // part C would otherwise corrupt the patched header checksum.
        debug_assert!(
            part.start % 2 == 0 && part.len() % 2 == 0,
            "combine precondition: part [{}, {}) must be even-aligned",
            part.start,
            part.end
        );
        let mut source = words.range_source(part.start / 4, part.end / 4);
        let mut sink = s.tx.ring_writer_at(extent, part.start);
        ilp_run(m, &mut source, &mut stages, &mut sink, 1, Some(s.code_ilp_send))
            .expect("negotiated unit fits registers");
    }
    s.tx.commit_send(m, &mut s.lb, extent, stages.b.sum());
    Ok(padded)
}

/// **ILP send with early manipulation** (§3.2.2's alternative policy):
/// when the ring is full, data manipulations can run "as early as
/// possible" into a staging buffer; once space frees up, only a copy and
/// the header remain. This costs an extra read+write pass over the
/// message, which is why the paper (and this default) prefer delaying
/// the whole loop — the variant exists for the placement experiment.
///
/// # Errors
/// Propagates transport back-pressure ([`SendError`]).
pub fn send_reply_ilp_staged<C: CipherKernel + Copy, M: Mem>(
    s: &mut Suite<C>,
    m: &mut M,
    meta: &ReplyMeta,
    data_addr: usize,
) -> Result<usize, SendError> {
    use ilp_core::LinearSink;
    let padded = meta.padded_len(C::UNIT);
    let plan = SegmentPlan::for_message(
        ENC_HDR_LEN,
        meta.marshalled_len(),
        C::UNIT,
        Ordering::Unconstrained,
    )
    .expect("fusible");
    // Manipulate early, into the staging buffer.
    let words = ReplyWords::new(meta, data_addr, C::UNIT);
    let mut stages = Fused::new(EncryptStage::new(s.cipher), ChecksumTap::new());
    for part in plan.processing_order() {
        if part.is_empty() {
            continue;
        }
        // Same combine precondition as the direct ILP send: parts must
        // cover even byte counts at even offsets for the checksum taps
        // to reassociate.
        debug_assert!(
            part.start % 2 == 0 && part.len() % 2 == 0,
            "combine precondition: part [{}, {}) must be even-aligned",
            part.start,
            part.end
        );
        let mut source = words.range_source(part.start / 4, part.end / 4);
        let mut sink = LinearSink::new(s.staging.base + part.start);
        ilp_run(m, &mut source, &mut stages, &mut sink, 1, Some(s.code_ilp_send))
            .expect("negotiated unit fits registers");
    }
    // Later (here: immediately), when buffer space is available: copy
    // staging → ring and ship with the precomputed checksum.
    let (extent, _) = s.tx.begin_ilp_send(padded)?;
    m.fetch(s.code_copy);
    m.copy(s.staging.base, s.tx.ring_writer_at(extent, 0).base_addr(), padded);
    s.tx.commit_send(m, &mut s.lb, extent, stages.b.sum());
    Ok(padded)
}

// ----------------------------------------------------------------------
// Receive
// ----------------------------------------------------------------------

/// Non-ILP unmarshal+copy pass: parse the decrypted message in
/// `decrypt_buf` and copy the chunk into the output file.
fn unmarshal_pass<C: CipherKernel, M: Mem>(
    s: &Suite<C>,
    m: &mut M,
    payload_len: usize,
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
    if offset + data_len > s.app_out.len {
        return Err(Reject::BadFormat("chunk beyond file bounds"));
    }
    let dst = s.app_out.base + offset;
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

/// **Non-ILP receive**: checksum pass (in `tcp_input`), then decrypt
/// pass, then unmarshal+copy pass — each over the whole message.
pub fn recv_reply_non_ilp<C: CipherKernel, M: Mem>(s: &mut Suite<C>, m: &mut M) -> RecvOutcome {
    let d = s.rx.poll_input(m, &mut s.lb)?;
    m.fetch(s.code_checksum);
    let payload_sum = checksum_buf(m, d.payload_addr, d.payload_len); // step 2
    if let Err(e) = s.rx.finish_recv(m, &mut s.lb, &d, payload_sum) {
        return Some(Err(e));
    }
    cipher::decrypt_buf(&s.cipher, m, d.payload_addr, s.decrypt_buf.base, d.payload_len); // step 3
    Some(unmarshal_pass(s, m, d.payload_len)) // step 4
}

/// **ILP receive**: one fused checksum+decrypt+unmarshal loop straight
/// off the staging buffer, then the final accept/reject stage.
pub fn recv_reply_ilp<C: CipherKernel + Copy, M: Mem>(s: &mut Suite<C>, m: &mut M) -> RecvOutcome {
    // Initial stage: system copy + header parse + demux.
    let d = s.rx.poll_input(m, &mut s.lb)?;
    // Integrated stage: checksum over the ciphertext, then decrypt, then
    // unmarshal into the application buffer — one pass.
    let mut stages = Fused::new(ChecksumTap::new(), DecryptStage::new(s.cipher));
    // Out-of-order segments will be rejected in the final stage; run
    // the fused pass into staging (§3.2.2 pre-manipulation) so a stale
    // corrupted retransmission cannot scribble on delivered app bytes.
    let mut sink = if d.in_order {
        ReplyUnmarshalSink::new(s.app_out.base, s.app_out.len)
    } else {
        ReplyUnmarshalSink::staging(s.staging.base, s.staging.len)
    };
    let mut source = OpaqueSource::new(d.payload_addr, d.payload_len);
    ilp_run(m, &mut source, &mut stages, &mut sink, 1, Some(s.code_ilp_recv))
        .expect("negotiated unit fits registers");
    // Final stage: verdict. Checksum errors and unmarshalling errors are
    // both known here, before any TCP state was touched.
    if let Err(e) = s.rx.finish_recv(m, &mut s.lb, &d, stages.a.sum()) {
        return Some(Err(e));
    }
    match sink.meta() {
        Some((_, meta)) => Some(Ok(meta)),
        None => Some(Err(Reject::BadFormat("reply prefix"))),
    }
}

/// **ILP receive, late-manipulation variant** (§3.2.2): TCP verifies the
/// checksum and acknowledges immediately (its own read pass), and the
/// fused decrypt+unmarshal loop runs later, "very close to the
/// application operations". Costs one extra pass over the data; the
/// paper measured the two placements within ~5 µs of each other.
pub fn recv_reply_ilp_late<C: CipherKernel + Copy, M: Mem>(
    s: &mut Suite<C>,
    m: &mut M,
) -> RecvOutcome {
    let d = s.rx.poll_input(m, &mut s.lb)?;
    m.fetch(s.code_checksum);
    let payload_sum = checksum_buf(m, d.payload_addr, d.payload_len);
    if let Err(e) = s.rx.finish_recv(m, &mut s.lb, &d, payload_sum) {
        return Some(Err(e));
    }
    // Later, at application level: fused decrypt+unmarshal (no checksum
    // tap — already verified).
    let mut stages = DecryptStage::new(s.cipher);
    let mut sink = ReplyUnmarshalSink::new(s.app_out.base, s.app_out.len);
    let mut source = OpaqueSource::new(d.payload_addr, d.payload_len);
    ilp_run(m, &mut source, &mut stages, &mut sink, 1, Some(s.code_ilp_recv))
        .expect("negotiated unit fits registers");
    match sink.meta() {
        Some((_, meta)) => Some(Ok(meta)),
        None => Some(Err(Reject::BadFormat("reply prefix"))),
    }
}

/// Drain and process any pending ACKs on the sender side.
pub fn pump_acks<C: CipherKernel, M: Mem>(s: &mut Suite<C>, m: &mut M) {
    while s.tx.poll_input(m, &mut s.lb).is_some() {
        // Data segments never arrive on the sender's connection in the
        // uni-directional profile; poll_input consumed pure ACKs.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::SuiteInit;
    use memsim::{AddressSpace, NativeMem};

    fn fill_file<M: Mem>(s: &Suite<cipher::SimplifiedSafer>, m: &mut M, len: usize) {
        for i in 0..len {
            m.write_u8(s.file.at(i), ((i * 31 + 7) % 256) as u8);
        }
    }

    fn meta(seq: u32, offset: u32, data_len: u32) -> ReplyMeta {
        ReplyMeta { request_id: 1, seq, offset, last: 0, data_len }
    }

    #[test]
    fn non_ilp_roundtrip_delivers_the_chunk() {
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let file = s.file;
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        s.init_world(&mut m);
        fill_file(&s, &mut m, 1024);
        let meta0 = meta(0, 0, 1000);
        send_reply_non_ilp(&mut s, &mut m, &meta0, file.base).unwrap();
        let got = recv_reply_non_ilp(&mut s, &mut m).expect("delivered").expect("accepted");
        assert_eq!(got, meta0);
        for i in 0..1000 {
            assert_eq!(
                m.bytes(s.app_out.at(i), 1)[0],
                ((i * 31 + 7) % 256) as u8,
                "byte {i}"
            );
        }
        pump_acks(&mut s, &mut m);
        assert_eq!(s.tx.in_flight(), 0);
    }

    #[test]
    fn ilp_roundtrip_delivers_the_chunk() {
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let file = s.file;
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        s.init_world(&mut m);
        fill_file(&s, &mut m, 1024);
        let meta0 = meta(0, 0, 1000);
        send_reply_ilp(&mut s, &mut m, &meta0, file.base).unwrap();
        let got = recv_reply_ilp(&mut s, &mut m).expect("delivered").expect("accepted");
        assert_eq!(got, meta0);
        for i in 0..1000 {
            assert_eq!(m.bytes(s.app_out.at(i), 1)[0], ((i * 31 + 7) % 256) as u8);
        }
    }

    #[test]
    fn ilp_and_non_ilp_produce_identical_wire_bytes() {
        // The central correctness claim: the two implementations are the
        // same protocol. Send the same message through both paths and
        // compare the kernel-buffer bytes.
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let file = s.file;
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        s.init_world(&mut m);
        fill_file(&s, &mut m, 512);
        let meta0 = meta(0, 0, 500);

        send_reply_non_ilp(&mut s, &mut m, &meta0, file.base).unwrap();
        let d1 = s.rx.poll_input(&mut m, &mut s.lb).unwrap();
        let wire1: Vec<u8> = m.bytes(d1.payload_addr, d1.payload_len).to_vec();
        let sum1 = checksum_buf(&mut m, d1.payload_addr, d1.payload_len);
        s.rx.finish_recv(&mut m, &mut s.lb, &d1, sum1).unwrap();
        pump_acks(&mut s, &mut m);

        send_reply_ilp(&mut s, &mut m, &meta0, file.base).unwrap();
        let d2 = s.rx.poll_input(&mut m, &mut s.lb).unwrap();
        let wire2: Vec<u8> = m.bytes(d2.payload_addr, d2.payload_len).to_vec();
        assert_eq!(wire1, wire2, "ILP and non-ILP wire bytes must be identical");
        let sum2 = checksum_buf(&mut m, d2.payload_addr, d2.payload_len);
        s.rx.finish_recv(&mut m, &mut s.lb, &d2, sum2).unwrap();
    }

    #[test]
    fn cross_paths_interoperate() {
        // ILP sender → non-ILP receiver and vice versa.
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let file = s.file;
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        s.init_world(&mut m);
        fill_file(&s, &mut m, 600);
        let a = meta(0, 0, 300);
        send_reply_ilp(&mut s, &mut m, &a, file.base).unwrap();
        assert_eq!(recv_reply_non_ilp(&mut s, &mut m).unwrap().unwrap(), a);
        pump_acks(&mut s, &mut m);
        let b = meta(1, 300, 300);
        send_reply_non_ilp(&mut s, &mut m, &b, file.at(300)).unwrap();
        assert_eq!(recv_reply_ilp(&mut s, &mut m).unwrap().unwrap(), b);
    }

    #[test]
    fn very_simple_cipher_paths_roundtrip() {
        let mut space = AddressSpace::new();
        let mut s = Suite::very_simple(&mut space);
        let file = s.file;
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        for i in 0..256 {
            m.write_u8(file.at(i), i as u8);
        }
        let meta0 = meta(0, 0, 250);
        send_reply_ilp(&mut s, &mut m, &meta0, file.base).unwrap();
        let got = recv_reply_ilp(&mut s, &mut m).expect("delivered").expect("accepted");
        assert_eq!(got, meta0);
        for i in 0..250 {
            assert_eq!(m.bytes(s.app_out.at(i), 1)[0], i as u8);
        }
    }

    #[test]
    fn late_placement_variant_delivers_identically() {
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let file = s.file;
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        s.init_world(&mut m);
        fill_file(&s, &mut m, 512);
        let meta0 = meta(0, 0, 512);
        send_reply_ilp(&mut s, &mut m, &meta0, file.base).unwrap();
        let got = recv_reply_ilp_late(&mut s, &mut m).unwrap().unwrap();
        assert_eq!(got, meta0);
        for i in 0..512 {
            assert_eq!(m.bytes(s.app_out.at(i), 1)[0], ((i * 31 + 7) % 256) as u8);
        }
    }

    #[test]
    fn staged_send_variant_interoperates() {
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let file = s.file;
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        s.init_world(&mut m);
        fill_file(&s, &mut m, 512);
        let meta0 = meta(0, 0, 480);
        send_reply_ilp_staged(&mut s, &mut m, &meta0, file.base).unwrap();
        let got = recv_reply_ilp(&mut s, &mut m).unwrap().unwrap();
        assert_eq!(got, meta0);
    }

    #[test]
    fn corrupted_ciphertext_rejected_by_both_receivers() {
        for ilp in [false, true] {
            let mut space = AddressSpace::new();
            let mut s = Suite::simplified(&mut space);
            let file = s.file;
            let mut arena = space.native_arena();
            let mut m = NativeMem::new(&mut arena);
            s.init_world(&mut m);
            fill_file(&s, &mut m, 256);
            let meta0 = meta(0, 0, 200);
            send_reply_ilp(&mut s, &mut m, &meta0, file.base).unwrap();
            // Corrupt the datagram in the kernel buffer before delivery.
            let d_peek = s.rx.poll_input(&mut m, &mut s.lb).unwrap();
            let b = m.bytes(d_peek.payload_addr, 1)[0];
            m.bytes_mut(d_peek.payload_addr, 1)[0] = b ^ 0x80;
            // The segment is already staged; run the integrated+final
            // stages of the chosen receiver on the corrupted staging.
            let outcome = if ilp {
                let mut stages = Fused::new(ChecksumTap::new(), DecryptStage::new(s.cipher));
                let mut sink = ReplyUnmarshalSink::new(s.app_out.base, s.app_out.len);
                let mut source = OpaqueSource::new(d_peek.payload_addr, d_peek.payload_len);
                ilp_run(&mut m, &mut source, &mut stages, &mut sink, 1, None).unwrap();
                s.rx.finish_recv(&mut m, &mut s.lb, &d_peek, stages.a.sum())
            } else {
                let sum = checksum_buf(&mut m, d_peek.payload_addr, d_peek.payload_len);
                s.rx.finish_recv(&mut m, &mut s.lb, &d_peek, sum)
            };
            assert!(matches!(outcome, Err(Reject::BadChecksum { .. })), "ilp={ilp}");
        }
    }

    #[test]
    fn backpressure_surfaces_from_both_send_paths() {
        let mut space = AddressSpace::new();
        let mut s = Suite::simplified(&mut space);
        let file = s.file;
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        s.init_world(&mut m);
        fill_file(&s, &mut m, 2048);
        let chunk = meta(0, 0, 1000);
        // Fill the 16 KB ring without draining ACKs.
        let mut sent = 0;
        loop {
            match send_reply_ilp(&mut s, &mut m, &chunk, file.base) {
                Ok(_) => sent += 1,
                Err(SendError::WindowClosed) | Err(SendError::BufferFull) => break,
                Err(e) => panic!("unexpected {e}"),
            }
            assert!(sent < 100, "backpressure never engaged");
        }
        assert!(sent >= 2);
        assert!(matches!(
            send_reply_non_ilp(&mut s, &mut m, &chunk, file.base),
            Err(SendError::WindowClosed) | Err(SendError::BufferFull)
        ));
    }
}
