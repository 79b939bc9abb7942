//! Internet checksum (RFC 1071), the TCP checksum of the paper's stack.
//!
//! The checksum's natural processing unit is 2 bytes (§2.1 of the paper),
//! but like the BSD implementations of the day the buffer kernels here load
//! 4-byte words and split them in registers — the memory traffic is what
//! the paper's Figure 13 counts, and it is word traffic.
//!
//! Three forms are provided:
//!
//! * [`checksum_buf`] — one pass over a buffer (the non-ILP `tcp_output`
//!   step 4 of the paper's Figure 3: one read access per word).
//! * [`InetChecksum`] — a register-resident streaming accumulator for
//!   fusion into ILP loops: words produced by earlier stages are added
//!   without any memory access.
//! * [`PseudoHeader`] — the TCP pseudo-header contribution.
//!
//! One's-complement addition is commutative and associative, so partial
//! sums over message parts can be combined in any order — the property
//! that lets the ILP loop process part B before parts C and A and still
//! patch the header checksum last.

use memsim::Mem;

/// Streaming Internet-checksum accumulator. Lives entirely in registers —
/// fusing it into a loop adds compute operations but zero memory traffic.
///
/// The running sum is a 64-bit one's-complement sum with *deferred
/// carries* (RFC 1071 §2(B)/(C)): 16-, 32- and 64-bit big-endian words
/// are added whole into a `u64`, and the only per-add work beyond the add is
/// folding the rare carry out of bit 63 back into bit 0. Because
/// `2^16 ≡ 1 (mod 2^16 − 1)`, a 32-bit word `hi·2^16 + lo` contributes
/// exactly what its two halves would, so the fold down to 16 bits
/// happens once, in [`InetChecksum::fold`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InetChecksum {
    /// 64-bit one's-complement running sum (end-around carry).
    sum: u64,
}

impl InetChecksum {
    /// Fresh accumulator.
    pub fn new() -> Self {
        InetChecksum { sum: 0 }
    }

    /// One's-complement add of `v` into the 64-bit sum.
    #[inline(always)]
    fn add(&mut self, v: u64) {
        let (sum, carry) = self.sum.overflowing_add(v);
        self.sum = sum + u64::from(carry);
    }

    /// Add one 16-bit big-endian word.
    #[inline(always)]
    pub fn add_u16(&mut self, word: u16) {
        self.add(u64::from(word));
    }

    /// Add a 32-bit big-endian word (two 16-bit halves).
    #[inline(always)]
    pub fn add_u32(&mut self, word: u32) {
        self.add(u64::from(word));
    }

    /// Add a 64-bit big-endian word (four 16-bit halves) — the natural
    /// unit when fused after an 8-byte-block cipher stage.
    #[inline(always)]
    pub fn add_u64(&mut self, word: u64) {
        self.add(word);
    }

    /// Add a final odd byte, padded with a zero low byte per RFC 1071.
    #[inline(always)]
    pub fn add_final_byte(&mut self, byte: u8) {
        self.add_u16(u16::from(byte) << 8);
    }

    /// Combine with another partial sum (any order — the checksum is not
    /// ordering-constrained). Both parts must cover an even byte count at
    /// even offsets.
    #[inline(always)]
    pub fn combine(&mut self, other: InetChecksum) {
        self.add(other.sum);
    }

    /// Fold to 16 bits without complementing (partial-sum form).
    #[inline(always)]
    pub fn fold(self) -> u16 {
        let mut s = self.sum;
        while s >> 16 != 0 {
            s = (s & 0xFFFF) + (s >> 16);
        }
        s as u16
    }

    /// Final one's-complement checksum value for the header field.
    #[inline(always)]
    pub fn finish(self) -> u16 {
        !self.fold()
    }

    /// Number of register operations per 32-bit word added, for
    /// [`memsim::Mem::compute`] accounting (two adds plus amortised fold
    /// and shift work).
    pub const OPS_PER_U32: u32 = 4;
}

/// The TCP pseudo-header (RFC 793): source/destination IPv4 address,
/// protocol, and TCP segment length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PseudoHeader {
    /// Source IPv4 address.
    pub src: u32,
    /// Destination IPv4 address.
    pub dst: u32,
    /// IP protocol number (6 for TCP).
    pub protocol: u8,
    /// TCP header + payload length in bytes.
    pub tcp_len: u16,
}

impl PseudoHeader {
    /// Add this pseudo-header's contribution to a running checksum.
    /// Pure register work: the pseudo-header is synthesised, never stored.
    #[inline(always)]
    pub fn add_to(&self, sum: &mut InetChecksum) {
        sum.add_u32(self.src);
        sum.add_u32(self.dst);
        sum.add_u16(u16::from(self.protocol));
        sum.add_u16(self.tcp_len);
    }
}

/// One-shot checksum of `len` bytes at `addr`: 4-byte reads with register
/// splitting, byte tail per RFC 1071. This is the non-ILP checksum pass.
pub fn checksum_buf<M: Mem>(m: &mut M, addr: usize, len: usize) -> InetChecksum {
    let mut sum = InetChecksum::new();
    add_buf(m, addr, len, &mut sum);
    sum
}

/// Add `len` bytes at `addr` to an existing accumulator.
pub fn add_buf<M: Mem>(m: &mut M, addr: usize, len: usize, sum: &mut InetChecksum) {
    let words = len / 4;
    for i in 0..words {
        let w = m.read_u32_be(addr + 4 * i);
        sum.add_u32(w);
        m.compute(InetChecksum::OPS_PER_U32);
    }
    let mut off = words * 4;
    if len - off >= 2 {
        let w = m.read_u16_be(addr + off);
        sum.add_u16(w);
        m.compute(2);
        off += 2;
    }
    if off < len {
        let b = m.read_u8(addr + off);
        sum.add_final_byte(b);
        m.compute(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{AddressSpace, NativeMem};

    /// Reference bit-at-a-time implementation over a byte slice.
    fn reference(bytes: &[u8]) -> u16 {
        let mut sum = 0u32;
        let mut chunks = bytes.chunks_exact(2);
        for c in &mut chunks {
            sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
        }
        if let [b] = chunks.remainder() {
            sum += u32::from(*b) << 8;
        }
        reference_finish(sum)
    }

    /// The reference's last step: fold a plain sum of 16-bit words and
    /// complement it.
    fn reference_finish(mut sum: u32) -> u16 {
        while sum >> 16 != 0 {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }

    fn with_buf(bytes: &[u8], f: impl FnOnce(&mut NativeMem<'_>, usize)) {
        let mut space = AddressSpace::new();
        let r = space.alloc("buf", bytes.len().max(1), 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        m.bytes_mut(r.base, bytes.len()).copy_from_slice(bytes);
        f(&mut m, r.base);
    }

    #[test]
    fn rfc1071_worked_example() {
        // RFC 1071 §3 example: bytes 00 01 f2 03 f4 f5 f6 f7.
        let bytes = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        with_buf(&bytes, |m, addr| {
            let sum = checksum_buf(m, addr, 8);
            // Running sum 0x2ddf0 → folded 0xddf0 + 0x2 = 0xddf2.
            assert_eq!(sum.fold(), 0xddf2);
            assert_eq!(sum.finish(), !0xddf2);
        });
    }

    #[test]
    fn matches_reference_on_assorted_lengths() {
        for len in [0usize, 1, 2, 3, 4, 7, 8, 15, 20, 64, 1023, 1024] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            with_buf(&bytes, |m, addr| {
                let got = checksum_buf(m, addr, len).finish();
                assert_eq!(got, reference(&bytes), "len {len}");
            });
        }
    }

    #[test]
    fn all_zeros_checksums_to_ffff() {
        with_buf(&[0u8; 32], |m, addr| {
            assert_eq!(checksum_buf(m, addr, 32).finish(), 0xFFFF);
        });
    }

    #[test]
    fn streaming_u64_matches_buffer_pass() {
        let bytes: Vec<u8> = (0..64u8).collect();
        with_buf(&bytes, |m, addr| {
            let one_shot = checksum_buf(m, addr, 64).finish();
            let mut s = InetChecksum::new();
            for i in 0..8 {
                s.add_u64(m.read_u64_be(addr + 8 * i));
            }
            assert_eq!(s.finish(), one_shot);
        });
    }

    #[test]
    fn partial_sums_combine_in_any_order() {
        // The non-ordering-constrained property the B→C→A schedule needs.
        let bytes: Vec<u8> = (0..48).map(|i| (i * 73 + 11) as u8).collect();
        with_buf(&bytes, |m, addr| {
            let whole = checksum_buf(m, addr, 48).finish();
            let a = checksum_buf(m, addr, 16);
            let b = checksum_buf(m, addr + 16, 16);
            let c = checksum_buf(m, addr + 32, 16);
            for order in [[b, c, a], [c, a, b], [a, b, c], [c, b, a]] {
                let mut s = InetChecksum::new();
                for part in order {
                    s.combine(part);
                }
                assert_eq!(s.finish(), whole);
            }
        });
    }

    #[test]
    fn odd_length_parts_break_combining() {
        // Why `combine` demands even byte counts at even offsets: an
        // odd-length part checksummed on its own pads its trailing byte
        // with a zero *low* byte (RFC 1071), but in the whole message
        // that byte is the *high* half of a 16-bit pair with the next
        // part's first byte. Splitting at an odd offset therefore breaks
        // the pairing and the combined sum silently diverges — which is
        // what the `debug_assert!`s in the fused B→C→A senders guard
        // against. The even split of the same bytes agrees exactly.
        let bytes: Vec<u8> = (0..20).map(|i| (i * 29 + 5) as u8).collect();
        with_buf(&bytes, |m, addr| {
            let whole = checksum_buf(m, addr, 20).finish();
            let mut odd = InetChecksum::new();
            odd.combine(checksum_buf(m, addr, 7));
            odd.combine(checksum_buf(m, addr + 7, 13));
            assert_ne!(odd.finish(), whole, "odd-offset split must not reassociate");
            let mut even = InetChecksum::new();
            even.combine(checksum_buf(m, addr, 8));
            even.combine(checksum_buf(m, addr + 8, 12));
            assert_eq!(even.finish(), whole, "even split combines exactly");
        });
    }

    #[test]
    fn pseudo_header_contribution() {
        let ph = PseudoHeader { src: 0x0A000001, dst: 0x0A000002, protocol: 6, tcp_len: 1044 };
        let mut s = InetChecksum::new();
        ph.add_to(&mut s);
        let mut expect = InetChecksum::new();
        for w in [0x0A00u16, 0x0001, 0x0A00, 0x0002, 0x0006, 1044] {
            expect.add_u16(w);
        }
        assert_eq!(s.fold(), expect.fold());
    }

    #[test]
    fn verify_of_correct_segment_is_zero() {
        // A segment whose checksum field holds finish() sums to 0xFFFF,
        // i.e. verification yields 0 after complement.
        let mut bytes: Vec<u8> = (0..20).map(|i| (i * 7) as u8).collect();
        // Pretend offset 10 is the checksum field: zero it, sum, insert.
        bytes[10] = 0;
        bytes[11] = 0;
        let csum = reference(&bytes);
        bytes[10] = (csum >> 8) as u8;
        bytes[11] = csum as u8;
        with_buf(&bytes, |m, addr| {
            assert_eq!(checksum_buf(m, addr, 20).finish(), 0);
        });
    }

    #[test]
    fn deferred_fold_does_not_overflow() {
        let mut s = InetChecksum::new();
        for _ in 0..200_000 {
            s.add_u16(0xFFFF);
        }
        // Sum of n all-ones words folds back to 0xFFFF.
        assert_eq!(s.fold(), 0xFFFF);
    }

    /// `len` bytes from a xorshift64 generator seeded with `seed`.
    fn xorshift_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn deferred_carry_matches_reference_at_every_length() {
        // Every length 0..=65_535, odd ones included, over seeded
        // xorshift data: the prefixes of one 64 KiB buffer stand for the
        // buffers of each length. Each prefix is summed by `add_buf`
        // itself, continuing from a running sum of its whole 1 KiB blocks
        // (the way `add_buf` extends an accumulator at an even offset),
        // so the pass over the last 0..1023 bytes, tail steps included,
        // is the real one. The reference side keeps its running sum of
        // 16-bit pairs plus the padded odd byte.
        const BLOCK: usize = 1024;
        for seed in [0x9E37_79B9_7F4A_7C15, 0xD1B5_4A32_D192_ED03] {
            let bytes = xorshift_bytes(seed, 65_535);
            with_buf(&bytes, |m, addr| {
                let mut blocks = InetChecksum::new();
                let mut pairs = 0u32;
                for len in 0..=bytes.len() {
                    if len % BLOCK == 0 && len > 0 {
                        add_buf(m, addr + len - BLOCK, BLOCK, &mut blocks);
                    }
                    if len % 2 == 0 && len > 0 {
                        pairs += u32::from(u16::from_be_bytes([bytes[len - 2], bytes[len - 1]]));
                    }
                    let odd = if len % 2 == 1 { u32::from(bytes[len - 1]) << 8 } else { 0 };
                    let start = len / BLOCK * BLOCK;
                    let mut sum = blocks;
                    add_buf(m, addr + start, len - start, &mut sum);
                    assert_eq!(sum.finish(), reference_finish(pairs + odd), "seed {seed:#x} len {len}");
                }
                assert_eq!(
                    reference_finish(pairs + (u32::from(bytes[65_534]) << 8)),
                    reference(&bytes)
                );
            });
        }
    }

    #[test]
    fn buffer_pass_matches_reference_on_seeded_lengths() {
        // The memory-reading pass itself: every length up to 2 KiB, then
        // odd and even lengths spread up to the 64 KiB maximum.
        let big = [4095usize, 4096, 9001, 32_768, 32_769, 65_533, 65_534, 65_535];
        for len in (0..=2048).chain(big) {
            let bytes = xorshift_bytes(0x5EED ^ len as u64, len);
            with_buf(&bytes, |m, addr| {
                assert_eq!(checksum_buf(m, addr, len).finish(), reference(&bytes), "len {len}");
            });
        }
    }

    #[test]
    fn all_ones_64k_worst_case_carries() {
        // Every 16-bit add carries: 32 768 words of 0xFFFF, then the odd
        // 65 535-byte case whose tail is one padded 0xFF byte.
        for len in [65_536usize, 65_535] {
            let bytes = vec![0xFFu8; len];
            with_buf(&bytes, |m, addr| {
                let sum = checksum_buf(m, addr, len);
                assert_eq!(sum.finish(), reference(&bytes), "len {len}");
                if len % 8 == 0 {
                    let mut wide = InetChecksum::new();
                    for i in 0..len / 8 {
                        wide.add_u64(m.read_u64_be(addr + 8 * i));
                    }
                    assert_eq!(wide.fold(), sum.fold(), "64-bit adds, len {len}");
                }
            });
        }
    }

    #[test]
    fn split_then_combine_at_even_offsets() {
        // How SegmentPlan parts are merged: each part summed on its own
        // (in B, C, A order and others), then combined.
        let bytes = xorshift_bytes(0xC0FF_EE00, 65_535);
        with_buf(&bytes, |m, addr| {
            let whole = checksum_buf(m, addr, bytes.len()).finish();
            assert_eq!(whole, reference(&bytes));
            for (a, b) in [(0, 28), (28, 1052), (2, 65_534), (30_000, 30_002), (8, 65_528)] {
                let parts = [
                    checksum_buf(m, addr, a),
                    checksum_buf(m, addr + a, b - a),
                    checksum_buf(m, addr + b, bytes.len() - b),
                ];
                for order in [[1, 2, 0], [0, 1, 2], [2, 0, 1]] {
                    let mut s = InetChecksum::new();
                    for i in order {
                        s.combine(parts[i]);
                    }
                    assert_eq!(s.finish(), whole, "split at {a}, {b}, order {order:?}");
                }
            }
        });
    }

    #[test]
    fn memory_traffic_is_one_read_per_word() {
        use memsim::{HostModel, Mem, SimMem};
        let mut space = AddressSpace::new();
        let r = space.alloc("buf", 1024, 8);
        let mut m = SimMem::new(&space, &HostModel::ss10_30());
        let _ = checksum_buf(&mut m, r.base, 1024);
        let s = m.stats();
        assert_eq!(s.reads.total(), 256);
        assert_eq!(s.writes.total(), 0);
        assert_eq!(s.compute_ops, 256 * u64::from(InetChecksum::OPS_PER_U32));
        // Silence unused-import warning for Mem (trait needed for read calls inside).
        let _ = <SimMem as Mem>::read_u8;
    }
}
