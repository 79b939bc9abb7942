//! Pins the simulated access stream of one chunk on each data path.
//!
//! Every simulated figure in the repository (Figures 13 and 14, the
//! cost-model throughputs, the `perf_gate` baselines) is derived from the
//! stream of reads, writes, ALU-operation hints and instruction fetches
//! the kernels issue through [`memsim::Mem`]. Changes that only reshape
//! the machine code of the fused loops — inlining, keeping the exchange
//! unit in registers, hoisting checks out of the per-word loop — must
//! leave that stream bit-identical. This test runs one 1 KiB
//! `send_chunk_*` + `recv_chunk_*` pair per path over `SimMem` (plus an
//! ILP pair whose chunk ends in a partial word, to pin the unmarshal
//! tail) and compares against golden values: counts per access size, counts per
//! region kind, ALU operations, fetched instruction bytes, and a digest
//! of the full ordered trace (addresses, widths, load/store).

use cipher::SimplifiedSafer;
use memsim::{
    AccessKind, AddressSpace, HostModel, RegionKind, RunStats, SimMem, SizeClass,
};
use rpcapp::ReplyMeta;
use server::pipeline::{recv_chunk_ilp, recv_chunk_non_ilp, send_chunk_ilp, send_chunk_non_ilp};
use server::Scratch;
use utcp::{Connection, Loopback, UtcpConfig};

const KINDS: [RegionKind; 8] = [
    RegionKind::AppData,
    RegionKind::Buffer,
    RegionKind::Table,
    RegionKind::State,
    RegionKind::Ring,
    RegionKind::Kernel,
    RegionKind::Scratch,
    RegionKind::Text,
];

/// What one send + receive pair did to simulated memory.
#[derive(Debug, PartialEq, Eq)]
struct Stream {
    /// Reads per size class, B1/B2/B4/B8.
    reads: [u64; 4],
    /// Writes per size class, B1/B2/B4/B8.
    writes: [u64; 4],
    /// Reads per region kind, in [`KINDS`] order.
    reads_by_kind: [u64; 8],
    /// Writes per region kind, in [`KINDS`] order.
    writes_by_kind: [u64; 8],
    compute_ops: u64,
    fetch_bytes: u64,
    /// Number of traced accesses and their FNV-1a digest.
    trace_len: usize,
    trace_digest: u64,
}

impl Stream {
    fn of(stats: &RunStats, trace: &memsim::Trace) -> Stream {
        assert_eq!(trace.dropped, 0, "trace window too small");
        let sizes = SizeClass::all();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for e in trace.events() {
            let kind = match e.kind {
                AccessKind::Read => 0u8,
                AccessKind::Write => 1,
                AccessKind::Fetch => 2,
            };
            for b in e.addr.to_le_bytes().into_iter().chain([e.len, kind]) {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        Stream {
            reads: sizes.map(|s| stats.reads.by_size(s)),
            writes: sizes.map(|s| stats.writes.by_size(s)),
            reads_by_kind: KINDS.map(|k| stats.reads_for(k).total()),
            writes_by_kind: KINDS.map(|k| stats.writes_for(k).total()),
            compute_ops: stats.compute_ops,
            fetch_bytes: stats.fetch_bytes,
            trace_len: trace.events().len(),
            trace_digest: digest,
        }
    }
}

/// Build a fresh two-connection world, send one `len`-byte chunk on the
/// chosen path and receive it on the same path; return the access stream
/// of exactly that send + receive.
fn one_pair(ilp: bool, len: usize) -> Stream {
    let mut space = AddressSpace::new();
    let cipher = SimplifiedSafer::alloc(&mut space);
    let mut lb = Loopback::new(&mut space);
    let tx_cfg = UtcpConfig { local_port: 4000, peer_port: 5000, ..Default::default() };
    let rx_cfg = UtcpConfig {
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

    let mut m = SimMem::new(&space, &HostModel::ss10_30());
    cipher.init(&mut m, *b"ILP95key");
    let bytes: Vec<u8> = (0..len).map(|i| ((i * 7 + 3) % 251) as u8).collect();
    m.poke(file.base, &bytes);
    let meta = ReplyMeta { request_id: 0x5352_5621, seq: 0, offset: 0, last: 1, data_len: len as u32 };

    let _ = m.take_stats();
    m.start_trace(1 << 16);
    if ilp {
        send_chunk_ilp(&scratch, cipher, &mut m, &mut tx, &mut lb, &meta, file.base).unwrap();
        let got = recv_chunk_ilp(&scratch, cipher, &mut m, &mut rx, &mut lb, app_out);
        assert_eq!(got.expect("delivered").expect("accepted"), meta);
    } else {
        send_chunk_non_ilp(&scratch, &cipher, &mut m, &mut tx, &mut lb, &meta, file.base)
            .unwrap();
        let got = recv_chunk_non_ilp(&scratch, &cipher, &mut m, &mut rx, &mut lb, app_out);
        assert_eq!(got.expect("delivered").expect("accepted"), meta);
    }
    let trace = m.take_trace().expect("trace started");
    let stats = m.take_stats();
    assert_eq!(m.peek(app_out.base, len), &bytes[..], "chunk delivered intact");
    Stream::of(&stats, &trace)
}

#[test]
fn ilp_pair_access_stream_is_pinned() {
    let got = one_pair(true, 1024);
    let want = Stream {
        reads: [6339, 2, 1621, 0],
        writes: [4204, 22, 562, 0],
        reads_by_kind: [256, 274, 4224, 28, 264, 804, 2112, 0],
        writes_by_kind: [1024, 274, 0, 26, 1056, 296, 2112, 0],
        compute_ops: 12015,
        fetch_bytes: 418_656,
        trace_len: 12750,
        trace_digest: 17_609_435_994_400_727_623,
    };
    assert_eq!(got, want);
}

#[test]
fn non_ilp_pair_access_stream_is_pinned() {
    let got = one_pair(false, 1024);
    let want = Stream {
        reads: [6339, 2, 2940, 0],
        writes: [4236, 22, 1346, 0],
        reads_by_kind: [256, 1329, 4224, 28, 528, 804, 2112, 0],
        writes_by_kind: [256, 2650, 0, 26, 264, 296, 2112, 0],
        compute_ops: 12527,
        fetch_bytes: 156_488,
        trace_len: 14885,
        trace_digest: 13_530_469_715_204_361_106,
    };
    assert_eq!(got, want);
}

#[test]
fn ilp_pair_with_partial_tail_word_is_pinned() {
    let got = one_pair(true, 1021);
    let want = Stream {
        reads: [6340, 2, 1620, 0],
        writes: [4201, 22, 562, 0],
        reads_by_kind: [256, 274, 4224, 28, 264, 804, 2112, 0],
        writes_by_kind: [1021, 274, 0, 26, 1056, 296, 2112, 0],
        compute_ops: 12016,
        fetch_bytes: 418_656,
        trace_len: 12747,
        trace_digest: 3_274_920_296_407_847_195,
    };
    assert_eq!(got, want);
}
