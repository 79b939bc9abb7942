//! Native end-to-end benchmark of the ILP and non-ILP stacks.
//!
//! ```text
//! nativebench --workload <bulk_1k|rpc_64_udp|lossy_1k|churn_512>
//!             --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the real `server::pipeline` paths (or `server::ScaleHarness`)
//! over `memsim::NativeMem`, interleaving ILP and non-ILP slices, checks
//! every delivered byte, prints a human-readable report and, as its last
//! line, one JSON object: end-to-end metrics with `--trace 0`, the
//! per-layer ledger with `--trace 1`. Exits non-zero when any op failed.
//! See `README.md` beside this crate for the workloads and metrics.

mod churn;
mod clock;
mod ledger;
mod pair;
mod run;
mod stats;

use ledger::*;
use run::{PathRun, Run, BLOCK_OPS, ILP, NON_ILP, PATHS};
use stats::{median, quantile};
use std::process::ExitCode;
use utcp::FaultProbs;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["bulk_1k", "rpc_64_udp", "lossy_1k", "churn_512"];
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// A shared host's speed drifts in two ways, and both move every
/// wall-clock figure between runs of the same code. Its core clock
/// follows its load over minutes (see `clock`), so the gated figures
/// count core cycles, not nanoseconds. And for seconds to minutes at a
/// time neighbours contend for caches and execution ports, which slows
/// a slice by up to ≈1.8×. How much of a run that hits, and how hard,
/// varies from run to run: a median over a run follows it, and so does
/// any slow-side percentile. Contention only ever slows a slice down, so
/// the fast edge is what reads the code rather than the neighbours: the
/// gated figures are the cycles per byte the fastest 1 % of slices reach
/// and the latency percentile the fastest 1 % of blocks of `BLOCK_OPS`
/// ops stay under.
const FASTEST: f64 = 0.01;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Small sizes for the smoke tests.
    tiny: bool,
    /// Flip one delivered byte (the mutation check).
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        tiny: false,
        corrupt: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--tiny" => a.tiny = true,
            "--inject-corruption" => a.corrupt = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(a)
}

/// One printed metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric { name: name.into(), unit, value }
}

/// `a / b`, or 0 when nothing was counted.
fn per(a: f64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a / b as f64
    }
}

fn end_to_end(run: &Run) -> Result<Vec<Metric>, String> {
    let mut out = vec![metric("setup_s", "s", median(&run.setup_s).ok_or("no set-up")?)];
    for (i, name) in PATHS.iter().enumerate() {
        let c = quantile(&run.paths[i].cycles_per_byte, FASTEST).ok_or("no measured slice")?;
        out.push(metric(format!("{name}.cycles_per_byte"), "cycles/B", c));
    }
    for (i, name) in PATHS.iter().enumerate() {
        let p50 = quantile(&run.paths[i].block_p50, FASTEST).ok_or("no latency block")?;
        out.push(metric(format!("{name}.op_p50_kcycles"), "kcycles", p50 / 1e3));
    }
    // Sampled once the world is set up and warm, not at the end: memory
    // that grows with every op served (see `mem_growth_bytes_per_op`)
    // would otherwise make a faster build read as a bigger one.
    if run.warm_kib.is_nan() {
        return Err("no VmHWM after the warm-up round".into());
    }
    out.push(metric("mem_peak_kib", "KiB", run.warm_kib));
    Ok(out)
}

/// Share-of-op-time groups: (name, buckets).
const SHARES: [(&str, &[usize]); 9] = [
    ("marshal", &[MARSHAL]),
    ("cipher", &[CIPHER]),
    ("checksum", &[CHECKSUM]),
    ("fused", &[FUSED_SEND, FUSED_RECV]),
    ("tcp", &[TCP_SEND, TCP_RECV]),
    ("ack", &[ACK]),
    ("tick", &[TICK]),
    ("kernel", &[KERNEL]),
    ("server", &[SERVER_STEP, SERVER_DRAIN]),
];

/// Traced nanoseconds of each `SHARES` group, then the unattributed rest.
fn groups(pr: &PathRun) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&str, f64)> = SHARES
        .iter()
        .map(|(name, buckets)| (*name, buckets.iter().map(|&b| pr.ledger[b] as f64).sum()))
        .collect();
    let charged: f64 = out.iter().map(|g| g.1).sum();
    out.push(("unattributed", pr.traced_ns as f64 - charged));
    out
}

fn per_layer(run: &Run) -> Vec<Metric> {
    let mut out = Vec::new();
    let (ip, np) = (&run.paths[ILP], &run.paths[NON_ILP]);
    let per_kib =
        |pr: &PathRun, b: usize| pr.ledger[b] as f64 * 1024.0 / pr.traced_bytes.max(1) as f64;
    for (name, b) in [("marshal", MARSHAL), ("cipher", CIPHER), ("checksum", CHECKSUM)] {
        out.push(metric(format!("non_ilp.{name}_ns_per_kib"), "ns/KiB", per_kib(np, b)));
    }
    for (name, b) in [("fused_send", FUSED_SEND), ("fused_recv", FUSED_RECV)] {
        out.push(metric(format!("ilp.{name}_ns_per_kib"), "ns/KiB", per_kib(ip, b)));
    }
    for (i, path) in PATHS.iter().enumerate() {
        let pr = &run.paths[i];
        let (c, l, k) = (&pr.counts, &pr.ledger, &pr.counts.kernel);
        let f = |v: u64| v as f64;
        let (segs, rx_segs, waves) = (c.data_sent, k.data_recvd, c.waves);
        let groups = groups(pr);
        let unattributed = groups.last().expect("the rest is always present").1;
        let fastest = |g: &[f64]| quantile(g, 1.0 - FASTEST).unwrap_or(f64::NAN);
        let over = fastest(&pr.goodput) / fastest(&pr.traced_goodput);
        // Tail latency moves by up to a third between runs on a shared
        // host, past any bound a gate could hold, so it is reported here
        // rather than gated.
        let p99 = quantile(&pr.block_p99, FASTEST).unwrap_or(0.0) / 1e3;
        let rows = [
            ("op_p99_kcycles", "kcycles", p99),
            ("tcp_send_ns_per_seg", "ns/seg", per(f(l[TCP_SEND]), segs)),
            ("tcp_recv_ns_per_seg", "ns/seg", per(f(l[TCP_RECV]), rx_segs)),
            ("ack_ns_per_ack", "ns/ack", per(f(l[ACK]), c.acks_recvd)),
            ("acks_per_seg", "1/seg", per(f(c.acks_recvd), segs)),
            ("tick_ns_per_call", "ns/call", per(f(l[TICK]), c.ticks)),
            ("kernel.send_ns_per_dgram", "ns/dgram", per(f(k.send_ns), k.sends)),
            ("kernel.recv_ns_per_dgram", "ns/dgram", per(f(k.recv_ns), k.recv_hits)),
            ("kernel.crossings_per_seg", "1/seg", per(f(k.sends + k.recv_calls), segs)),
            ("kernel.empty_polls_per_seg", "1/seg", per(f(k.recv_calls - k.recv_hits), segs)),
            ("kernel.would_block_per_seg", "1/seg", per(f(c.would_block), segs)),
            ("kernel.queue_depth_max", "count", f(k.queue_max)),
            ("recovery.retransmits_per_kseg", "1/kseg", per(1e3 * f(c.retransmits), segs)),
            ("recovery.fast_retransmit_share", "ratio", per(f(c.fast_retransmits), c.retransmits)),
            ("recovery.rejects_per_kseg", "1/kseg", per(1e3 * f(c.rejected), rx_segs)),
            ("recovery.useful_ratio", "ratio", per(f(c.accepted), rx_segs)),
            ("server.step_ns_per_session", "ns/session", per(f(c.step_ns), c.sessions)),
            ("server.self_ns_per_session", "ns/session", per(f(l[SERVER_STEP]), c.sessions)),
            ("server.drain_ns_per_session", "ns/session", per(f(c.drain_ns), c.sessions)),
            ("server.reopen_ns_per_session", "ns/session", per(f(c.reopen_ns), c.sessions)),
            ("server.rounds_per_wave", "rounds", per(f(c.steps), waves)),
            ("server.drain_rounds_per_wave", "rounds", per(f(c.drain_rounds), waves)),
            ("traced_ns_per_op", "ns/op", per(f(pr.traced_ns), pr.traced_ops)),
            ("unattributed_ns_per_op", "ns/op", per(unattributed, pr.traced_ops)),
        ];
        for (name, unit, v) in rows {
            out.push(metric(format!("{path}.{name}"), unit, v));
        }
        for (name, ns) in groups {
            out.push(metric(format!("{path}.share.{name}"), "ratio", per(ns, pr.traced_ns)));
        }
        out.push(metric(format!("{path}.trace_overhead_pct"), "%", 100.0 * (over - 1.0)));
    }
    out.push(metric("ilp_speedup", "ratio", median(&run.speedup).unwrap_or(0.0)));
    out.push(metric("clock_ghz", "GHz", median(&run.clock_ghz).unwrap_or(0.0)));
    let growth = run::vm_hwm_kib().unwrap_or(f64::NAN) - run.warm_kib;
    let ops = run.attempted - run.warm_ops;
    out.push(metric("mem_growth_bytes_per_op", "B/op", per(growth * 1024.0, ops)));
    out
}

fn transport(workload: &str) -> &'static str {
    match workload {
        "rpc_64_udp" => "one UDP socket on 127.0.0.1 (host loopback interface, not a real link)",
        "churn_512" => {
            "in-process utcp::Loopback under one ScaleHarness per path (no syscalls, no link)"
        }
        _ => "in-process utcp::Loopback (no syscalls, no link)",
    }
}

fn report(args: &Args, run: &Run) {
    for (i, name) in PATHS.iter().enumerate() {
        let pr = &run.paths[i];
        let q = |v: &[f64], p| quantile(v, p).unwrap_or(0.0);
        println!(
            "{name}: over {} slices: goodput p10 {:.1}, median {:.1}, p90 {:.1} Mbit/s; cycles per \
             byte fastest 1 % {:.2}, median {:.2}; op latency over {} blocks of >= {BLOCK_OPS} \
             ops: p50 {:.2} kcycles (median block {:.2}, p90 block {:.2}), p99 {:.2} kcycles \
             (median block {:.2})",
            pr.goodput.len(),
            q(&pr.goodput, 0.1),
            q(&pr.goodput, 0.5),
            q(&pr.goodput, 0.9),
            q(&pr.cycles_per_byte, FASTEST),
            q(&pr.cycles_per_byte, 0.5),
            pr.block_p50.len(),
            q(&pr.block_p50, FASTEST) / 1e3,
            q(&pr.block_p50, 0.5) / 1e3,
            q(&pr.block_p50, 0.9) / 1e3,
            q(&pr.block_p99, FASTEST) / 1e3,
            q(&pr.block_p99, 0.5) / 1e3,
        );
    }
    let q = |p| quantile(&run.clock_ghz, p).unwrap_or(0.0);
    println!(
        "core clock over {} slices: p1 {:.3}, median {:.3}, p99 {:.3} GHz",
        run.clock_ghz.len(),
        q(0.01),
        q(0.5),
        q(0.99)
    );
    println!(
        "ilp_speedup (median of {} interleaved rounds): {:.3}",
        run.speedup.len(),
        median(&run.speedup).unwrap_or(0.0)
    );
    if !args.trace {
        return;
    }
    for (i, name) in PATHS.iter().enumerate() {
        let pr = &run.paths[i];
        let ops = pr.traced_ops.max(1) as f64;
        let groups = groups(pr);
        let parts: Vec<String> = groups
            .iter()
            .filter(|g| g.1 != 0.0)
            .map(|(g, ns)| format!("{g} {:.0}", ns / ops))
            .collect();
        let (dom, ns) = groups.iter().copied().max_by(|a, b| a.1.total_cmp(&b.1)).expect("groups");
        println!(
            "ledger {name} ({}): {:.0} ns/op traced = {} ns/op; dominant layer: {dom} ({:.1} %)",
            args.workload,
            pr.traced_ns as f64 / ops,
            parts.join(" + "),
            100.0 * per(ns, pr.traced_ns)
        );
    }
    if args.workload == "churn_512" {
        println!("note: harness ticks run inside ScaleHarness::step and count as server time");
    }
}

fn print_json(run: &Run, correct: bool, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nativebench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "nativebench: workload {} seed {} seconds {} trace {}; host nproc {nproc}; one process, \
         one thread, closed loop; transport: {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        transport(&args.workload)
    );
    let opts = run::Opts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        setup_reps: if args.tiny { 2 } else { SETUP_REPS },
        corrupt: args.corrupt,
    };
    let scale = if args.tiny { 8 } else { 1 };
    let one_k = pair::Spec {
        chunk: 1024,
        file_len: 256 * 1024 / scale,
        slice_ops: 256 / scale as u64,
        faults: None,
        rpc_udp: false,
    };
    let result = match args.workload.as_str() {
        "bulk_1k" => pair::run(&one_k, &opts),
        "lossy_1k" => {
            // ≈1 % drop, ≈1 % reorder, ≈0.5 % duplication (parts per 65536).
            let faults = FaultProbs { drop: 655, reorder: 655, dup: 328, ..Default::default() };
            pair::run(&pair::Spec { faults: Some(faults), ..one_k }, &opts)
        }
        "rpc_64_udp" => {
            let spec = pair::Spec {
                chunk: 64,
                file_len: 256 * 1024 / scale,
                slice_ops: 1024 / scale as u64,
                rpc_udp: true,
                ..one_k
            };
            pair::run(&spec, &opts)
        }
        _ => {
            let spec = churn::Spec { n_conns: 512 / scale, file_len: 256 };
            Ok(churn::run(&spec, &opts))
        }
    };
    let run = match result {
        Ok(run) => run,
        Err(e) => {
            println!("{}: not run (UDP socket unavailable on this host: {e})", args.workload);
            return ExitCode::from(3);
        }
    };
    report(&args, &run);
    let digests_agree = run.paths[ILP].digest == run.paths[NON_ILP].digest;
    let fail_ratio = run.failed as f64 / run.attempted.max(1) as f64;
    println!(
        "correctness: {} ops attempted, {} failed (fail_ratio {fail_ratio}); ILP and non-ILP \
         delivery digests {}{}",
        run.attempted,
        run.failed,
        if digests_agree { "agree" } else { "DIFFER" },
        if run.stalled { "; a slice STALLED" } else { "" }
    );
    let correct = run.failed == 0 && digests_agree && !run.stalled;
    let metrics = if args.trace {
        per_layer(&run)
    } else {
        match end_to_end(&run) {
            Ok(m) => m,
            Err(e) => {
                println!("nativebench: cannot compute metrics: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    print_json(&run, correct, &metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
