//! Operator benchmark for the LiteView reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path opbench/Cargo.toml -- \
//!     --workload grid-1000 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs one closed-loop, single-operator workload, checks its outputs,
//! and prints one JSON object as the last line of standard output:
//! end-to-end metrics with `--trace 0`, per-layer metrics (timed from
//! this crate around calls into each layer) with `--trace 1`. See
//! `README.md` next to this file.

mod deploy;
mod inproc;
mod machine;
mod ops;
mod serve;
mod spans;
mod stats;

use deploy::{probe_queue, probe_radio, Ledger, QUEUE_EVENTS_PER_NODE};
use liteview::session::Response;
use lv_radio::Medium;
use spans::{self_time_table, Tracer};
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups measured on their own, besides those of the repetitions,
/// on workloads whose repetition builds a single deployment.
const EXTRA_SETUPS: usize = 10;

/// End-to-end metrics, as listed in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("sim_s_per_s", "s/s"),
    ("cmds_per_sec", "1/s"),
    ("cmd_p50_ms", "ms"),
    ("cmd_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, as listed in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 61] = [
    ("setup.medium_build_ms", "ms"),
    ("setup.net_build_ms", "ms"),
    ("setup.warmup_ms", "ms"),
    ("kernel.events", "count"),
    ("kernel.run_busy_s", "s"),
    ("kernel.events_per_sec", "1/s"),
    ("kernel.dyn_actions", "count"),
    ("radio.fanout_mean", "count"),
    ("radio.reachable_ns", "ns"),
    ("radio.mean_rx_mw_ns", "ns"),
    ("radio.assess_on_ns", "ns"),
    ("radio.cca_ns", "ns"),
    ("radio.rx_frames", "count"),
    ("radio.rx_corrupt", "count"),
    ("radio.rx_garbled", "count"),
    ("radio.halfduplex_miss", "count"),
    ("sim.queue_op_ns", "ns"),
    ("sim.trace_events", "count"),
    ("mac.tx_attempt", "count"),
    ("mac.retries", "count"),
    ("mac.queue_drop", "count"),
    ("mac.cca_busy_ratio", "ratio"),
    ("mac.delivered_ratio", "ratio"),
    ("net.forward", "count"),
    ("net.deliver", "count"),
    ("net.beacon_rx", "count"),
    ("net.queue_drop", "count"),
    ("net.padding_capped", "count"),
    ("ws.exec_ms_p50.ping", "ms"),
    ("ws.exec_ms_p50.traceroute", "ms"),
    ("ws.exec_ms_p50.neighbor_list", "ms"),
    ("ws.exec_ms_p50.get_power", "ms"),
    ("ws.exec_events", "count"),
    ("ws.exec_overhead_ms", "ms"),
    ("ws.history_len", "count"),
    ("ws.record_bytes", "bytes"),
    ("diag.poll_ms", "ms"),
    ("diag.polls", "count"),
    ("diag.ladder_cmds", "count"),
    ("diag.episodes", "count"),
    ("diag.precision", "ratio"),
    ("diag.recall", "ratio"),
    ("session.resp_bytes_p50", "bytes"),
    ("session.resp_bytes_max", "bytes"),
    ("session.encode_ms_p50", "ms"),
    ("session.decode_ms_p50", "ms"),
    ("session.decode_ms_max", "ms"),
    ("serve.server_busy_ms_p50", "ms"),
    ("serve.transport_ms_p50", "ms"),
    ("serve.requests", "count"),
    ("serve.duplicates", "count"),
    ("serve.rate_limited", "count"),
    ("serve.malformed", "count"),
    ("serve.send_failures", "count"),
    ("serve.rx_dropped", "count"),
    ("serve.idle_evicted", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("host.ref_loop_ms", "ms"),
    ("host.ref_mem_ms", "ms"),
    ("host.steal_pct", "%"),
];

/// Time after which a run starts no further repetition, so it ends
/// well inside its time limit even on a much slower machine.
const HARD_CAP: Duration = Duration::from_secs(120);

/// What one repetition of a workload produced. A repetition is a fixed,
/// seed-determined amount of work on freshly built deployments.
#[derive(Default)]
pub struct Rep {
    /// Set-up time of each deployment built, seconds.
    pub setup_s: Vec<f64>,
    /// Host turnaround of each operator command or request, ms.
    pub cmd_ms: Vec<f64>,
    /// Host seconds of the operator loop (set-up excluded).
    pub loop_s: f64,
    /// Simulated seconds the operator loop advanced.
    pub sim_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub errors: Vec<String>,
    /// Operations that fail on a documented program defect; counted as
    /// failed, described in `README.md`.
    pub defects: Vec<String>,
    /// FNV-1a over counters, event counts, outcomes and episodes.
    pub digest: u64,
    /// Per-layer counts and host-time sums.
    pub ledger: Ledger,
    /// The last deployment's medium (traced runs only), for the probes.
    pub medium: Option<Medium>,
    /// Replies received (serve-session, traced runs only).
    pub replies: Vec<Response>,
    /// Arrival and handled time of each frame the server processed.
    pub server_busy: Vec<(Instant, Instant)>,
}

/// A workload's generated inputs.
enum Plan {
    Grid(ops::GridPlan),
    Corridor(ops::CorridorPlan),
    Serve(ops::ServePlan),
}

/// The workload names `BENCHMARK.json` lists.
const WORKLOADS: [&str; 3] = ["grid-1000", "corridor-diagnosis", "serve-session"];

impl Plan {
    fn new(workload: &str, seed: u64) -> Option<Plan> {
        Some(match workload {
            "grid-1000" => Plan::Grid(ops::grid_plan(seed)),
            "corridor-diagnosis" => Plan::Corridor(ops::corridor_plan(seed)),
            "serve-session" => Plan::Serve(ops::serve_plan(seed)),
            _ => return None,
        })
    }

    fn rep(&self, tr: &mut Tracer) -> Rep {
        match self {
            Plan::Grid(p) => inproc::grid_rep(p, tr),
            Plan::Corridor(p) => inproc::corridor_rep(p, tr),
            Plan::Serve(p) => serve::serve_rep(p, tr, false),
        }
    }

    /// Repetitions that fill `seconds` on the reference machine (2-core
    /// x86-64 container): the work is an operation count derived from
    /// the arguments, never a wall-clock cut-off, so every run of one
    /// seed and length does identical work.
    fn reps_for(&self, seconds: u64) -> usize {
        let per_second = match self {
            Plan::Grid(_) => 0.13,
            Plan::Corridor(_) => 6.0,
            Plan::Serve(_) => 1.0,
        };
        ((seconds as f64 * per_second).round() as usize).max(2)
    }

    /// Run `reps` repetitions, stopping early only past [`HARD_CAP`].
    fn run(&self, tr: &mut Tracer, reps: usize) -> Vec<Rep> {
        let start = Instant::now();
        let mut out = Vec::with_capacity(reps);
        while out.len() < reps && start.elapsed() < HARD_CAP {
            out.push(self.rep(tr));
        }
        out
    }

    /// Extra set-ups, so `setup_s` is a median of many even where a
    /// repetition builds one deployment.
    fn extra_setups(&self, errors: &mut Vec<String>) -> Vec<f64> {
        let grid = || {
            let t = Instant::now();
            deploy::build(
                deploy::Shape::Grid,
                ops::DEPLOY_SEED,
                &mut Tracer::new(false, t),
                &mut Ledger::default(),
            )
            .2
        };
        match self {
            Plan::Grid(_) => (0..EXTRA_SETUPS).map(|_| grid()).collect(),
            Plan::Corridor(_) => Vec::new(),
            Plan::Serve(_) => (0..EXTRA_SETUPS)
                .filter_map(|_| serve::boot_once().map_err(|e| errors.push(e)).ok())
                .collect(),
        }
    }

    /// Whether latency samples are per-command means over repetitions
    /// (see [`latency_samples`]): on the in-process workloads, whose
    /// repetitions hold over a thousand commands each. A serve-session
    /// repetition holds 340 requests, too few for a p99, so its
    /// requests are pooled.
    fn per_command(&self) -> bool {
        !matches!(self, Plan::Serve(_))
    }

    /// Untimed extra repetition that ends with the serve `report` probe.
    fn report_probe(&self, tr: &mut Tracer) -> Option<Rep> {
        match self {
            Plan::Serve(p) => Some(serve::serve_rep(p, tr, true)),
            _ => None,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad(&"unknown workload"));
                }
                workload = Some(value);
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set (VmHWM) in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// Turnaround samples for `cmd_p50_ms` and `cmd_p99_ms`.
///
/// With `per_command`, every repetition issues the same commands with
/// the same simulated work, and each command's sample is its mean over
/// the repetitions. Host throughput on a shared machine flips between
/// phases about a second long; pooled, a few long repetitions give a
/// two-phase mixture whose median and tail jump between the phases,
/// while a mean over repetitions far apart in time moves with the
/// share of time spent in each. Without it, every request is a sample.
fn latency_samples(reps: &[Rep], per_command: bool, errors: &mut Vec<String>) -> Vec<f64> {
    let n = reps.first().map_or(0, |r| r.cmd_ms.len());
    if !per_command || reps.iter().any(|r| r.cmd_ms.len() != n) {
        if per_command {
            errors.push("repetitions issued different numbers of commands".into());
        }
        return reps.iter().flat_map(|r| r.cmd_ms.iter().copied()).collect();
    }
    (0..n)
        .map(|i| reps.iter().map(|r| r.cmd_ms[i]).sum::<f64>() / reps.len() as f64)
        .collect()
}

/// End-to-end metrics of untraced repetitions.
fn end_to_end(
    reps: &[Rep],
    per_command: bool,
    extra_setups: &[f64],
    errors: &mut Vec<String>,
) -> Metrics {
    let setup: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.setup_s.iter().copied())
        .chain(extra_setups.iter().copied())
        .collect();
    let cmds = latency_samples(reps, per_command, errors);
    let per_rep = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let mut m = Metrics::new();
    m.insert("setup_s", (median(&setup), "s"));
    m.insert("sim_s_per_s", (per_rep(&|r| r.sim_s / r.loop_s), "s/s"));
    m.insert(
        "cmds_per_sec",
        (per_rep(&|r| r.cmd_ms.len() as f64 / r.loop_s), "1/s"),
    );
    for (name, q) in [("cmd_p50_ms", 0.5), ("cmd_p99_ms", 0.99)] {
        match percentile(&cmds, q) {
            Some(v) => {
                m.insert(name, (v, "ms"));
            }
            None => errors.push(format!(
                "{name}: {} samples leave fewer than ten beyond it",
                cmds.len()
            )),
        }
    }
    match peak_rss_mb() {
        Some(v) => {
            m.insert("peak_rss_mb", (v, "MB"));
        }
        None => errors.push("peak_rss_mb: /proc/self/status has no VmHWM".into()),
    }
    m
}

/// Per-layer metrics of traced repetitions (`layer` holds the reps whose
/// ledgers and spans describe the in-process layers; for serve-session
/// that is the in-process replay).
fn per_layer(
    traced: &[Rep],
    layer: &[&Rep],
    untraced: &[Rep],
    tr: &Tracer,
    (ref_ms, mem_ms, steal): (f64, f64, f64),
) -> Metrics {
    let (first, last) = (layer[0], layer[layer.len() - 1]);
    let c = |k: &str| first.ledger.count(k);
    let mut sum = Ledger::default();
    for r in layer {
        sum.absorb(&r.ledger);
    }
    let per_setup = |name: &str| {
        let setups = tr.durations_ms("setup").len().max(1) as f64;
        tr.durations_ms(name).iter().sum::<f64>() / setups
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let p50 = |v: &[f64]| percentile(v, 0.5).unwrap_or(0.0);

    let mut m = Metrics::new();
    m.insert("setup.medium_build_ms", (per_setup("setup.medium"), "ms"));
    m.insert("setup.net_build_ms", (per_setup("setup.net"), "ms"));
    m.insert("setup.warmup_ms", (per_setup("setup.warmup"), "ms"));

    let eps = ratio(
        sum.count("kernel.run_events"),
        sum.time("kernel.run_busy_s"),
    );
    m.insert("kernel.events", (c("kernel.events"), "count"));
    m.insert(
        "kernel.run_busy_s",
        (sum.time("kernel.run_busy_s") / layer.len() as f64, "s"),
    );
    m.insert("kernel.events_per_sec", (eps, "1/s"));
    m.insert("kernel.dyn_actions", (c("kernel.dyn_actions"), "count"));

    if let Some(medium) = &last.medium {
        m.insert(
            "sim.queue_op_ns",
            (
                probe_queue(medium.node_count() * QUEUE_EVENTS_PER_NODE),
                "ns",
            ),
        );
        let p = probe_radio(medium);
        m.insert("radio.fanout_mean", (p.fanout_mean, "count"));
        m.insert("radio.reachable_ns", (p.reachable_ns, "ns"));
        m.insert("radio.mean_rx_mw_ns", (p.mean_rx_mw_ns, "ns"));
        m.insert("radio.assess_on_ns", (p.assess_on_ns, "ns"));
        m.insert("radio.cca_ns", (p.cca_ns, "ns"));
    }
    for k in [
        "radio.rx_frames",
        "radio.rx_corrupt",
        "radio.rx_garbled",
        "radio.halfduplex_miss",
        "sim.trace_events",
        "mac.tx_attempt",
        "mac.retries",
        "mac.queue_drop",
        "net.forward",
        "net.deliver",
        "net.beacon_rx",
        "net.queue_drop",
        "net.padding_capped",
        "ws.exec_events",
        "ws.history_len",
        "diag.polls",
        "diag.ladder_cmds",
        "diag.episodes",
    ] {
        m.insert(k, (c(k), "count"));
    }
    m.insert(
        "mac.cca_busy_ratio",
        (
            ratio(c("mac.cca_busy"), c("mac.cca_busy") + c("mac.cca_clear")),
            "ratio",
        ),
    );
    m.insert(
        "mac.delivered_ratio",
        (ratio(c("mac.delivered"), c("mac.submit")), "ratio"),
    );

    for (name, span) in [
        ("ws.exec_ms_p50.ping", "ws.exec.ping"),
        ("ws.exec_ms_p50.traceroute", "ws.exec.traceroute"),
        ("ws.exec_ms_p50.neighbor_list", "ws.exec.neighbor_list"),
        ("ws.exec_ms_p50.get_power", "ws.exec.get_power"),
    ] {
        m.insert(name, (p50(&tr.durations_ms(span)), "ms"));
    }
    let exec_overhead_s = sum.time("ws.exec_s") - ratio(sum.count("ws.exec_events"), eps);
    m.insert(
        "ws.exec_overhead_ms",
        (ratio(exec_overhead_s, sum.count("ws.execs")) * 1e3, "ms"),
    );
    m.insert("ws.record_bytes", (c("ws.record_bytes"), "bytes"));
    m.insert(
        "diag.poll_ms",
        (
            ratio(sum.time("diag.poll_s"), sum.count("diag.polls")) * 1e3,
            "ms",
        ),
    );
    m.insert("diag.precision", (c("diag.precision"), "ratio"));
    m.insert("diag.recall", (c("diag.recall"), "ratio"));

    session_and_serve(&traced[0], traced, &mut m);

    let overhead: Vec<f64> = traced
        .iter()
        .zip(untraced)
        .map(|(t, u)| ratio(t.loop_s - u.loop_s, u.loop_s) * 100.0)
        .collect();
    m.insert("trace.overhead_pct", (median(&overhead), "%"));
    m.insert("trace.spans", (tr.spans().len() as f64, "count"));
    m.insert("host.ref_loop_ms", (ref_ms, "ms"));
    m.insert("host.ref_mem_ms", (mem_ms, "ms"));
    m.insert("host.steal_pct", (steal, "%"));
    m
}

/// Session codec and server numbers; zero on the in-process workloads,
/// which never cross the codec or a socket.
fn session_and_serve(first: &Rep, traced: &[Rep], m: &mut Metrics) {
    let mut bytes = Vec::new();
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for r in &first.replies {
        let t = Instant::now();
        let wire = black_box(r.encode());
        enc.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let _ = black_box(Response::decode(&wire));
        dec.push(t.elapsed().as_secs_f64() * 1e3);
        bytes.push(wire.len() as f64);
    }
    let p50 = |v: &[f64]| percentile(v, 0.5).unwrap_or(0.0);
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    m.insert("session.resp_bytes_p50", (p50(&bytes), "bytes"));
    m.insert("session.resp_bytes_max", (max(&bytes), "bytes"));
    m.insert("session.encode_ms_p50", (p50(&enc), "ms"));
    m.insert("session.decode_ms_p50", (p50(&dec), "ms"));
    m.insert("session.decode_ms_max", (max(&dec), "ms"));

    let busy: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.server_busy.iter())
        .map(|(a, b)| b.duration_since(*a).as_secs_f64() * 1e3)
        .collect();
    m.insert("serve.server_busy_ms_p50", (p50(&busy), "ms"));
    // Client latency minus server busy minus client decode, request by
    // request; the closed loop pairs them one to one.
    let transport: Vec<f64> =
        if first.server_busy.len() == first.cmd_ms.len() && dec.len() == first.cmd_ms.len() {
            first
                .cmd_ms
                .iter()
                .zip(&first.server_busy)
                .zip(&dec)
                .map(|((lat, (a, b)), d)| lat - b.duration_since(*a).as_secs_f64() * 1e3 - d)
                .collect()
        } else {
            Vec::new()
        };
    m.insert("serve.transport_ms_p50", (p50(&transport), "ms"));
    for k in [
        "serve.requests",
        "serve.duplicates",
        "serve.rate_limited",
        "serve.malformed",
        "serve.send_failures",
        "serve.rx_dropped",
        "serve.idle_evicted",
    ] {
        m.insert(k, (first.ledger.count(k), "count"));
    }
}

/// Every repetition must produce the same digest.
fn check_digests(label: &str, reps: &[Rep], errors: &mut Vec<String>) -> Option<u64> {
    let first = reps.first()?.digest;
    if let Some(r) = reps.iter().find(|r| r.digest != first) {
        errors.push(format!(
            "{label}: digest {:016x} differs from {first:016x}",
            r.digest
        ));
    }
    Some(first)
}

fn write_spans(workload: &str, seed: u64, tr: &Tracer) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    std::fs::write(&path, tr.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(machine::CHILD_FLAG) {
        machine::print_reading();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("opbench: {e}");
            eprintln!(
                "usage: opbench --workload grid-1000|corridor-diagnosis|serve-session \
                 --seed N --seconds N --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let mut errors = Vec::new();
    let steal_before = machine::cpu_steal();
    let ref_before = machine::reading().unwrap_or_else(|e| {
        errors.push(e);
        machine::Reading::default()
    });
    let plan = Plan::new(&args.workload, args.seed).expect("workload validated by parse_args");
    let epoch = Instant::now();
    let mut off = Tracer::new(false, epoch);
    let mut tr = Tracer::new(true, epoch);

    let (metrics, reps_for_counts, digest) = if args.trace {
        // Untraced and traced repetitions alternate, so both sample the
        // same machine phases and their difference is the overhead.
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        for _ in 0..(plan.reps_for(args.seconds) / 2).max(2) {
            untraced.push(plan.rep(&mut off));
            traced.push(plan.rep(&mut tr));
            if epoch.elapsed() >= HARD_CAP {
                break;
            }
        }
        let d0 = check_digests("untraced repetitions", &untraced, &mut errors);
        let d1 = check_digests("traced repetitions", &traced, &mut errors);
        if d0 != d1 {
            errors.push(format!("traced digest {d1:016x?} != untraced {d0:016x?}"));
        }
        let replay = match &plan {
            Plan::Serve(p) => {
                let mut r = Rep::default();
                let d = serve::replay_in_process(p, &mut tr, &mut r);
                if Some(d) != d1 {
                    errors.push(format!(
                        "in-process replay digest {d:016x} != socket digest {d1:016x?}"
                    ));
                }
                Some(r)
            }
            _ => None,
        };
        let layer: Vec<&Rep> = match &replay {
            Some(r) => vec![r],
            None => traced.iter().collect(),
        };
        let ref_mid = machine::reading().unwrap_or_else(|e| {
            errors.push(e);
            machine::Reading::default()
        });
        let host = (
            (ref_before.loop_ms + ref_mid.loop_ms) / 2.0,
            (ref_before.mem_ms + ref_mid.mem_ms) / 2.0,
            machine::steal_pct(steal_before, machine::cpu_steal()),
        );
        let m = per_layer(&traced, &layer, &untraced, &tr, host);
        let mut all = untraced;
        all.extend(traced);
        (m, all, d1)
    } else {
        let setups = plan.extra_setups(&mut errors);
        let reps = plan.run(&mut off, plan.reps_for(args.seconds));
        let d = check_digests("repetitions", &reps, &mut errors);
        let m = end_to_end(&reps, plan.per_command(), &setups, &mut errors);
        (m, reps, d)
    };
    let mut reps = reps_for_counts;
    if let Some(probe) = plan.report_probe(&mut off) {
        if Some(probe.digest) != digest {
            errors.push(format!(
                "report-probe repetition digest {:016x} != {digest:016x?}",
                probe.digest
            ));
        }
        reps.push(probe);
    }
    let ref_after = machine::reading().unwrap_or_else(|e| {
        errors.push(e);
        machine::Reading::default()
    });
    let steal = machine::steal_pct(steal_before, machine::cpu_steal());

    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let rep_errors: Vec<&String> = reps.iter().flat_map(|r| &r.errors).collect();
    let defects: Vec<&String> = reps.iter().flat_map(|r| &r.defects).collect();
    let failed = (rep_errors.len() + defects.len()) as u64;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# opbench {} seed={} seconds={} trace={} reps={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        reps.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let _ = writeln!(out, "# digest {:016x}", digest.unwrap_or(0));
    let _ = writeln!(
        out,
        "# machine-ref loop_ms={:.3}/{:.3} mem_ms={:.3}/{:.3} (before/after) steal_pct={steal:.2}",
        ref_before.loop_ms, ref_after.loop_ms, ref_before.mem_ms, ref_after.mem_ms
    );
    if args.trace {
        let _ = writeln!(out, "# span name count total_ms self_ms");
        for (name, (n, total, own)) in self_time_table(tr.spans()) {
            let _ = writeln!(out, "# span {name} {n} {total:.3} {own:.3}");
        }
        match write_spans(&args.workload, args.seed, &tr) {
            Ok(path) => {
                let _ = writeln!(out, "# spans written to {path}");
            }
            Err(e) => errors.push(format!("writing spans: {e}")),
        }
    }
    let mut distinct: BTreeMap<&String, usize> = BTreeMap::new();
    for d in &defects {
        *distinct.entry(d).or_default() += 1;
    }
    for (d, n) in distinct {
        let _ = writeln!(out, "# known defect (counted as failed) x{n}: {d}");
    }
    for e in rep_errors.iter().copied().chain(&errors).take(20) {
        let _ = writeln!(out, "# error: {e}");
    }
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut want = expected.to_vec();
    want.sort_unstable();
    let got: Vec<(&str, &str)> = metrics.iter().map(|(k, (_, u))| (*k, *u)).collect();
    if got != want {
        errors.push(format!("metrics differ from BENCHMARK.json: got {got:?}"));
    }
    let mut json = String::from("{");
    for (i, (name, (v, unit))) in metrics.iter().enumerate() {
        if !v.is_finite() {
            errors.push(format!("{name} is not finite"));
        }
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push('}');
    let correct = errors.is_empty() && rep_errors.is_empty();
    let _ = writeln!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {json}}}"
    );
    print!("{out}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_without_p99_support_fails_instead_of_reporting_a_max() {
        let rep = |n: usize| Rep {
            setup_s: vec![0.1],
            cmd_ms: (0..n).map(|i| i as f64).collect(),
            loop_s: 1.0,
            sim_s: 1.0,
            ..Rep::default()
        };
        let mut errors = Vec::new();
        let m = end_to_end(&[rep(999)], false, &[], &mut errors);
        assert!(!m.contains_key("cmd_p99_ms"));
        assert!(
            errors.iter().any(|e| e.starts_with("cmd_p99_ms")),
            "{errors:?}"
        );
        errors.clear();
        let m = end_to_end(&[rep(1000)], false, &[], &mut errors);
        assert_eq!(m["cmd_p99_ms"].0, 989.0);
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn per_command_samples_are_means_over_repetitions() {
        let rep = |ms: &[f64]| Rep {
            cmd_ms: ms.to_vec(),
            ..Rep::default()
        };
        let mut errors = Vec::new();
        let reps = [rep(&[1.0, 10.0]), rep(&[3.0, 20.0])];
        assert_eq!(latency_samples(&reps, true, &mut errors), [2.0, 15.0]);
        assert_eq!(
            latency_samples(&reps, false, &mut errors),
            [1.0, 10.0, 3.0, 20.0]
        );
        assert!(errors.is_empty(), "{errors:?}");
        let uneven = [rep(&[1.0, 10.0]), rep(&[3.0])];
        assert_eq!(latency_samples(&uneven, true, &mut errors).len(), 3);
        assert_eq!(errors.len(), 1);
    }

    /// The metric names this binary prints are the ones `BENCHMARK.json`
    /// declares, section by section.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside opbench/");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let rest = &json[start..];
            let end = rest.find(']').expect("section closes");
            let field = |item: &str, key: &str| {
                let at = item.find(&format!("\"{key}\": \""))? + key.len() + 5;
                item[at..].split('"').next().map(str::to_owned)
            };
            rest[..end]
                .split('{')
                .skip(1)
                .map(|item| (field(item, "name"), field(item, "unit")))
                .collect::<Vec<_>>()
        };
        let pairs = |table: &[(&str, &str)]| {
            table
                .iter()
                .map(|(n, u)| (Some(n.to_string()), Some(u.to_string())))
                .collect::<Vec<_>>()
        };
        assert_eq!(section("end_to_end"), pairs(&END_TO_END));
        assert_eq!(section("per_layer"), pairs(&PER_LAYER));
        let workloads: Vec<_> = section("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS.map(|w| Some(w.to_owned())));
        for w in WORKLOADS {
            assert!(Plan::new(w, 1).is_some(), "{w}");
        }
    }
}
