//! Building deployments from the public `Topology`/`Network` APIs, the
//! per-repetition ledger, and the layer probes run on the side.

use crate::spans::Tracer;
use crate::stats::{median, Fnv};
use liteview::{install_suite, Execution, Workstation};
use lv_kernel::Network;
use lv_net::packet::Port;
use lv_net::routing::Geographic;
use lv_radio::{Channel, Medium, PowerLevel, PropagationConfig};
use lv_sim::{Counters, EventQueue, SimDuration, SimRng, SimTime};
use lv_testbed::Topology;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The two deployment shapes the workloads use.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// The `figures --scale` grid: 500 ms beacons, 2 s warm-up.
    Grid,
    /// The paper's 8-hop corridor exactly as `Scenario::build` (and so
    /// `lv-serve`) boots it: default beacons, 25 s warm-up.
    Corridor,
}

impl Shape {
    fn topology(self) -> Topology {
        match self {
            Shape::Grid => Topology::Grid {
                rows: crate::ops::GRID_ROWS,
                cols: crate::ops::GRID_COLS,
                spacing: 24.0,
            },
            Shape::Corridor => Topology::eight_hop_corridor(),
        }
    }

    fn warmup(self) -> SimDuration {
        match self {
            Shape::Grid => SimDuration::from_secs(2),
            Shape::Corridor => SimDuration::from_secs(25),
        }
    }
}

/// Build, install and warm up a deployment with the workstation on node
/// 0, logged into the bridge. Returns the deployment and its set-up
/// time in seconds.
pub fn build(
    shape: Shape,
    seed: u64,
    tr: &mut Tracer,
    ledger: &mut Ledger,
) -> (Network, Workstation, f64) {
    let started = Instant::now();
    let whole = tr.begin("setup");
    let s = tr.begin("setup.medium");
    let medium = shape.topology().medium(PropagationConfig::default(), seed);
    tr.end(s);
    let s = tr.begin("setup.net");
    let mut net = Network::new(medium, seed);
    for i in 0..net.node_count() as u16 {
        net.install_router(i, Box::new(Geographic::new(Port::GEOGRAPHIC)))
            .expect("a fresh node has port 10 free");
        if let Shape::Grid = shape {
            net.node_mut(i).stack.config_mut().beacon_period = SimDuration::from_millis(500);
        }
    }
    install_suite(&mut net);
    tr.end(s);
    run_for(&mut net, shape.warmup(), "setup.warmup", tr, ledger);
    let s = tr.begin("setup.net");
    let mut ws = Workstation::install(&mut net, 0);
    ws.cd(&net, "192.168.0.1").expect("the bridge exists");
    tr.end(s);
    tr.end(whole);
    let setup_s = started.elapsed().as_secs_f64();
    (net, ws, setup_s)
}

/// An unattended `Network::run_for`, counted towards the kernel's
/// events/sec.
pub fn run_for(
    net: &mut Network,
    d: SimDuration,
    span: &'static str,
    tr: &mut Tracer,
    ledger: &mut Ledger,
) {
    let before = net.events_dispatched();
    let s = tr.begin(span);
    let t = Instant::now();
    net.run_for(d);
    ledger.add_time("kernel.run_busy_s", t.elapsed().as_secs_f64());
    tr.end(s);
    ledger.add(
        "kernel.run_events",
        (net.events_dispatched() - before) as f64,
    );
}

/// Deterministic per-repetition counts plus a few host-time sums the
/// traced run turns into per-layer metrics. Times are kept apart so the
/// counts alone can be compared across runs.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// Work counts; identical for one seed on any machine.
    pub counts: BTreeMap<&'static str, f64>,
    /// Host-time sums in seconds.
    pub times: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Add to a count.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_default() += v;
    }

    /// Add to a host-time sum.
    pub fn add_time(&mut self, key: &'static str, secs: f64) {
        *self.times.entry(key).or_default() += secs;
    }

    /// A count (0 if never added).
    pub fn count(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    /// A host-time sum (0 if never added).
    pub fn time(&self, key: &str) -> f64 {
        self.times.get(key).copied().unwrap_or(0.0)
    }

    /// Add every count and time of `other`.
    pub fn absorb(&mut self, other: &Ledger) {
        for (k, v) in &other.counts {
            self.add(k, *v);
        }
        for (k, v) in &other.times {
            self.add_time(k, *v);
        }
    }
}

/// Name of the `ws.exec.*` span for a command.
pub fn exec_span(cmd: &liteview::Command) -> &'static str {
    use liteview::Command as C;
    match cmd {
        C::Ping { .. } => "ws.exec.ping",
        C::Traceroute { .. } => "ws.exec.traceroute",
        C::NeighborList { .. } => "ws.exec.neighbor_list",
        C::GetPower => "ws.exec.get_power",
        _ => "ws.exec.other",
    }
}

/// Fold one command outcome into the digest.
pub fn digest_execution(h: &mut Fnv, e: &Execution) {
    h.str(&format!("{:?}", e.command));
    h.u64(e.target as u64);
    h.u64(e.issued_at.as_nanos());
    h.u64(e.response_delay.as_nanos());
    h.str(&format!("{:?}", e.result));
    digest_counters(h, &e.counter_delta);
    h.u64(e.timeline.len() as u64);
    h.u64(e.node_deltas.len() as u64);
}

/// Fold counters (already name-sorted by `Counters::iter`) into the
/// digest.
pub fn digest_counters(h: &mut Fnv, c: &Counters) {
    for (name, v) in c.iter() {
        h.str(name);
        h.u64(v);
    }
}

/// Heap bytes the workstation's history retains, estimated from its
/// records: timelines, per-node deltas and counter maps.
pub fn record_bytes(ws: &Workstation) -> f64 {
    let counters = |c: &Counters| c.iter().map(|(k, _)| k.len() + 8).sum::<usize>();
    ws.executions()
        .iter()
        .map(|e| {
            std::mem::size_of::<Execution>()
                + e.timeline
                    .iter()
                    .map(|t| std::mem::size_of::<lv_sim::TraceEvent>() + t.message.len())
                    .sum::<usize>()
                + e.node_deltas
                    .iter()
                    .map(|d| std::mem::size_of::<liteview::NodeDelta>() + counters(&d.counters))
                    .sum::<usize>()
                + counters(&e.counter_delta)
        })
        .sum::<usize>() as f64
}

/// Close the books on one deployment: fold its counters into the ledger
/// and digest.
pub fn account(net: &Network, ws: &Workstation, ledger: &mut Ledger, h: &mut Fnv) {
    let mut nodes = Counters::new();
    for s in net.node_stats() {
        nodes.merge(&s.counters);
    }
    digest_counters(h, &net.counters);
    digest_counters(h, &nodes);
    h.u64(net.events_dispatched());

    ledger.add("kernel.events", net.events_dispatched() as f64);
    ledger.add("kernel.dyn_actions", net.counters.sum_prefix("dyn.") as f64);
    for (key, name) in [
        ("radio.rx_frames", "rx.frames"),
        ("radio.rx_corrupt", "rx.corrupt"),
        ("radio.rx_garbled", "rx.garbled"),
        ("radio.halfduplex_miss", "rx.halfduplex_miss"),
    ] {
        ledger.add(key, net.counters.get(name) as f64);
    }
    ledger.add(
        "sim.trace_events",
        (net.trace.events().len() as u64 + net.trace.dropped()) as f64,
    );
    for (key, name) in [
        ("mac.tx_attempt", "mac.tx_attempt"),
        ("mac.retries", "mac.retries"),
        ("mac.queue_drop", "mac.queue_drop"),
        ("mac.cca_busy", "mac.cca_busy"),
        ("mac.cca_clear", "mac.cca_clear"),
        ("mac.delivered", "mac.delivered"),
        ("mac.submit", "mac.submit"),
        ("net.forward", "net.forward"),
        ("net.deliver", "net.deliver"),
        ("net.beacon_rx", "net.beacon_rx"),
        ("net.queue_drop", "net.queue_drop"),
        ("net.padding_capped", "padding.capped"),
    ] {
        ledger.add(key, nodes.get(name) as f64);
    }
    ledger.add("ws.history_len", ws.executions().len() as f64);
    ledger.add("ws.record_bytes", record_bytes(ws));
}

/// Host nanoseconds per call of each radio primitive, measured on a
/// clone of a workload's medium so the workload itself is untouched.
pub struct RadioProbe {
    /// Mean receivers per sender at full power (self excluded).
    pub fanout_mean: f64,
    /// One full `Medium::reachable` walk.
    pub reachable_ns: f64,
    /// `Medium::mean_rx_mw` over an even mix of near and far pairs.
    pub mean_rx_mw_ns: f64,
    /// `Medium::assess_on` over near pairs.
    pub assess_on_ns: f64,
    /// `Medium::cca_senses_fast` over near and far pairs.
    pub cca_ns: f64,
}

/// Probe calls per primitive; the medians of [`PROBE_REPS`] passes are
/// reported.
const PROBE_CALLS: usize = 20_000;
const PROBE_REPS: usize = 5;

fn per_call_ns(mut pass: impl FnMut() -> usize) -> f64 {
    let samples: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t = Instant::now();
            let calls = pass();
            t.elapsed().as_nanos() as f64 / calls.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Probe `medium` (cloned, so its caches start as the workload left
/// them).
pub fn probe_radio(medium: &Medium) -> RadioProbe {
    let mut m = medium.clone();
    let n = m.node_count() as u16;
    let power = PowerLevel::MAX;
    let near: Vec<(u16, u16)> = (0..n)
        .flat_map(|a| {
            m.reachable(a, power)
                .filter(move |&b| b != a)
                .map(move |b| (a, b))
                .collect::<Vec<_>>()
        })
        .collect();
    let far: Vec<(u16, u16)> = (0..n).map(|a| (a, (a + n / 2) % n)).collect();
    let fanout_mean = near.len() as f64 / n as f64;
    let cycle = |pairs: &[(u16, u16)], k: usize| pairs[k % pairs.len().max(1)];
    let near = if near.is_empty() { far.clone() } else { near };
    // Even calls take a near pair, odd calls a far one.
    let mixed = |k: usize| {
        if k.is_multiple_of(2) {
            cycle(&near, k / 2)
        } else {
            cycle(&far, k / 2)
        }
    };

    let reachable_ns = per_call_ns(|| {
        let mut calls = 0;
        while calls < PROBE_CALLS / 10 {
            for a in 0..n {
                black_box(m.reachable(black_box(a), power).count());
                calls += 1;
            }
        }
        calls
    });
    let mean_rx_mw_ns = per_call_ns(|| {
        for k in 0..PROBE_CALLS {
            let (a, b) = mixed(k);
            black_box(m.mean_rx_mw(black_box(a), b, power));
        }
        PROBE_CALLS
    });
    let mut rng = SimRng::from_seed_u64(7);
    let assess_on_ns = per_call_ns(|| {
        for k in 0..PROBE_CALLS {
            let (a, b) = cycle(&near, k);
            black_box(m.assess_on(black_box(a), b, power, 64, 0.0, Channel::DEFAULT, &mut rng));
        }
        PROBE_CALLS
    });
    let cca_ns = per_call_ns(|| {
        for k in 0..PROBE_CALLS {
            let (a, b) = mixed(k);
            black_box(m.cca_senses_fast(black_box(a), b, power, &mut rng));
        }
        PROBE_CALLS
    });
    RadioProbe {
        fanout_mean,
        reachable_ns,
        mean_rx_mw_ns,
        assess_on_ns,
        cca_ns,
    }
}

/// Queued events per node assumed for the queue probe: the kernel's own
/// queue length is not public, and a node keeps a beacon timer, a
/// housekeeping timer and MAC/reception events pending.
pub const QUEUE_EVENTS_PER_NODE: usize = 4;

/// Host nanoseconds per `EventQueue` push+pop pair at a steady depth of
/// `depth` 16-byte entries (the kernel's entry size).
pub fn probe_queue(depth: usize) -> f64 {
    let mut rng = SimRng::from_seed_u64(11);
    let mut q: EventQueue<[u64; 2]> = EventQueue::new();
    let mut now = 0u64;
    for i in 0..depth {
        q.push(SimTime::from_nanos(rng.below(1_000_000_000)), [i as u64, 0]);
    }
    per_call_ns(|| {
        for _ in 0..PROBE_CALLS * 5 {
            if let Some((t, e)) = q.pop() {
                now = t.as_nanos();
                q.push(
                    SimTime::from_nanos(now + 1 + rng.below(1_000_000_000)),
                    black_box(e),
                );
            }
        }
        PROBE_CALLS * 5
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_testbed::{Scenario, ScenarioConfig};

    fn fingerprint(net: &Network) -> (u64, u64, u64) {
        let mut h = Fnv::default();
        digest_counters(&mut h, &net.counters);
        (net.now().as_nanos(), net.events_dispatched(), h.finish())
    }

    /// The corridor built here is the one `lv-serve` boots.
    #[test]
    fn corridor_build_matches_scenario_build() {
        let (net, _, _) = build(
            Shape::Corridor,
            42,
            &mut Tracer::new(false, Instant::now()),
            &mut Ledger::default(),
        );
        let s = Scenario::build(ScenarioConfig::new(Topology::eight_hop_corridor(), 42));
        assert_eq!(fingerprint(&net), fingerprint(&s.net));
    }

    #[test]
    fn queue_probe_reports_a_positive_cost() {
        assert!(probe_queue(64) > 0.0);
    }
}
