//! The two in-process workloads: `grid-1000` and `corridor-diagnosis`.
//! One operator drives a `Workstation` in a closed loop: each command
//! is issued when the previous one has returned.

use crate::deploy::{account, build, digest_execution, exec_span, run_for, Shape};
use crate::ops::{CorridorPlan, GridCmd, GridPlan, DEPLOY_SEED, GRID_STRETCH_MS};
use crate::spans::Tracer;
use crate::stats::Fnv;
use crate::Rep;
use liteview::{CommandRequest, DiagnosisConfig, DiagnosisReport, Workstation};
use lv_kernel::Network;
use lv_net::packet::Port;
use lv_sim::SimDuration;
use lv_testbed::{fault_corpus, FaultLabel};
use std::time::Instant;

/// Issue one command, timing its host turnaround.
fn exec_timed(
    net: &mut Network,
    ws: &mut Workstation,
    req: CommandRequest,
    tr: &mut Tracer,
    rep: &mut Rep,
    h: &mut Fnv,
) {
    let span = exec_span(req.command());
    tr.op += 1;
    let events = net.events_dispatched();
    let s = tr.begin(span);
    let t = Instant::now();
    let res = ws.exec(net, req);
    let secs = t.elapsed().as_secs_f64();
    tr.end(s);
    rep.cmd_ms.push(secs * 1e3);
    rep.attempted += 1;
    rep.ledger.add("ws.execs", 1.0);
    rep.ledger.add_time("ws.exec_s", secs);
    rep.ledger
        .add("ws.exec_events", (net.events_dispatched() - events) as f64);
    match res {
        Ok(e) => digest_execution(h, &e),
        Err(e) => rep.errors.push(format!("{span}: exec returned {e}")),
    }
}

/// One repetition of `grid-1000`: per episode, build the grid, then run
/// the episode's rounds, each closed by an unattended stretch.
pub fn grid_rep(plan: &GridPlan, tr: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let mut h = Fnv::default();
    for rounds in &plan.episodes {
        let (mut net, mut ws, setup) = build(Shape::Grid, DEPLOY_SEED, tr, &mut rep.ledger);
        rep.setup_s.push(setup);
        let sim0 = net.now();
        let t0 = Instant::now();
        for round in rounds {
            for &cmd in round {
                let req = match cmd {
                    GridCmd::Traceroute(t) => CommandRequest::traceroute(t, 32, Port::GEOGRAPHIC),
                    GridCmd::NeighborList => CommandRequest::neighbor_list(true),
                    GridCmd::GetPower => CommandRequest::get_power(),
                };
                exec_timed(&mut net, &mut ws, req, tr, &mut rep, &mut h);
            }
            run_for(
                &mut net,
                SimDuration::from_millis(GRID_STRETCH_MS),
                "kernel.run_for",
                tr,
                &mut rep.ledger,
            );
        }
        rep.loop_s += t0.elapsed().as_secs_f64();
        rep.sim_s += net.now().saturating_since(sim0).as_secs_f64();
        account(&net, &ws, &mut rep.ledger, &mut h);
        if tr.on() {
            rep.medium = Some(net.medium.clone());
        }
    }
    rep.digest = h.finish();
    rep
}

/// Precision and recall bars of `figures --diagnosis`.
pub const MIN_PRECISION: f64 = 0.9;
/// See [`MIN_PRECISION`].
pub const MIN_RECALL: f64 = 0.8;

/// Episodes opening this long after a fault clears still count as
/// detections of it — the corpus scorer's rule.
const CLEAR_SLACK: SimDuration = SimDuration::from_secs(30);

/// Far end of the corridor.
const FAR: u16 = 8;

fn credits(e: &DiagnosisReport, l: &FaultLabel) -> bool {
    l.scope.matches(e.suspect_tx, e.suspect_rx)
        && e.opened_at >= l.onset
        && l.cleared.is_none_or(|c| e.opened_at <= c + CLEAR_SLACK)
}

/// One repetition of `corridor-diagnosis`: every corpus scenario on a
/// fresh corridor with the engine armed; the operator issues ping,
/// traceroute, neighbor list and get power back to back, polling the
/// engine after each, until the scenario's horizon.
pub fn corridor_rep(plan: &CorridorPlan, tr: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let mut h = Fnv::default();
    let mut corpus = None;
    let (mut episodes, mut true_pos, mut labels, mut detected) = (0u64, 0u64, 0u64, 0u64);
    for &idx in &plan.scenarios {
        let (mut net, mut ws, setup) = build(Shape::Corridor, DEPLOY_SEED, tr, &mut rep.ledger);
        rep.setup_s.push(setup);
        // The corpus is anchored at the warmed-up clock, identical for
        // every corridor built from one seed.
        let corpus: &Vec<_> = corpus.get_or_insert_with(|| fault_corpus(net.now()));
        let sc = &corpus[idx];
        ws.arm_diagnosis(&mut net, DiagnosisConfig::default());
        sc.plan.schedule(&mut net);
        let sim0 = net.now();
        let t0 = Instant::now();
        let mut operator_cmds = 0u64;
        while net.now() < sc.horizon {
            for req in [
                CommandRequest::ping(FAR, 1, 32, Some(Port::GEOGRAPHIC)),
                CommandRequest::traceroute(FAR, 32, Port::GEOGRAPHIC),
                CommandRequest::neighbor_list(true),
                CommandRequest::get_power(),
            ] {
                exec_timed(&mut net, &mut ws, req, tr, &mut rep, &mut h);
                operator_cmds += 1;
                let s = tr.begin("diag.poll");
                let t = Instant::now();
                ws.poll_diagnosis(&mut net);
                rep.ledger
                    .add_time("diag.poll_s", t.elapsed().as_secs_f64());
                tr.end(s);
                rep.ledger.add("diag.polls", 1.0);
            }
        }
        rep.loop_s += t0.elapsed().as_secs_f64();
        rep.sim_s += net.now().saturating_since(sim0).as_secs_f64();
        rep.ledger.add(
            "diag.ladder_cmds",
            (ws.executions().len() as u64 - operator_cmds) as f64,
        );

        let log = ws.diagnosis_log();
        for e in &log.episodes {
            h.str(&format!("{e:?}"));
        }
        episodes += log.episodes.len() as u64;
        true_pos += log
            .episodes
            .iter()
            .filter(|e| sc.labels.iter().any(|l| credits(e, l)))
            .count() as u64;
        labels += sc.labels.len() as u64;
        detected += sc
            .labels
            .iter()
            .filter(|l| log.episodes.iter().any(|e| credits(e, l)))
            .count() as u64;
        account(&net, &ws, &mut rep.ledger, &mut h);
        if tr.on() {
            rep.medium = Some(net.medium.clone());
        }
    }
    let precision = if episodes == 0 {
        1.0
    } else {
        true_pos as f64 / episodes as f64
    };
    let recall = if labels == 0 {
        1.0
    } else {
        detected as f64 / labels as f64
    };
    rep.ledger.add("diag.episodes", episodes as f64);
    rep.ledger.add("diag.precision", precision);
    rep.ledger.add("diag.recall", recall);
    // Scoring the corpus is one checked operation.
    rep.attempted += 1;
    if precision < MIN_PRECISION || recall < MIN_RECALL {
        rep.defects.push(format!(
            "diagnosis bars missed: precision {precision:.3} (>= {MIN_PRECISION}), \
             recall {recall:.3} (>= {MIN_RECALL}) over {episodes} episodes"
        ));
    }
    rep.digest = h.finish();
    rep
}
