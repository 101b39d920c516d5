//! The `serve-session` workload: the corridor `lv-serve` boots, served
//! by `Server<UdpTransport>` on an ephemeral loopback port in a second
//! thread, and one closed-loop client opening one session at a time.

use crate::deploy::{account, build, digest_execution, Ledger, Shape};
use crate::ops::{ServePlan, DEPLOY_SEED};
use crate::spans::Tracer;
use crate::stats::Fnv;
use crate::Rep;
use liteview::session::{Request, RequestBody, Response, ResponseBody, SessionHost};
use liteview::shell::ShellCommand;
use liteview::transport::{PeerId, Transport, TransportError};
use lv_serve::{Client, ClientError, Server, ServerConfig, ServerStats, UdpConfig, UdpTransport};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Per-request client timeout. No request is retried: a timeout is a
/// failed operation, not a reason to resend.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

/// Bound on the single `report` request sent after the timed phase.
pub const REPORT_TIMEOUT: Duration = Duration::from_secs(2);

/// The fleet harness's policy: the rate limit sits far above what one
/// closed-loop client offers, so a refusal is a failure, not policy.
fn server_config() -> ServerConfig {
    ServerConfig {
        max_sessions: 256,
        rate_limit: 256.0,
        burst: 256.0,
        ..ServerConfig::default()
    }
}

/// Client sockets wake this often, so closing one costs at most this.
fn client_udp() -> UdpConfig {
    UdpConfig {
        read_timeout: Duration::from_millis(2),
        ..UdpConfig::default()
    }
}

/// The server's transport, noting when each frame arrives, so a timed
/// poll can be split into waiting for a frame and handling it.
struct Arrivals<T> {
    inner: T,
    last_frame: Option<Instant>,
}

impl<T: Transport> Transport for Arrivals<T> {
    fn send(&mut self, peer: PeerId, frame: &[u8]) -> Result<(), TransportError> {
        self.inner.send(peer, frame)
    }

    fn recv(
        &mut self,
        wait: Option<Duration>,
    ) -> Result<Option<(PeerId, Vec<u8>)>, TransportError> {
        let got = self.inner.recv(wait);
        if let Ok(Some(_)) = got {
            self.last_frame = Some(Instant::now());
        }
        got
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }

    fn max_frame(&self) -> usize {
        self.inner.max_frame()
    }
}

/// What the server thread hands back.
struct ServerOut {
    stats: ServerStats,
    rx_dropped: u64,
    /// Arrival of every frame a `Server::poll` handled, and the end of
    /// that poll.
    busy: Vec<(Instant, Instant)>,
}

/// Span name of a request, by verb.
fn call_span(body: &RequestBody) -> &'static str {
    match body {
        RequestBody::Hello { .. } => "client.hello",
        RequestBody::Cd { .. } => "client.cd",
        RequestBody::Pwd => "client.pwd",
        RequestBody::Exec { command } => match command {
            ShellCommand::Ping { .. } => "client.exec.ping",
            ShellCommand::Traceroute { .. } => "client.exec.traceroute",
            ShellCommand::List { .. } => "client.exec.neighbor_list",
            ShellCommand::GetPower => "client.exec.get_power",
            _ => "client.exec.other",
        },
        RequestBody::Run { .. } => "client.run",
        RequestBody::Report | RequestBody::ReportDiagnosis => "client.report",
        RequestBody::Bye => "client.bye",
    }
}

/// Span name of an in-process `Workstation::exec`, by command.
fn ws_span(command: &ShellCommand) -> &'static str {
    match command {
        ShellCommand::Ping { .. } => "ws.exec.ping",
        ShellCommand::Traceroute { .. } => "ws.exec.traceroute",
        ShellCommand::List { .. } => "ws.exec.neighbor_list",
        ShellCommand::GetPower => "ws.exec.get_power",
        _ => "ws.exec.other",
    }
}

/// Does `reply` answer `req` with the right kind (and, for commands, a
/// non-empty transcript)?
fn matches_kind(req: &RequestBody, reply: &ResponseBody) -> bool {
    match (req, reply) {
        (RequestBody::Hello { .. }, ResponseBody::Welcome { .. }) => true,
        (RequestBody::Cd { .. } | RequestBody::Pwd, ResponseBody::Cwd { .. }) => true,
        (RequestBody::Exec { .. }, ResponseBody::Done { lines, .. }) => !lines.is_empty(),
        (RequestBody::Run { .. }, ResponseBody::Ran { .. }) => true,
        (RequestBody::Report, ResponseBody::Report { .. }) => true,
        (RequestBody::Bye, ResponseBody::Bye) => true,
        _ => false,
    }
}

/// Fold one reply into the digest.
fn digest_reply(h: &mut Fnv, reply: &ResponseBody) {
    match reply {
        ResponseBody::Done { execution, lines } => {
            digest_execution(h, execution);
            for l in lines {
                h.str(l);
            }
        }
        other => h.str(&format!("{other:?}")),
    }
}

/// Simulated time a reply reports, if any.
fn reply_now_ns(reply: &ResponseBody) -> Option<u64> {
    match reply {
        ResponseBody::Welcome { now_ns, .. } | ResponseBody::Ran { now_ns } => Some(*now_ns),
        _ => None,
    }
}

type UdpServer = Server<Arrivals<UdpTransport>>;

/// Boot the served deployment on an ephemeral loopback port; returns
/// the server, its address and the boot time in seconds.
fn boot() -> Result<(UdpServer, std::net::SocketAddr, f64), String> {
    let t = Instant::now();
    let (net, ws, _) = build(
        Shape::Corridor,
        DEPLOY_SEED,
        &mut Tracer::new(false, t),
        &mut Ledger::default(),
    );
    let transport = UdpTransport::bind("127.0.0.1:0", UdpConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = transport.local_addr().map_err(|e| format!("addr: {e}"))?;
    let transport = Arrivals {
        inner: transport,
        last_frame: None,
    };
    let server = Server::new(net, ws, transport, server_config());
    Ok((server, addr, t.elapsed().as_secs_f64()))
}

/// Boot a server the way every repetition does and shut it down;
/// returns the boot time in seconds.
pub fn boot_once() -> Result<f64, String> {
    boot().map(|(_, _, secs)| secs)
}

/// One repetition: boot a server, run every session of the plan, and
/// (when `report_probe`) end with one unretried `report` request.
pub fn serve_rep(plan: &ServePlan, tr: &mut Tracer, report_probe: bool) -> Rep {
    let mut rep = Rep::default();
    let stop = AtomicBool::new(false);
    let trace = tr.on();
    let (addr_tx, addr_rx) = mpsc::channel();
    let out = std::thread::scope(|scope| {
        let server = scope.spawn(|| -> Result<ServerOut, String> {
            // Owned here, so a failed boot hangs up the channel at once.
            let addr_tx = addr_tx;
            let (mut server, addr, setup_s) = boot()?;
            let _ = addr_tx.send((addr, setup_s));
            let mut busy = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                match server.poll(Some(Duration::from_millis(5))) {
                    Ok(true) if trace => {
                        if let Some(at) = server.transport().last_frame {
                            busy.push((at, Instant::now()));
                        }
                    }
                    Ok(_) => {}
                    Err(TransportError::Closed) => break,
                    Err(_) => {}
                }
                server.sweep_idle();
            }
            let stats = server.finish();
            Ok(ServerOut {
                stats,
                rx_dropped: server.transport().inner.rx_dropped(),
                busy,
            })
        });
        let client = run_sessions(plan, tr, &mut rep, &addr_rx, report_probe);
        stop.store(true, Ordering::SeqCst);
        let out = server.join();
        (client, out)
    });
    match out {
        (Err(e), _) | (_, Ok(Err(e))) => rep.errors.push(e),
        (_, Err(_)) => rep.errors.push("server thread panicked".into()),
        (Ok(()), Ok(Ok(server))) => {
            let s = server.stats;
            for (key, v) in [
                ("serve.requests", s.requests),
                ("serve.duplicates", s.duplicates),
                ("serve.rate_limited", s.rate_limited),
                ("serve.malformed", s.malformed),
                ("serve.send_failures", s.send_failures),
                ("serve.rx_dropped", server.rx_dropped),
                ("serve.idle_evicted", s.idle_evicted),
            ] {
                rep.ledger.add(key, v as f64);
            }
            // Anything the server refused, dropped or could not send
            // during the timed phase is a failed operation. The report
            // probe's own failure is counted once, below.
            let timed_failures = s.rate_limited
                + s.malformed
                + s.idle_evicted
                + s.refused_full
                + server.rx_dropped
                + s.send_failures.saturating_sub(report_probe as u64);
            if timed_failures > 0 {
                rep.errors.push(format!(
                    "server counted {timed_failures} refused/dropped frames: {s:?}"
                ));
            }
            for (i, (a, b)) in server.busy.iter().enumerate() {
                tr.record("serve.poll", *a, *b, i as u64 + 1);
            }
            rep.server_busy = server.busy;
        }
    }
    rep
}

fn run_sessions(
    plan: &ServePlan,
    tr: &mut Tracer,
    rep: &mut Rep,
    addr_rx: &mpsc::Receiver<(std::net::SocketAddr, f64)>,
    report_probe: bool,
) -> Result<(), String> {
    let (addr, setup_s) = addr_rx
        .recv_timeout(Duration::from_secs(30))
        .map_err(|e| format!("server did not come up: {e}"))?;
    rep.setup_s.push(setup_s);
    let mut h = Fnv::default();
    let (mut first_ns, mut last_ns) = (None, 0u64);
    let t0 = Instant::now();
    for (i, session) in plan.sessions.iter().enumerate() {
        let transport =
            UdpTransport::connect(addr, client_udp()).map_err(|e| format!("connect: {e}"))?;
        let mut client = Client::new(transport, 0, i as u32 + 1);
        client.timeout = CLIENT_TIMEOUT;
        client.retries = 0;
        for (seq, body) in session.iter().enumerate() {
            let name = call_span(body);
            tr.op += 1;
            let s = tr.begin(name);
            let t = Instant::now();
            let res = client.call(body.clone());
            let secs = t.elapsed().as_secs_f64();
            tr.end(s);
            rep.attempted += 1;
            rep.cmd_ms.push(secs * 1e3);
            match res {
                Ok(reply) if matches_kind(body, &reply) => {
                    digest_reply(&mut h, &reply);
                    if let Some(ns) = reply_now_ns(&reply) {
                        first_ns.get_or_insert(ns);
                        last_ns = last_ns.max(ns);
                    }
                    if tr.on() {
                        rep.replies.push(Response {
                            session: i as u32 + 1,
                            seq: seq as u32 + 1,
                            body: reply,
                        });
                    }
                }
                Ok(reply) => rep.errors.push(format!(
                    "session {}: {name} answered with {}",
                    i + 1,
                    format!("{reply:?}").chars().take(80).collect::<String>()
                )),
                Err(e) => rep.errors.push(format!("session {}: {name}: {e}", i + 1)),
            }
        }
    }
    rep.loop_s = t0.elapsed().as_secs_f64();
    rep.sim_s = last_ns.saturating_sub(first_ns.unwrap_or(0)) as f64 / 1e9;
    rep.digest = h.finish();
    if report_probe {
        probe_report(addr, plan.sessions.len() as u32 + 1, rep)?;
    }
    Ok(())
}

/// The known `report` defect, kept visible: the reply embeds the whole
/// execution history, so after the timed phase it exceeds the frame
/// cap (or decodes in quadratic time). One request, no retry, a bounded
/// wait, counted against the attempts.
fn probe_report(addr: std::net::SocketAddr, session: u32, rep: &mut Rep) -> Result<(), String> {
    let transport =
        UdpTransport::connect(addr, client_udp()).map_err(|e| format!("connect: {e}"))?;
    let mut client = Client::new(transport, 0, session);
    client.timeout = CLIENT_TIMEOUT;
    client.retries = 0;
    client
        .hello()
        .map_err(|e| format!("report probe hello: {e}"))?;
    client.timeout = REPORT_TIMEOUT;
    rep.attempted += 1;
    let t = Instant::now();
    match client.report() {
        Ok(json) if !json.is_empty() => {}
        Ok(_) => rep.defects.push("report: empty reply".into()),
        Err(e) => rep.defects.push(format!(
            "report: {e} after {:.2} s (the reply embeds the whole history)",
            t.elapsed().as_secs_f64()
        )),
    }
    // The server may still be sending the oversized reply; give the
    // goodbye room so the session closes cleanly.
    client.timeout = Duration::from_secs(20);
    match client.bye() {
        Ok(()) | Err(ClientError::TimedOut) => Ok(()),
        Err(e) => Err(format!("report probe bye: {e}")),
    }
}

/// Replay one repetition's requests in-process through `SessionHost`
/// on a corridor built the same way. The server's deployment is private
/// to it; this replay reaches the same state through public functions,
/// which yields the kernel, MAC, net and workstation counts for this
/// workload and cross-checks every reply against the socket path.
pub fn replay_in_process(plan: &ServePlan, tr: &mut Tracer, rep: &mut Rep) -> u64 {
    let (mut net, mut ws, _) = build(Shape::Corridor, DEPLOY_SEED, tr, &mut rep.ledger);
    let mut host = SessionHost::new();
    let mut h = Fnv::default();
    for (i, session) in plan.sessions.iter().enumerate() {
        for (seq, body) in session.iter().enumerate() {
            let req = Request {
                session: i as u32 + 1,
                seq: seq as u32 + 1,
                body: body.clone(),
            };
            // Run and Exec requests are timed as the kernel and
            // workstation calls they make.
            let timed = match body {
                RequestBody::Run { .. } => {
                    Some(("kernel.run_for", "kernel.run_busy_s", "kernel.run_events"))
                }
                RequestBody::Exec { command } => {
                    rep.ledger.add("ws.execs", 1.0);
                    Some((ws_span(command), "ws.exec_s", "ws.exec_events"))
                }
                _ => None,
            };
            let resp = match timed {
                None => host.apply(&mut net, &mut ws, 0, &req),
                Some((span, time_key, events_key)) => {
                    let before = net.events_dispatched();
                    let s = tr.begin(span);
                    let t = Instant::now();
                    let resp = host.apply(&mut net, &mut ws, 0, &req);
                    rep.ledger.add_time(time_key, t.elapsed().as_secs_f64());
                    tr.end(s);
                    rep.ledger
                        .add(events_key, (net.events_dispatched() - before) as f64);
                    resp
                }
            };
            digest_reply(&mut h, &resp.body);
        }
    }
    account(&net, &ws, &mut rep.ledger, &mut Fnv::default());
    rep.medium = Some(net.medium.clone());
    h.finish()
}
