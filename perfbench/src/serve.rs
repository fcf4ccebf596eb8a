//! `serve`: an in-process `mpass_serve::Server` with the CLI's default
//! batching serves the world's MalConv over a Unix socket. One client
//! connection keeps one `Score` request outstanding at all times (a
//! closed loop). Payloads mix the world's corpus (benign and malware)
//! with MPass-modified malware.
//!
//! One connection, not one per CPU: with two, the server parses both
//! requests at once, so throughput tracks how much of a second CPU a
//! shared host happens to give (it fell 40% when the process was pinned
//! to one CPU, and by a third between two sets of runs). With one, the
//! request path runs one step at a time and pinning moved it by 2%.

use crate::layers::Layer;
use crate::report::{latencies, Attribution, Report};
use crate::{Options, Scale};
use mpass_core::modify::modify;
use mpass_core::ModificationConfig;
use mpass_detectors::{Detector, Verdict};
use mpass_engine::OracleFault;
use mpass_experiments::World;
use mpass_serve::protocol::{parse_request, parse_response};
use mpass_serve::{
    decode_hex, encode_hex, ReloadableModel, Request, Response, ScoreRequest, ScoreResponse,
    ScoredVerdict, ServeTarget, Server, ServerConfig, TenantPolicy,
};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Responses a full-scale run collects at least, so that ten lie beyond
/// the p99, however slow the host.
pub const MIN_REQUESTS: usize = 1_500;
/// MPass-modified malware samples added to the payload mix.
pub const MODIFIED: usize = 60;
const TENANT: &str = "bench";

/// One payload and the verdict in-process `classify` gives it.
pub struct Payload {
    pub bytes: Vec<u8>,
    pub expected: Verdict,
}

/// Corpus samples plus `modify` outputs of the first malware samples,
/// shuffled by the world seed, each with its in-process verdict.
pub fn payloads(world: &World, model: &dyn Detector) -> Vec<Payload> {
    let config = ModificationConfig::default();
    let mut rng = ChaCha8Rng::seed_from_u64(world.config.seed ^ 0x5E4E);
    let mut bytes: Vec<Vec<u8>> = world.dataset.samples.iter().map(|s| s.bytes.clone()).collect();
    for sample in world.dataset.malware().into_iter().take(MODIFIED) {
        if let Ok(m) = modify(sample, &world.pool, &config, &mut rng) {
            bytes.push(m.bytes);
        }
    }
    bytes.shuffle(&mut rng);
    bytes.into_iter().map(|b| Payload { expected: model.classify(&b), bytes: b }).collect()
}

/// A serve target whose batches are timed.
struct TimedTarget<'a> {
    inner: &'a dyn ServeTarget,
    layer: &'a Layer,
}

impl ServeTarget for TimedTarget<'_> {
    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }
    fn reload(&self) -> Result<u64, String> {
        self.inner.reload()
    }
    fn score_batch(&self, items: &[&[u8]]) -> (u64, Vec<Result<ScoredVerdict, OracleFault>>) {
        self.layer.time(items.len(), || self.inner.score_batch(items))
    }
}

struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

/// What the closed loop observed.
pub struct Loop {
    pub wall_ms: f64,
    /// Round trip of every response, milliseconds, from the write of its
    /// request to the read of its line.
    pub rtt_ms: Vec<f64>,
    /// When each correct response was read, milliseconds into the loop.
    pub done_ms: Vec<f64>,
    pub sent: u64,
    pub completed: u64,
    /// Refused, errored or wrong-verdict responses.
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Client-side encode and decode time, milliseconds (traced only).
    pub client_protocol_ms: f64,
    /// Server-side latency of every completed request, milliseconds.
    pub server_latency_ms: Vec<f64>,
    pub stats: Option<mpass_serve::StatsResponse>,
}

/// Build and encode a request (client protocol work, timed when `timed`)
/// and write it.
fn send(
    conn: &mut Conn,
    request: impl FnOnce() -> Request,
    timed: bool,
    protocol: &mut f64,
) -> Result<(), String> {
    let start = Instant::now();
    let line = serde_json::to_string(&request()).map_err(|e| format!("cannot encode: {e}"))?;
    if timed {
        *protocol += start.elapsed().as_secs_f64() * 1e3;
    }
    conn.writer
        .write_all(line.as_bytes())
        .and_then(|()| conn.writer.write_all(b"\n"))
        .map_err(|e| format!("cannot send: {e}"))
}

fn score_request(id: u64, payload: &Payload) -> Request {
    Request::Score(ScoreRequest {
        id,
        tenant: TENANT.to_owned(),
        bytes_hex: encode_hex(&payload.bytes),
        deadline_ms: None,
    })
}

/// Serve `payloads` from a fresh in-process server under the closed loop
/// for `seconds`, and on until `min_requests` were sent; with `layer`,
/// the server's target is timed and so is the client's protocol work.
pub fn closed_loop(
    model: Arc<dyn Detector>,
    payloads: &[Payload],
    seconds: f64,
    min_requests: usize,
    layer: Option<&Layer>,
) -> Result<Loop, String> {
    static SERVERS: AtomicUsize = AtomicUsize::new(0);
    let socket = PathBuf::from(format!(
        ".perfbench-{}-{}.sock",
        std::process::id(),
        SERVERS.fetch_add(1, Ordering::Relaxed)
    ));
    let served = ReloadableModel::new(model, |_| Err("the benchmark never reloads".into()));
    let timed;
    let target: &dyn ServeTarget = match layer {
        Some(layer) => {
            timed = TimedTarget { inner: &served, layer };
            &timed
        }
        None => &served,
    };
    let server = Server::new(
        target,
        ServerConfig {
            socket: socket.clone(),
            // Admission never refuses the closed loop: it is not the
            // rate-limit path under test.
            tenant: TenantPolicy { rate_per_sec: 1e9, burst: u32::MAX, ..TenantPolicy::default() },
            // The CLI's default batching (`mpass serve` without
            // `--batch` and `--linger-ms`).
            ..ServerConfig::default()
        },
    );
    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.run());
        let result = drive(&socket, payloads, seconds, min_requests, layer.is_some());
        server.request_shutdown();
        let summary = daemon.join().map_err(|_| "the server thread panicked".to_owned())?;
        summary?;
        let mut observed = result?;
        let shard = server.stats().to_shard_metrics("serve");
        observed.server_latency_ms =
            shard.series.get("serve/latency_ms").cloned().unwrap_or_default();
        Ok(observed)
    })
}

fn drive(
    socket: &PathBuf,
    payloads: &[Payload],
    seconds: f64,
    min_requests: usize,
    timed: bool,
) -> Result<Loop, String> {
    let give_up = Instant::now() + Duration::from_secs(30);
    let stream = loop {
        match UnixStream::connect(socket) {
            Ok(stream) => break stream,
            Err(e) if Instant::now() >= give_up => return Err(format!("cannot connect: {e}")),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    // A server that stops answering fails the run instead of hanging it.
    stream.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut conn = Conn { reader, writer: stream, line: String::new() };
    let mut out = Loop {
        wall_ms: 0.0,
        rtt_ms: Vec::new(),
        done_ms: Vec::new(),
        sent: 0,
        completed: 0,
        failed: 0,
        first_failure: None,
        client_protocol_ms: 0.0,
        server_latency_ms: Vec::new(),
        stats: None,
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || (out.sent as usize) < min_requests {
        let id = out.sent;
        let payload = &payloads[id as usize % payloads.len()];
        send(&mut conn, || score_request(id, payload), timed, &mut out.client_protocol_ms)?;
        let sent_at = Instant::now();
        out.sent += 1;
        conn.line.clear();
        conn.reader.read_line(&mut conn.line).map_err(|e| format!("cannot read: {e}"))?;
        out.rtt_ms.push(sent_at.elapsed().as_secs_f64() * 1e3);
        let parse_start = Instant::now();
        let response = parse_response(&conn.line);
        if timed {
            out.client_protocol_ms += parse_start.elapsed().as_secs_f64() * 1e3;
        }
        match response {
            Ok(Response::Score(ScoreResponse { id: got, verdict, .. }))
                if got == id && verdict == payload.expected =>
            {
                out.completed += 1;
                out.done_ms.push(start.elapsed().as_secs_f64() * 1e3);
            }
            other => {
                out.failed += 1;
                out.first_failure.get_or_insert_with(|| {
                    format!("request {id}: expected {} got {other:?}", payload.expected)
                });
            }
        }
    }
    out.wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut ignored = 0.0;
    send(&mut conn, || Request::Stats { id: u64::MAX }, false, &mut ignored)?;
    conn.line.clear();
    conn.reader.read_line(&mut conn.line).map_err(|e| format!("cannot read: {e}"))?;
    if let Ok(Response::Stats(stats)) = parse_response(&conn.line) {
        out.stats = Some(stats);
    }
    Ok(out)
}

/// Server-side protocol cost per request, microseconds: the server's
/// parse, hex decode and response encode, replayed after the run on the
/// request lines of the first payloads. The fastest of three passes is
/// kept, so a busy moment on the host does not count as protocol work.
fn server_protocol_us(payloads: &[Payload]) -> f64 {
    let lines: Vec<String> = payloads
        .iter()
        .take(32)
        .enumerate()
        .map(|(id, p)| serde_json::to_string(&score_request(id as u64, p)).unwrap_or_default())
        .collect();
    let pass = || {
        let start = Instant::now();
        for line in &lines {
            let Ok(Request::Score(req)) = parse_request(line) else {
                continue;
            };
            let bytes = decode_hex(&req.bytes_hex).unwrap_or_default();
            let response = Response::Score(ScoreResponse {
                id: req.id,
                verdict: Verdict::Benign,
                score: Some(bytes.len() as f32),
                epoch: 1,
                queued_us: 0,
            });
            std::hint::black_box(serde_json::to_string(&response).unwrap_or_default());
        }
        start.elapsed().as_secs_f64() * 1e6 / lines.len().max(1) as f64
    };
    (0..3).map(|_| pass()).fold(f64::INFINITY, f64::min)
}

/// Completed responses per second: the median over consecutive windows of
/// one pass over the payloads each (the same work in every window), so
/// that a slow phase of the host of a second or two does not set the
/// figure; the whole loop when it made no full pass.
pub fn throughput(observed: &Loop, payloads: usize) -> f64 {
    let pass = payloads.max(1);
    let mut ends = vec![0.0];
    ends.extend(observed.done_ms.iter().skip(pass - 1).step_by(pass));
    if ends.len() < 3 {
        return observed.completed as f64 / (observed.wall_ms / 1e3);
    }
    let mut rates: Vec<f64> =
        ends.windows(2).map(|w| pass as f64 / ((w[1] - w[0]) / 1e3)).collect();
    rates.sort_by(f64::total_cmp);
    crate::report::quantile(&rates, 0.5)
}

pub fn check(report: &mut Report, observed: &Loop) {
    report.attempted += observed.sent;
    report.failed += observed.failed;
    if let Some(first) = &observed.first_failure {
        report.check(false, || {
            format!("{} responses refused or wrong; first: {first}", observed.failed)
        });
    }
}

pub fn run(world: World, opts: &Options) -> Result<Report, String> {
    let payloads = payloads(&world, &world.malconv);
    let model: Arc<dyn Detector> = Arc::new(world.malconv);
    let mut report = Report::new();
    let min = if opts.scale == Scale::Full { MIN_REQUESTS } else { 0 };
    let untraced = closed_loop(model.clone(), &payloads, opts.seconds, min, None)?;
    check(&mut report, &untraced);
    let throughput = |l: &Loop| throughput(l, payloads.len());
    if !opts.trace {
        report.metric("throughput_per_s", throughput(&untraced), "1/s");
        report.note(format!(
            "throughput: median over {} passes of {} payloads",
            untraced.completed as usize / payloads.len(),
            payloads.len()
        ));
        latencies(&mut report, &untraced.rtt_ms, 0.99, 1, "one request round trip");
        return Ok(report);
    }
    let layer = Layer::default();
    let traced = closed_loop(model, &payloads, opts.seconds, min, Some(&layer))?;
    check(&mut report, &traced);
    let completed = traced.completed.max(1) as f64;
    let stats = traced.stats.as_ref().ok_or("the server sent no Stats response")?;
    let server_ms: f64 = traced.server_latency_ms.iter().sum();
    let queue_wait_ms = server_ms - layer.item_ms();
    report.metric("detectors.target.calls", layer.items() as f64, "count");
    report.metric("detectors.target.ms", layer.ms(), "ms");
    report.metric("serve.server_p50_ms", stats.p50_ms, "ms");
    report.metric("serve.server_p99_ms", stats.p99_ms, "ms");
    report.metric("serve.client_protocol_us", 1e3 * traced.client_protocol_ms / completed, "us");
    report.metric("serve.server_protocol_us", server_protocol_us(&payloads), "us");
    report.metric("serve.queue_wait_ms", queue_wait_ms / completed, "ms");
    report.metric(
        "engine.batch_size_mean",
        layer.items() as f64 / layer.calls().max(1) as f64,
        "count",
    );
    report.metric("engine.batch_flushes", layer.calls() as f64, "count");
    // Every part is measured in the run itself. The round trip minus the
    // server's own latency is a leftover: the server's protocol work and
    // socket transfer (`serve.server_protocol_us` above estimates the
    // first). So the parts add up to client protocol time plus summed
    // round trips, and `unattributed_share` detects only time the
    // connection spends with no request outstanding outside client
    // protocol work.
    let rtt_ms: f64 = traced.rtt_ms.iter().sum();
    let mut attribution = Attribution::new(1, traced.wall_ms);
    attribution.part("serve.client_protocol", traced.client_protocol_ms);
    attribution.part("serve.rtt_minus_server (leftover)", rtt_ms - server_ms);
    attribution.part("serve.queue_wait", queue_wait_ms);
    attribution.part("detectors.target (per waiting request)", layer.item_ms());
    attribution.finish(&mut report);
    crate::overhead(&mut report, throughput(&untraced), throughput(&traced));
    Ok(report)
}
