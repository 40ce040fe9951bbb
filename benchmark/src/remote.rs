//! Remote closed loop: the same traffic against an in-process `NetServer`,
//! one closed-loop `NetClient` connection per thread, each waiting for
//! every reply. Every pass gets a fresh server and so a cold cache.

use std::time::{Duration, Instant};

use intertubes::net::{
    encode_frame, Frame, FrameKind, FrameReader, NetClient, NetReply, NetServer, RunningServer,
    ServerReport, SnapshotRegistry,
};
use intertubes::serve::{QueryEngine, ServeConfig, StudySnapshot};

use crate::replay::{digest, Traffic};
use crate::trace::{self, SpanId, Tracer};
use crate::Outcome;

pub const TENANT: &str = "bench";
pub const SNAPSHOT_ID: &str = "study";

/// A listening front-end serving `engine` under [`SNAPSHOT_ID`].
pub fn spawn_server(engine: QueryEngine) -> Result<RunningServer, String> {
    let mut registry = SnapshotRegistry::new();
    registry.insert(SNAPSHOT_ID, engine, ServeConfig::default());
    NetServer::new(registry)
        .spawn("127.0.0.1:0")
        .map_err(|e| format!("cannot start the front-end: {e}"))
}

/// One answered request.
pub struct Answer {
    pub index: usize,
    pub rtt_ns: u64,
    pub payload: Option<String>,
}

/// What one pass did. The payloads are checked and dropped by [`run`].
pub struct Pass {
    pub wall_ns: u64,
    pub answers: Vec<Answer>,
    pub report: ServerReport,
    pub clients: usize,
}

fn client_loop(
    addr: std::net::SocketAddr,
    j: usize,
    clients: usize,
    traffic: &Traffic,
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
) -> Result<Vec<Answer>, String> {
    let span = trace::begin(tracer, "net.client", parent);
    let mut client = NetClient::new(addr, TENANT).map_err(|e| format!("client {j}: {e}"))?;
    let mut answers = Vec::with_capacity(traffic.queries.len() / clients + 1);
    for index in (j..traffic.queries.len()).step_by(clients) {
        let req = tracer.map(|t| t.begin_request("net.request", span, Some(index as u64)));
        let t = Instant::now();
        let reply = client.request(SNAPSHOT_ID, index as u64, &traffic.queries[index]);
        let rtt_ns = t.elapsed().as_nanos() as u64;
        trace::end(tracer, req);
        let payload = match reply {
            Ok(NetReply::Response(p)) => Some(p),
            Ok(NetReply::ErrorFrame(_)) | Err(_) => None,
        };
        answers.push(Answer {
            index,
            rtt_ns,
            payload,
        });
    }
    client.close();
    trace::end(tracer, span);
    Ok(answers)
}

/// One pass: a fresh server on `snapshot`, then `clients` closed-loop
/// connections splitting the traffic round-robin.
pub fn pass(
    snapshot: &StudySnapshot,
    traffic: &Traffic,
    clients: usize,
    tracer: Option<&Tracer>,
) -> Result<Pass, String> {
    let server = spawn_server(QueryEngine::new(snapshot.clone()))?;
    let addr = server.addr();
    let span = trace::begin(tracer, "remote.pass", None);
    let t = Instant::now();
    let results: Vec<Result<Vec<Answer>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|j| scope.spawn(move || client_loop(addr, j, clients, traffic, tracer, span)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall_ns = t.elapsed().as_nanos() as u64;
    trace::end(tracer, span);
    let report = server
        .stop()
        .map_err(|e| format!("front-end stop failed: {e}"))?;
    let mut answers = Vec::with_capacity(traffic.queries.len());
    for r in results {
        answers.extend(r?);
    }
    answers.sort_by_key(|a| a.index);
    Ok(Pass {
        wall_ns,
        answers,
        report,
        clients,
    })
}

/// Checks a pass against the local replay: every request answered, no
/// error frame, and the same bytes as the reference (which holds no
/// refusal).
fn failures(p: &Pass, traffic: &Traffic) -> (u64, u64) {
    let mut failed = traffic.queries.len().abs_diff(p.answers.len()) as u64;
    let mut payloads = Vec::with_capacity(p.answers.len());
    for a in &p.answers {
        match &a.payload {
            Some(got) if got == &traffic.reference[a.index] => {}
            _ => failed += 1,
        }
        payloads.push(a.payload.clone().unwrap_or_default());
    }
    (failed, digest(&payloads))
}

/// Runs passes until `budget` has elapsed (at least one).
pub fn run(
    snapshot: &StudySnapshot,
    traffic: &Traffic,
    clients: usize,
    budget: Duration,
    tracer: Option<&Tracer>,
    passes: &mut Vec<Pass>,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let start = Instant::now();
    while outcome.attempted == 0 || start.elapsed() < budget {
        outcome.begin_pass();
        let mut p = pass(snapshot, traffic, clients, tracer)?;
        let (failed, remote_digest) = failures(&p, traffic);
        if failed > 0 || remote_digest != traffic.digest || p.report.errors > 0 {
            outcome.notes.push(format!(
                "remote digest {remote_digest:016x} != local {:016x}: {failed} bad answers, {} error frames",
                traffic.digest, p.report.errors
            ));
        }
        outcome.attempted += traffic.queries.len() as u64;
        outcome.failed += failed;
        let rtts_us: Vec<f64> = p.answers.iter().map(|a| a.rtt_ns as f64 / 1e3).collect();
        outcome.record_pass(p.answers.len() as f64 / (p.wall_ns as f64 / 1e9), &rtts_us);
        for a in &mut p.answers {
            a.payload = None;
        }
        passes.push(p);
    }
    Ok(outcome)
}

/// Codec costs of each request and its reply, measured call by call.
pub struct WireShadow {
    pub encode_ns: Vec<u64>,
    pub decode_ns: Vec<u64>,
    pub frame_bytes: Vec<usize>,
    /// Encode + decode of the request and the reply, per query index.
    pub codec_ns: Vec<u64>,
}

fn roundtrip(
    frame: &Frame,
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
) -> Result<(u64, u64, usize), String> {
    let (bytes, enc) = trace::timed(tracer, "wire.encode", parent, || encode_frame(frame));
    let bytes = bytes.map_err(|e| format!("frame encode failed: {e}"))?;
    let (decoded, dec) = trace::timed(tracer, "wire.decode", parent, || {
        let mut reader = FrameReader::new();
        reader.feed(&bytes);
        reader.next_frame()
    });
    match decoded {
        Ok(Some(f)) if &f == frame => Ok((enc, dec, bytes.len())),
        other => Err(format!("frame did not round-trip: {other:?}")),
    }
}

/// Encodes and decodes every request frame and its reference reply.
pub fn wire_shadow(
    traffic: &Traffic,
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
) -> Result<WireShadow, String> {
    let span = trace::begin(tracer, "wire.shadow", parent);
    let n = traffic.queries.len();
    let mut out = WireShadow {
        encode_ns: Vec::with_capacity(2 * n),
        decode_ns: Vec::with_capacity(2 * n),
        frame_bytes: Vec::with_capacity(2 * n),
        codec_ns: Vec::with_capacity(n),
    };
    for (i, q) in traffic.queries.iter().enumerate() {
        let payload = serde_json::to_string(q).unwrap_or_default();
        let request = Frame::request(TENANT, SNAPSHOT_ID, i as u64, payload);
        let reply = request.reply(FrameKind::Response, traffic.reference[i].clone());
        let mut codec = 0;
        for frame in [&request, &reply] {
            let (enc, dec, len) = roundtrip(frame, tracer, span)?;
            out.encode_ns.push(enc);
            out.decode_ns.push(dec);
            out.frame_bytes.push(len);
            codec += enc + dec;
        }
        out.codec_ns.push(codec);
    }
    trace::end(tracer, span);
    Ok(out)
}
