//! Local replay: the benchmark's traffic through `run_batch` with the
//! default `ServeConfig` (256-query waves, cache on), one 256-query batch
//! per call and a cold cache per pass.

use std::time::{Duration, Instant};

use intertubes::parallel::with_threads;
use intertubes::serve::{
    fnv1a64, run_batch, scoped_key, CacheConfig, Query, QueryEngine, ResultCache, ServeConfig,
};

use crate::trace::{self, SpanId, Tracer};
use crate::traffic::{derive_seed, family_index, generate, TrafficPool};
use crate::Outcome;

/// Queries in one pass, for local replay and remote alike.
pub const PASS_QUERIES: usize = 10_000;

/// The queries of one pass and their independently computed answers.
pub struct Traffic {
    pub queries: Vec<Query>,
    pub reference: Vec<String>,
    pub digest: u64,
}

/// FNV-1a over the newline-joined responses, as the serve gates digest.
pub fn digest(responses: &[String]) -> u64 {
    fnv1a64(responses.join("\n").as_bytes())
}

/// Whether a response is a refusal rather than an answer.
pub fn is_refusal(response: &str) -> bool {
    response.starts_with("{\"Rejected\"") || response.starts_with("{\"Degraded\"")
}

/// Generates the pass's queries from the workload seed and answers them
/// with the cache off on one thread: the reference every pass must equal.
/// Call before any other benchmark thread runs.
pub fn traffic(engine: &QueryEngine, seed: u64) -> Traffic {
    let pool = TrafficPool::from_snapshot(engine.snapshot());
    let queries = generate(&pool, PASS_QUERIES, derive_seed(seed, "traffic"));
    let cfg = ServeConfig {
        cache: CacheConfig {
            enabled: false,
            ..CacheConfig::default()
        },
        ..ServeConfig::default()
    };
    let cache = ResultCache::new(cfg.cache);
    let (reference, _) = with_threads(1, || run_batch(engine, &queries, &cfg, &cache));
    let digest = digest(&reference);
    Traffic {
        queries,
        reference,
        digest,
    }
}

/// What one pass did. The responses are checked and dropped by [`run`].
pub struct Pass {
    pub wall_ns: u64,
    pub wave_ns: Vec<u64>,
    pub responses: Vec<String>,
    pub hits: usize,
    pub misses: usize,
    pub waves: usize,
    pub evictions: u64,
}

/// One pass over `queries` with a cold cache, one `run_batch` call per
/// wave.
pub fn pass(
    engine: &QueryEngine,
    queries: &[Query],
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
) -> Pass {
    let cfg = ServeConfig::default();
    let cache = ResultCache::new(cfg.cache);
    let span = trace::begin(tracer, "replay.pass", parent);
    let mut out = Pass {
        wall_ns: 0,
        wave_ns: Vec::with_capacity(queries.len() / cfg.queue_capacity + 1),
        responses: Vec::with_capacity(queries.len()),
        hits: 0,
        misses: 0,
        waves: 0,
        evictions: 0,
    };
    let t = Instant::now();
    for wave in queries.chunks(cfg.queue_capacity) {
        let ((responses, stats), ns) = trace::timed(tracer, "scheduler.run_batch", span, || {
            run_batch(engine, wave, &cfg, &cache)
        });
        out.wave_ns.push(ns);
        out.responses.extend(responses);
        out.hits += stats.cache_hits;
        out.misses += stats.cache_misses;
        out.waves += stats.waves;
    }
    out.wall_ns = t.elapsed().as_nanos() as u64;
    trace::end(tracer, span);
    out.evictions = cache.stats().evictions();
    out
}

/// Compares a pass's answers with the reference, which holds no refusal:
/// returns how many differ.
pub fn failures(responses: &[String], traffic: &Traffic) -> u64 {
    let mut failed = traffic.queries.len().abs_diff(responses.len()) as u64;
    for (got, want) in responses.iter().zip(&traffic.reference) {
        if got != want {
            failed += 1;
        }
    }
    failed
}

/// Replays passes until `budget` has elapsed (at least one).
pub fn run(
    engine: &QueryEngine,
    traffic: &Traffic,
    budget: Duration,
    tracer: Option<&Tracer>,
    passes: &mut Vec<Pass>,
) -> Outcome {
    let mut outcome = Outcome::default();
    let start = Instant::now();
    while outcome.attempted == 0 || start.elapsed() < budget {
        outcome.begin_pass();
        let mut p = pass(engine, &traffic.queries, tracer, None);
        let failed = failures(&p.responses, traffic);
        if failed > 0 {
            outcome.notes.push(format!(
                "replay pass digest {:016x} != reference {:016x} ({failed} responses differ)",
                digest(&p.responses),
                traffic.digest
            ));
        }
        outcome.attempted += traffic.queries.len() as u64;
        outcome.failed += failed;
        let waves_us: Vec<f64> = p.wave_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        outcome.record_pass(
            p.responses.len() as f64 / (p.wall_ns as f64 / 1e9),
            &waves_us,
        );
        p.responses = Vec::new();
        passes.push(p);
    }
    outcome
}

/// Per-query costs of the work `run_batch` does, measured call by call on
/// a private cache: key, cache lookup, and the engine on first occurrence.
pub struct Shadow {
    pub key_ns: Vec<u64>,
    pub get_ns: Vec<u64>,
    pub engine_ns: [Vec<u64>; 5],
    /// Key + lookup + engine cost of each query, in query order.
    pub local_ns: Vec<u64>,
}

impl Shadow {
    pub fn engine_total_ns(&self) -> u64 {
        self.engine_ns.iter().flatten().sum()
    }
}

/// Measures the layers under `run_batch` on the same queries.
pub fn shadow(
    engine: &QueryEngine,
    queries: &[Query],
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
) -> Shadow {
    let cache = ResultCache::new(ServeConfig::default().cache);
    let id = engine.snapshot_id();
    let span = trace::begin(tracer, "replay.shadow", parent);
    let mut out = Shadow {
        key_ns: Vec::with_capacity(queries.len()),
        get_ns: Vec::with_capacity(queries.len()),
        engine_ns: Default::default(),
        local_ns: Vec::with_capacity(queries.len()),
    };
    for q in queries {
        let (key, key_ns) = trace::timed(tracer, "query.key", span, || scoped_key(id, q));
        let (hit, get_ns) = trace::timed(tracer, "cache.get", span, || cache.get(&key));
        let mut engine_ns = 0;
        if hit.is_none() {
            let (answer, ns) = trace::timed(tracer, "engine.answer", span, || {
                engine.answer(q).to_canonical_json()
            });
            cache.insert(&key, &answer);
            engine_ns = ns;
            if let Some(f) = family_index(q) {
                out.engine_ns[f].push(ns);
            }
        }
        out.key_ns.push(key_ns);
        out.get_ns.push(get_ns);
        out.local_ns.push(key_ns + get_ns + engine_ns);
    }
    trace::end(tracer, span);
    out
}
