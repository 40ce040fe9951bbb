//! The study rebuild: world → records → map → campaign → overlay → risk →
//! latency → landmarks and path index → encode → decode → query engine.
//!
//! The untimed-by-layer path goes through `Study::new` and
//! `Study::snapshot`, as the CLI's `snapshot` command does. The traced path
//! makes the same public calls one by one, each inside its own span, and
//! must freeze the same bytes.

use std::collections::BTreeMap;
use std::time::Instant;

use intertubes::atlas::World;
use intertubes::map::build_map_checked;
use intertubes::mitigation::latency_study;
use intertubes::obs::{ObsConfig, RunRecord, Session};
use intertubes::probes::{overlay_campaign, run_campaign};
use intertubes::records::{generate_corpus, sanitize_corpus};
use intertubes::risk::{hamming_heatmap, RiskMatrix};
use intertubes::serve::{build_landmarks, fnv1a64, PathIndex, QueryEngine, StudySnapshot};
use intertubes::{Study, StudyConfig};

use crate::trace::{self, SpanId, Tracer};
use crate::traffic::derive_seed;

/// Probes in the embedded overlay campaign: the size `intertubes snapshot`
/// freezes.
pub const PROBES: usize = 10_000;

/// The reference world and pipeline; the traceroute campaign's seed is the
/// part of the input the workload seed chooses.
pub fn study_config(seed: u64) -> StudyConfig {
    let mut cfg = StudyConfig::default();
    cfg.probes.seed = derive_seed(seed, "campaign");
    cfg
}

/// A frozen snapshot and the engine loaded from its bytes.
pub struct Built {
    pub bytes: Vec<u8>,
    pub engine: QueryEngine,
}

impl Built {
    pub fn digest(&self) -> u64 {
        fnv1a64(&self.bytes)
    }
}

pub fn load(bytes: Vec<u8>) -> Result<Built, String> {
    let decoded =
        StudySnapshot::from_bytes(&bytes).map_err(|e| format!("snapshot decode failed: {e}"))?;
    Ok(Built {
        bytes,
        engine: QueryEngine::new(decoded),
    })
}

/// One rebuild through the program's own `Study` path.
pub fn rebuild(cfg: &StudyConfig) -> Result<Built, String> {
    let snap = Study::new(*cfg).snapshot(Some(PROBES));
    let bytes = snap
        .to_bytes()
        .map_err(|e| format!("snapshot encode failed: {e}"))?;
    load(bytes)
}

/// Checks outside any timed region that decoding and re-encoding the
/// snapshot gives back the same bytes.
pub fn reencode_matches(built: &Built) -> bool {
    built
        .engine
        .snapshot()
        .to_bytes()
        .is_ok_and(|again| again == built.bytes)
}

/// Counts of one composed rebuild that the spans do not carry.
pub struct ComposedCounts {
    pub conduits: usize,
    pub overlaid: usize,
    pub index_pairs: usize,
}

/// One rebuild made call by call, each call inside its own span under a
/// `rebuild` root span.
pub fn rebuild_composed(
    cfg: &StudyConfig,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<(Built, ComposedCounts), String> {
    let t = Some(tracer);
    let root = trace::begin(t, "rebuild", parent);
    let policy = cfg.policy;

    let (world, _) = trace::timed(t, "atlas.world", root, || World::generate(cfg.world));
    let (corpus, _) = trace::timed(t, "records.generate", root, || {
        generate_corpus(&world, &cfg.corpus)
    });
    let published = world.publish_maps();
    world
        .roads
        .validate(policy)
        .map_err(|e| format!("road layer invalid: {e}"))?;
    let (sanitized, _) = trace::timed(t, "records.sanitize", root, || {
        sanitize_corpus(&corpus, policy)
    });
    let (corpus, _) = sanitized.map_err(|e| format!("corpus sanitize failed: {e}"))?;
    let (built, _) = trace::timed(t, "map.pipeline", root, || {
        build_map_checked(
            &published,
            &corpus,
            &world.cities,
            &world.roads,
            &world.rails,
            &cfg.pipeline,
            policy,
        )
    });
    let (built, _) = built.map_err(|e| format!("map pipeline failed: {e}"))?;
    let study = Study {
        config: *cfg,
        world,
        corpus,
        built,
    };

    // The body of `Study::snapshot`, one call at a time.
    let isps = study.mapped_isp_names();
    let map = &study.built.map;
    let (rm, _) = trace::timed(t, "risk.matrix", root, || RiskMatrix::build(map, &isps));
    let (hamming, _) = trace::timed(t, "risk.hamming", root, || hamming_heatmap(&rm));
    let mut probes = cfg.probes;
    probes.probes = PROBES;
    let (campaign, _) = trace::timed(t, "probes.campaign", root, || {
        run_campaign(&study.world, &probes)
    });
    let (overlay, _) = trace::timed(t, "probes.overlay", root, || {
        overlay_campaign(&study.world, map, &campaign)
    });
    let (latency, _) = trace::timed(t, "mitigation.latency", root, || {
        latency_study(
            map,
            &study.world.cities,
            &study.world.roads,
            &study.world.rails,
            &cfg.latency,
        )
    });
    let row_us_by_pair: BTreeMap<(String, String), f64> = latency
        .pairs
        .iter()
        .map(|p| ((p.a.clone(), p.b.clone()), p.row_us))
        .collect();
    let ((landmarks, paths), _) = trace::timed(t, "serve.index", root, || {
        let landmarks = build_landmarks(map);
        let paths = PathIndex::build(
            map,
            cfg.latency.k_paths,
            cfg.latency.detour_cap,
            &row_us_by_pair,
            landmarks.as_ref(),
        );
        (landmarks, paths)
    });
    let counts = ComposedCounts {
        conduits: map.conduits.len(),
        overlaid: overlay.overlaid,
        index_pairs: paths.pairs.len(),
    };
    let snap = StudySnapshot {
        config: serde_json::to_value(*cfg).unwrap_or(serde_json::Value::Null),
        map: map.clone(),
        isps,
        risk: rm,
        hamming,
        overlay,
        paths,
        landmarks,
    };
    let (bytes, _) = trace::timed(t, "serve.encode", root, || snap.to_bytes());
    let bytes = bytes.map_err(|e| format!("snapshot encode failed: {e}"))?;
    let (decoded, _) = trace::timed(t, "serve.decode", root, || {
        StudySnapshot::from_bytes(&bytes)
    });
    let decoded = decoded.map_err(|e| format!("snapshot decode failed: {e}"))?;
    let (engine, _) = trace::timed(t, "serve.engine_new", root, || QueryEngine::new(decoded));
    trace::end(t, root);
    Ok((Built { bytes, engine }, counts))
}

/// The per-layer metric each span of a composed rebuild feeds.
pub const LAYER_SPANS: [(&str, &[&str]); 11] = [
    ("atlas.world_ms", &["atlas.world"]),
    (
        "records.corpus_ms",
        &["records.generate", "records.sanitize"],
    ),
    ("map.pipeline_ms", &["map.pipeline"]),
    ("probes.campaign_ms", &["probes.campaign"]),
    ("probes.overlay_ms", &["probes.overlay"]),
    ("risk.matrix_ms", &["risk.matrix", "risk.hamming"]),
    ("mitigation.latency_ms", &["mitigation.latency"]),
    ("serve.index_ms", &["serve.index"]),
    ("serve.encode_ms", &["serve.encode"]),
    ("serve.decode_ms", &["serve.decode"]),
    ("serve.engine_new_ms", &["serve.engine_new"]),
];

/// One stage of the comparison between the program's own obs stage
/// timings and the benchmark's outside timings of the same work.
#[derive(Debug, Clone)]
pub struct CrossRow {
    pub stage: String,
    pub outside: String,
    pub obs_ms: Option<f64>,
    pub outside_ms: f64,
}

impl CrossRow {
    /// Agreement within 5 % of the outside timing or 2 ms, whichever is
    /// larger. A stage the program never recorded disagrees.
    pub fn agrees(&self) -> bool {
        self.obs_ms
            .is_some_and(|obs| (obs - self.outside_ms).abs() <= (0.05 * self.outside_ms).max(2.0))
    }
}

/// Runs one composed rebuild and one `Study::snapshot` call inside obs
/// sessions, and sets the program's stage timings beside the benchmark's
/// outside timings. Also returns both snapshots' digests, which must agree.
pub fn obs_crosscheck(cfg: &StudyConfig) -> Result<(Vec<CrossRow>, u64, u64), String> {
    let tracer = Tracer::default();
    let session = Session::begin(ObsConfig::default());
    let composed = rebuild_composed(cfg, &tracer, None);
    let record = session.finish();
    let (composed, _) = composed?;
    let spans = tracer.spans();
    let outside = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum()
    };

    let study = Study::new(*cfg);
    let session = Session::begin(ObsConfig::default());
    let t = Instant::now();
    let snap = study.snapshot(Some(PROBES));
    let freeze_ms = t.elapsed().as_secs_f64() * 1e3;
    let freeze_record = session.finish();
    let study_digest = fnv1a64(
        &snap
            .to_bytes()
            .map_err(|e| format!("snapshot encode failed: {e}"))?,
    );

    let stage_sum = |record: &RunRecord, stages: &[&str]| -> Option<f64> {
        stages
            .iter()
            .map(|s| record.stage_wall_ms(s))
            .sum::<Option<f64>>()
    };
    let row = |stage: &str, obs: Option<f64>, outside_name: &str, outside_ms: f64| CrossRow {
        stage: stage.to_string(),
        outside: outside_name.to_string(),
        obs_ms: obs,
        outside_ms,
    };
    let rows = vec![
        row(
            "world.generate",
            record.stage_wall_ms("world.generate"),
            "atlas.world",
            outside("atlas.world"),
        ),
        row(
            "map.step1+map.step2+map.step3+map.step4",
            stage_sum(
                &record,
                &["map.step1", "map.step2", "map.step3", "map.step4"],
            ),
            "map.pipeline",
            outside("map.pipeline"),
        ),
        row(
            "probes.campaign",
            record.stage_wall_ms("probes.campaign"),
            "probes.campaign",
            outside("probes.campaign"),
        ),
        row(
            "overlay",
            record.stage_wall_ms("overlay"),
            "probes.overlay",
            outside("probes.overlay"),
        ),
        row(
            "mitigation.latency",
            record.stage_wall_ms("mitigation.latency"),
            "mitigation.latency",
            outside("mitigation.latency"),
        ),
        row(
            "serve.freeze",
            freeze_record.stage_wall_ms("serve.freeze"),
            "Study::snapshot",
            freeze_ms,
        ),
    ];
    Ok((rows, composed.digest(), study_digest))
}
