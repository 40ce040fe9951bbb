//! Metric definitions, per-layer attribution from the spans, and the
//! result line.

use std::collections::BTreeMap;

use intertubes::parallel::thread_count;

use crate::rebuild::{CrossRow, LAYER_SPANS, PROBES};
use crate::stats::{as_f64, median, tail};
use crate::trace::{self_times, Span, Tracer};
use crate::traffic::FAMILIES;
use crate::{remote, replay, Run};

/// A metric's name, unit and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn m(name: &'static str, unit: &'static str, higher_is_better: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better,
    }
}

/// Printed by untraced runs.
pub const END_TO_END: [Metric; 4] = [
    m("setup_s", "s", false),
    m("peak_rss_mb", "MiB", false),
    m("throughput_per_s", "1/s", true),
    m("latency_p50_us", "us", false),
];

/// Printed by traced runs.
pub const PER_LAYER: [Metric; 54] = [
    m("atlas.world_ms", "ms", false),
    m("records.corpus_ms", "ms", false),
    m("map.pipeline_ms", "ms", false),
    m("map.conduits", "count", true),
    m("probes.campaign_ms", "ms", false),
    m("probes.overlay_ms", "ms", false),
    m("probes.overlaid_frac", "ratio", true),
    m("risk.matrix_ms", "ms", false),
    m("mitigation.latency_ms", "ms", false),
    m("serve.index_ms", "ms", false),
    m("serve.index_pairs", "count", true),
    m("serve.encode_ms", "ms", false),
    m("serve.decode_ms", "ms", false),
    m("serve.snapshot_bytes", "bytes", false),
    m("serve.engine_new_ms", "ms", false),
    m("engine.isp_risk.p50_ns", "ns", false),
    m("engine.isp_risk.p99_ns", "ns", false),
    m("engine.isp_risk.count", "count", false),
    m("engine.similarity.p50_ns", "ns", false),
    m("engine.similarity.p99_ns", "ns", false),
    m("engine.similarity.count", "count", false),
    m("engine.latency.p50_ns", "ns", false),
    m("engine.latency.p99_ns", "ns", false),
    m("engine.latency.count", "count", false),
    m("engine.top_shared.p50_ns", "ns", false),
    m("engine.top_shared.p99_ns", "ns", false),
    m("engine.top_shared.count", "count", false),
    m("engine.cut_impact.p50_ns", "ns", false),
    m("engine.cut_impact.p99_ns", "ns", false),
    m("engine.cut_impact.count", "count", false),
    m("cache.hit_frac", "ratio", true),
    m("cache.evictions", "count", false),
    m("cache.get_ns_p50", "ns", false),
    m("query.key_ns_p50", "ns", false),
    m("scheduler.waves", "count", false),
    m("scheduler.residual_ms", "ms", false),
    m("wire.encode_ns_p50", "ns", false),
    m("wire.decode_ns_p50", "ns", false),
    m("wire.frame_bytes_mean", "bytes", false),
    m("net.rtt_us_p50", "us", false),
    m("net.rtt_us_p99", "us", false),
    m("net.residual_us_p50", "us", false),
    m("net.residual_us_p99", "us", false),
    m("net.frames", "count", false),
    m("net.error_frames", "count", false),
    m("net.quota_rejected", "count", false),
    m("net.reconnects", "count", false),
    m("scenario.exposures_ms", "ms", false),
    m("scenario.evaluate_ms", "ms", false),
    m("scenario.exposed_conduits", "count", false),
    m("scenario.mean_conduits_cut", "count", false),
    m("scenario.mean_pairs_affected", "count", false),
    m("trace.overhead_frac", "ratio", false),
    m("failed_frac", "ratio", false),
];

/// For every span named `root`, the summed self time of its direct
/// children in each group; one sample per root span, per metric.
fn per_root(
    spans: &[Span],
    selfs: &[u64],
    root: &str,
    groups: &[(&'static str, &[&str])],
) -> BTreeMap<&'static str, Vec<f64>> {
    let roots: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == root)
        .collect();
    let mut out = BTreeMap::new();
    for &(metric, names) in groups {
        let samples = roots
            .iter()
            .map(|&r| {
                spans
                    .iter()
                    .zip(selfs)
                    .filter(|(s, _)| s.parent == Some(r) && names.contains(&s.name))
                    .map(|(_, &ns)| ns as f64)
                    .sum()
            })
            .collect();
        out.insert(metric, samples);
    }
    out
}

fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// The per-layer values of a traced run, and a note per missing one.
pub struct Layers {
    pub values: BTreeMap<String, f64>,
    pub notes: Vec<String>,
}

/// Attributes the traced run to layers. Measures the work under
/// `run_batch` and the wire codec call by call on the run's traffic first,
/// inside the same tracer.
pub fn per_layer(run: &Run<'_>, tracer: &Tracer) -> Result<Layers, String> {
    let traffic = run.traffic()?;
    let shadow = replay::shadow(&run.ready.engine, &traffic.queries, Some(tracer), None);
    let wire = remote::wire_shadow(traffic, Some(tracer), None)?;
    let spans = tracer.spans();
    let selfs = self_times(&spans);
    let mut v: BTreeMap<String, Option<f64>> = BTreeMap::new();
    let mut put = |name: &str, value: Option<f64>| {
        v.insert(name.to_string(), value);
    };

    // Study rebuild.
    for (metric, samples) in per_root(&spans, &selfs, "rebuild", &LAYER_SPANS) {
        put(metric, median(&samples).map(|ns| ns / 1e6));
    }
    let counts = run.rebuild_counts.last();
    put("map.conduits", counts.map(|c| c.conduits as f64));
    put(
        "probes.overlaid_frac",
        counts.map(|c| c.overlaid as f64 / PROBES as f64),
    );
    put("serve.index_pairs", counts.map(|c| c.index_pairs as f64));
    put("serve.snapshot_bytes", Some(run.ready.bytes as f64));

    // Engine, cache, key and scheduler under local replay.
    for (f, family) in FAMILIES.iter().enumerate() {
        let samples = as_f64(&shadow.engine_ns[f]);
        put(&format!("engine.{family}.p50_ns"), median(&samples));
        put(
            &format!("engine.{family}.p99_ns"),
            tail(&samples).map(|t| t.value),
        );
        put(
            &format!("engine.{family}.count"),
            Some(samples.len() as f64),
        );
    }
    let passes = &run.replay_passes;
    let hits: usize = passes.iter().map(|p| p.hits).sum();
    let lookups: usize = passes.iter().map(|p| p.hits + p.misses).sum();
    put(
        "cache.hit_frac",
        (lookups > 0).then(|| hits as f64 / lookups as f64),
    );
    let evictions: Vec<f64> = passes.iter().map(|p| p.evictions as f64).collect();
    put("cache.evictions", median(&evictions));
    put("cache.get_ns_p50", median(&as_f64(&shadow.get_ns)));
    put("query.key_ns_p50", median(&as_f64(&shadow.key_ns)));
    let waves: Vec<f64> = passes.iter().map(|p| p.waves as f64).collect();
    put("scheduler.waves", median(&waves));
    let explained = shadow.key_ns.iter().sum::<u64>() as f64
        + shadow.get_ns.iter().sum::<u64>() as f64
        + shadow.engine_total_ns() as f64 / thread_count() as f64;
    let waves_ns = per_root(
        &spans,
        &selfs,
        "replay.pass",
        &[("scheduler", &["scheduler.run_batch"])],
    );
    let residual: Vec<f64> = waves_ns
        .get("scheduler")
        .map(|s| s.iter().map(|ns| (ns - explained) / 1e6).collect())
        .unwrap_or_default();
    put("scheduler.residual_ms", median(&residual));

    // Wire codec and the remote round trip.
    put("wire.encode_ns_p50", median(&as_f64(&wire.encode_ns)));
    put("wire.decode_ns_p50", median(&as_f64(&wire.decode_ns)));
    let frame_bytes: Vec<f64> = wire.frame_bytes.iter().map(|&b| b as f64).collect();
    put("wire.frame_bytes_mean", mean(&frame_bytes));
    let requests: Vec<&Span> = spans.iter().filter(|s| s.name == "net.request").collect();
    let rtt_us: Vec<f64> = requests
        .iter()
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    put("net.rtt_us_p50", median(&rtt_us));
    put("net.rtt_us_p99", tail(&rtt_us).map(|t| t.value));
    let net_residual_us: Vec<f64> = requests
        .iter()
        .filter_map(|s| {
            let i = usize::try_from(s.request_id?).ok()?;
            let local = shadow.local_ns.get(i)? + wire.codec_ns.get(i)?;
            Some((s.duration_ns() as f64 - local as f64) / 1e3)
        })
        .collect();
    put("net.residual_us_p50", median(&net_residual_us));
    put(
        "net.residual_us_p99",
        tail(&net_residual_us).map(|t| t.value),
    );
    let per_pass = |f: &dyn Fn(&remote::Pass) -> u64| -> Option<f64> {
        median(
            &run.remote_passes
                .iter()
                .map(|p| f(p) as f64)
                .collect::<Vec<_>>(),
        )
    };
    put("net.frames", per_pass(&|p| p.report.frames));
    put("net.error_frames", per_pass(&|p| p.report.errors));
    put("net.quota_rejected", per_pass(&|p| p.report.quota_rejected));
    put(
        "net.reconnects",
        per_pass(&|p| p.report.accepted.saturating_sub(p.clients as u64)),
    );

    // Scenario ensembles.
    for (metric, samples) in per_root(
        &spans,
        &selfs,
        "scenario.round",
        &[
            ("scenario.exposures_ms", &["scenario.exposures"]),
            ("scenario.evaluate_ms", &["scenario.evaluate"]),
        ],
    ) {
        put(metric, median(&samples).map(|ns| ns / 1e6));
    }
    let reports: Vec<_> = run.rounds.iter().flat_map(|r| &r.reports).collect();
    let exposed: Vec<f64> = run
        .rounds
        .iter()
        .map(|r| r.reports.iter().map(|c| c.exposed_conduits as f64).sum())
        .collect();
    put("scenario.exposed_conduits", median(&exposed));
    let field = |f: &dyn Fn(&intertubes::scenario::ConditionalRisk) -> f64| {
        mean(&reports.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    put(
        "scenario.mean_conduits_cut",
        field(&|r| r.mean_conduits_cut),
    );
    put(
        "scenario.mean_pairs_affected",
        field(&|r| r.mean_pairs_affected),
    );

    let mut values = BTreeMap::new();
    let mut notes = Vec::new();
    for (name, value) in v {
        match value {
            Some(x) if x.is_finite() => {
                values.insert(name, x);
            }
            _ => notes.push(format!("per-layer metric {name} has no value")),
        }
    }
    Ok(Layers { values, notes })
}

/// The obs cross-check as JSON rows, each with its verdict.
pub fn crosscheck_json(rows: &[CrossRow]) -> serde_json::Value {
    serde_json::Value::Array(
        rows.iter()
            .map(|r| {
                serde_json::json!({
                    "obs_stage": r.stage,
                    "outside_call": r.outside,
                    "obs_ms": r.obs_ms,
                    "outside_ms": r.outside_ms,
                    "agrees": r.agrees(),
                })
            })
            .collect(),
    )
}

/// The last line of standard output: correctness, counts and every metric
/// of `defs` by name with its unit.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[Metric],
    values: &BTreeMap<String, f64>,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(defs.len());
    for d in defs {
        let value = values
            .get(d.name)
            .filter(|x| x.is_finite())
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        fields.push(format!(
            "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            d.name, d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        fields.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> serde_json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn listed(doc: &serde_json::Value, key: &str) -> Vec<(String, String, String)> {
        doc[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m[k].as_str().expect("string field").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn every_name_in_benchmark_json_uses_the_allowed_charset() {
        let doc = benchmark_json();
        let mut names: Vec<String> = Vec::new();
        for key in ["workloads", "end_to_end", "per_layer"] {
            for entry in doc[key].as_array().expect("list") {
                names.push(entry["name"].as_str().expect("name").to_string());
            }
        }
        for name in &names {
            assert!(valid_name(name), "bad metric or workload name {name:?}");
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_code_prints() {
        let doc = benchmark_json();
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let want: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| {
                    let better = if d.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    };
                    (d.name.to_string(), d.unit.to_string(), better.to_string())
                })
                .collect();
            assert_eq!(listed(&doc, key), want, "{key}");
        }
    }

    #[test]
    fn charset_check_rejects_bad_names() {
        assert!(valid_name("engine.cut_impact.p99_ns"));
        assert!(!valid_name("latency p50"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("µs"));
    }

    #[test]
    fn result_line_prints_every_metric_or_fails() {
        let defs = [m("a_s", "s", false), m("b", "count", true)];
        let mut values = BTreeMap::new();
        values.insert("a_s".to_string(), 1.25);
        assert!(result_line(true, 3, 0, &defs, &values).is_err());
        values.insert("b".to_string(), 7.0);
        let line = result_line(true, 3, 0, &defs, &values).expect("all metrics present");
        let parsed: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(parsed["metrics"]["a_s"]["value"], 1.25);
        assert_eq!(parsed["metrics"]["b"]["unit"], "count");
        assert_eq!(parsed["attempted"], 3);
    }
}
