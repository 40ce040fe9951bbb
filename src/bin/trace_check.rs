//! `trace_check` — the CI trace gate.
//!
//! Validates a `--trace-json` JSON Lines file produced by the `intertubes`
//! CLI: every line must parse as JSON with a `type` field, and the final
//! line must be a run manifest that passes
//! [`intertubes::obs::validate_manifest`] with every end-to-end pipeline
//! stage present.
//!
//! ```sh
//! intertubes --trace-json out.jsonl export artifacts/
//! trace_check out.jsonl
//! trace_check --profile serve serve.jsonl      # serving-run span set
//! trace_check --profile scenario plan.jsonl    # scenario-run span set
//! trace_check --profile remote listen.jsonl    # remote front-end span set
//! ```
//!
//! The `--profile` flag selects which stage-span set the manifest must
//! contain: `export` (the default — the full pipeline, with the campaign
//! and overlay search counts among the stage items), `serve` (snapshot
//! load, scheduler, replay), `scenario` (snapshot load plus the ensemble
//! evaluation), or `remote` (a `serve --listen` run: accept, frame, and
//! route spans around the scheduler).
//!
//! Exit codes: 0 valid, 1 invalid trace, 2 usage error.

use intertubes::obs::validate_manifest;
use serde_json::Value;

/// Stages an `export` run must record: the four map-construction steps,
/// ingest/sanitize, the traceroute overlay, the §4 risk analyses, and all
/// three §5 mitigation solvers.
const EXPORT_STAGES: [&str; 15] = [
    "world.generate",
    "corpus.generate",
    "records.sanitize",
    "map.sanitize",
    "map.step1",
    "map.step2",
    "map.step3",
    "map.step4",
    "probes.campaign",
    "overlay",
    "risk.matrix",
    "risk.hamming",
    "mitigation.robustness",
    "mitigation.augmentation",
    "mitigation.latency",
];

/// Item counts an `export` run's stages must carry: the route queries,
/// tree builds and peering lookups of the probe campaign, and how many hop
/// pairs the overlay resolved directly or gap-filled.
const EXPORT_ITEMS: [(&str, &str); 5] = [
    ("probes.campaign", "route_calls"),
    ("probes.campaign", "trees_built"),
    ("probes.campaign", "peering_lookups"),
    ("overlay", "direct_pairs"),
    ("overlay", "gap_pairs"),
];

/// Stages a `serve` replay must record: the snapshot load, the scheduler's
/// wave loop, and the replay wrapper around it.
const SERVE_STAGES: [&str; 3] = ["serve.load", "serve.replay", "serve.schedule"];

/// Stages a `scenario` evaluation must record.
const SCENARIO_STAGES: [&str; 2] = ["serve.load", "scenario.ensemble"];

/// Stages a remote serving run (`serve --listen`) must record: the
/// snapshot load(s), the transport's accept/frame/route spans, and the
/// scheduler the routed batches run through.
const REMOTE_STAGES: [&str; 5] = [
    "serve.load",
    "net.accept",
    "net.frame",
    "net.route",
    "serve.schedule",
];

fn fail(msg: &str) -> ! {
    eprintln!("trace_check: {msg}");
    std::process::exit(1);
}

fn usage() -> ! {
    eprintln!("usage: trace_check [--profile export|serve|scenario|remote] <trace.jsonl>");
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut required: &[&str] = &EXPORT_STAGES;
    let mut required_items: &[(&str, &str)] = &EXPORT_ITEMS;
    let no_items: &[(&str, &str)] = &[];
    if args.first().map(String::as_str) == Some("--profile") {
        if args.len() < 2 {
            usage();
        }
        (required, required_items) = match args[1].as_str() {
            "export" => (&EXPORT_STAGES[..], &EXPORT_ITEMS[..]),
            "serve" => (&SERVE_STAGES[..], no_items),
            "scenario" => (&SCENARIO_STAGES[..], no_items),
            "remote" => (&REMOTE_STAGES[..], no_items),
            _ => usage(),
        };
        args.drain(..2);
    }
    let [path] = args.as_slice() else { usage() };

    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        fail(&format!("{path} is empty"));
    }

    let mut last: Option<Value> = None;
    for (i, line) in lines.iter().enumerate() {
        let v: Value = serde_json::from_str(line)
            .unwrap_or_else(|e| fail(&format!("line {}: not JSON: {e:?}", i + 1)));
        if v.get("type").and_then(Value::as_str).is_none() {
            fail(&format!("line {}: missing \"type\" field", i + 1));
        }
        last = Some(v);
    }

    let manifest = last.unwrap_or(Value::Null);
    if manifest.get("type").and_then(Value::as_str) != Some("manifest") {
        fail("final line is not the run manifest");
    }
    if manifest
        .get("run")
        .and_then(|r| r.get("exit_status"))
        .and_then(Value::as_i64)
        != Some(0)
    {
        fail("manifest records a non-zero exit status");
    }
    let mut problems = validate_manifest(&manifest, required)
        .err()
        .unwrap_or_default();
    for (stage, key) in required_items {
        let count = manifest
            .get("stages")
            .and_then(|s| s.get(stage))
            .and_then(|s| s.get("items"))
            .and_then(|i| i.get(key))
            .and_then(Value::as_u64);
        if count.is_none() {
            problems.push(format!("stage {stage}: required item {key} missing"));
        }
    }
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("trace_check: {p}");
        }
        fail(&format!("{} problem(s) in {path}", problems.len()));
    }

    let stages = manifest
        .get("stages")
        .and_then(Value::as_object)
        .map(|s| s.len())
        .unwrap_or(0);
    let events = manifest
        .get("events")
        .and_then(|e| e.get("total"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    println!(
        "trace_check: ok — {} line(s), {stages} stage(s), {events} event(s)",
        lines.len()
    );
}
