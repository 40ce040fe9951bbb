//! The determinism contract (DESIGN.md §7): every parallel hot path must
//! produce output byte-identical to the serial formulation, at any thread
//! count, for clean and faulted inputs alike.
//!
//! One thread is the serial baseline — `intertubes_parallel` short-circuits
//! every fan-out to an inline loop at `threads == 1` — so comparing
//! serialized stage outputs across 1, 2, and 8 threads exercises both the
//! code-path equivalence and the shard-merge algebra.

use std::collections::BTreeMap;
use std::sync::Mutex;

use intertubes::degrade::DegradationPolicy;
use intertubes::faults::FaultPlan;
use intertubes::mitigation::already_optimal_fraction;
use intertubes::obs;
use intertubes::parallel::with_threads;
use intertubes::risk::hamming_heatmap;
use intertubes::serve::fnv1a64;
use intertubes::{Study, StudyConfig};

/// Serializes every test in this binary. The observability session is
/// process-exclusive, and an instrumented `Study` build in one test would
/// otherwise bleed spans and counters into another test's run record.
/// Lock ordering everywhere: `BATTERY` → `Session::begin`. (`with_threads`
/// takes no lock: its pin is local to the calling thread.)
static BATTERY: Mutex<()> = Mutex::new(());

fn battery_lock() -> std::sync::MutexGuard<'static, ()> {
    BATTERY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Probe volume for the overlay stage — small enough to keep the battery
/// fast, large enough to touch every accumulator field.
const PROBES: usize = 5_000;

/// Serialized outputs of every parallel stage, computed at `threads`.
fn stage_snapshot(threads: usize) -> BTreeMap<&'static str, String> {
    with_threads(threads, || {
        let mut out = BTreeMap::new();
        let (study, report) =
            Study::new_checked(StudyConfig::default()).expect("default config builds");
        out.insert(
            "pipeline.map",
            serde_json::to_string(&study.built.map).expect("map serializes"),
        );
        out.insert(
            "pipeline.report",
            serde_json::to_string(&report).expect("report serializes"),
        );
        let campaign = study.campaign(Some(PROBES));
        let (overlay, overlay_report) = study
            .overlay_checked(&campaign)
            .expect("clean campaign overlays");
        out.insert(
            "overlay",
            serde_json::to_string(&overlay).expect("overlay serializes"),
        );
        out.insert(
            "overlay.report",
            serde_json::to_string(&overlay_report).expect("report serializes"),
        );
        let rm = study.risk_matrix();
        out.insert(
            "risk.matrix",
            serde_json::to_string(&rm).expect("matrix serializes"),
        );
        out.insert(
            "risk.hamming",
            serde_json::to_string(&hamming_heatmap(&rm)).expect("heatmap serializes"),
        );
        out.insert(
            "risk.already_optimal",
            format!("{:.17}", already_optimal_fraction(&study.built.map, &rm)),
        );
        out.insert(
            "mitigation.latency",
            serde_json::to_string(&study.latency()).expect("latency serializes"),
        );
        out
    })
}

#[test]
fn all_stages_are_thread_count_invariant() {
    let _guard = battery_lock();
    let serial = stage_snapshot(1);
    for threads in [2, 8] {
        let parallel = stage_snapshot(threads);
        assert_eq!(
            serial.keys().collect::<Vec<_>>(),
            parallel.keys().collect::<Vec<_>>()
        );
        for (stage, expected) in &serial {
            let got = &parallel[stage];
            assert_eq!(
                expected, got,
                "stage {stage} diverged between 1 and {threads} threads"
            );
        }
    }
}

/// One faulted build's observable output, serialized: either the full
/// (map, report, ledger) triple or the error's display string.
fn faulted_snapshot(plan: &FaultPlan, policy: DegradationPolicy, threads: usize) -> String {
    with_threads(threads, || {
        let mut cfg = StudyConfig::default();
        cfg.policy = policy;
        match Study::new_faulted(cfg, plan) {
            Ok((study, report, ledger)) => format!(
                "map:{}\nreport:{}\nledger:{}",
                serde_json::to_string(&study.built.map).expect("map serializes"),
                serde_json::to_string(&report).expect("report serializes"),
                serde_json::to_string(&ledger).expect("ledger serializes"),
            ),
            Err(e) => format!("error:{e}"),
        }
    })
}

#[test]
fn faulted_builds_are_thread_count_invariant() {
    let _guard = battery_lock();
    for (name, plan) in FaultPlan::built_in_scenarios() {
        for policy in [DegradationPolicy::Lenient, DegradationPolicy::Strict] {
            let serial = faulted_snapshot(&plan, policy, 1);
            let parallel = faulted_snapshot(&plan, policy, 4);
            assert_eq!(
                serial, parallel,
                "scenario {name:?} under {policy} diverged between 1 and 4 threads"
            );
        }
    }
}

/// Canonical run manifest, merged metrics and canonical event log for a
/// full instrumented clean run at `threads`. The canonical form strips
/// wall-clock fields and the environment section (DESIGN.md §8), so
/// everything that remains — stage set, item counts, outcomes, counters,
/// histograms, topology — must be byte-identical at every thread count.
/// The event log is `record_to_jsonl` with every line canonicalized.
fn canonical_run(threads: usize) -> (String, String, String) {
    with_threads(threads, || {
        let session = obs::Session::begin(obs::ObsConfig::default());
        let cfg = StudyConfig::default();
        let seed = cfg.world.seed;
        let policy = cfg.policy.to_string();
        let (study, _report) =
            Study::new_checked(cfg).expect("default config builds");
        let campaign = study.campaign(Some(PROBES));
        let _overlay = study
            .overlay_checked(&campaign)
            .expect("clean campaign overlays");
        let rm = study.risk_matrix();
        let _heat = hamming_heatmap(&rm);
        let _rob = study.robustness(6);
        let _aug = study.augmentation();
        let _lat = study.latency();
        let record = session.finish();

        let s = intertubes::map::summarize(&study.built.map);
        let info = obs::RunInfo {
            command: "determinism-test".to_string(),
            seed,
            policy,
            fault_plan: None,
            threads: intertubes::parallel::thread_count(),
            exit_status: 0,
            health: None,
            serve_stats: None,
            tenants: None,
        };
        let topology = obs::TopologyCounts {
            nodes: s.nodes,
            links: s.links,
            conduits: s.conduits,
            validated_conduits: s.validated_conduits,
        };
        let manifest = obs::build_manifest(&info, &record, Some(&topology));
        let canonical = serde_json::to_string(&obs::canonicalize(&manifest))
            .expect("canonical manifest serializes");
        let metrics = serde_json::to_string(&record.metrics.to_json())
            .expect("metrics serialize");
        let log: Vec<String> = obs::record_to_jsonl(&record, &manifest)
            .lines()
            .map(|line| {
                let value: serde_json::Value = serde_json::from_str(line).expect("log line parses");
                serde_json::to_string(&obs::canonicalize(&value))
                    .expect("canonical log line serializes")
            })
            .collect();
        (canonical, metrics, log.join("\n"))
    })
}

#[test]
fn canonical_manifests_are_thread_count_invariant() {
    let _guard = battery_lock();
    let (serial_manifest, serial_metrics, _) = canonical_run(1);
    for threads in [2, 8] {
        let (manifest, metrics, _) = canonical_run(threads);
        assert_eq!(
            serial_manifest, manifest,
            "canonical manifest diverged between 1 and {threads} threads"
        );
        assert_eq!(
            serial_metrics, metrics,
            "merged metrics diverged between 1 and {threads} threads"
        );
    }
}

/// `fnv1a64` of the canonical manifest of `canonical_run(1)`.
const CANONICAL_MANIFEST_FNV: &str = "37d62a7d581e01a8";

/// `fnv1a64` of the canonical event log of `canonical_run(1)`.
const CANONICAL_EVENT_LOG_FNV: &str = "125ac70227cbe537";

/// The thread-count tests only compare runs with each other; this pins
/// the observability bytes themselves, so a change to what the recorder
/// writes fails here even when it is the same at every thread count.
#[test]
fn canonical_obs_plane_is_pinned() {
    let _guard = battery_lock();
    let (manifest, _, log) = canonical_run(1);
    let digest = |s: &str| format!("{:016x}", fnv1a64(s.as_bytes()));
    assert_eq!(
        digest(&manifest),
        CANONICAL_MANIFEST_FNV,
        "canonical manifest"
    );
    assert_eq!(digest(&log), CANONICAL_EVENT_LOG_FNV, "canonical event log");
}

/// Canonical manifest for one instrumented faulted build: spans, injected
/// fault events, degradation events, and the exit status all land in the
/// record, so this asserts the observability layer itself is deterministic
/// under every fault scenario and both policies.
fn canonical_faulted_run(
    plan: &FaultPlan,
    policy: DegradationPolicy,
    threads: usize,
) -> String {
    with_threads(threads, || {
        let session = obs::Session::begin(obs::ObsConfig::default());
        let mut cfg = StudyConfig::default();
        cfg.policy = policy;
        let seed = cfg.world.seed;
        let exit_status = match Study::new_faulted(cfg, plan) {
            Ok(_) => 0,
            Err(_) => 3,
        };
        let record = session.finish();
        let info = obs::RunInfo {
            command: "determinism-test-faulted".to_string(),
            seed,
            policy: policy.to_string(),
            fault_plan: None,
            threads: intertubes::parallel::thread_count(),
            exit_status,
            health: None,
            serve_stats: None,
            tenants: None,
        };
        let manifest = obs::build_manifest(&info, &record, None);
        serde_json::to_string(&obs::canonicalize(&manifest))
            .expect("canonical manifest serializes")
    })
}

#[test]
fn faulted_manifests_are_thread_count_invariant() {
    let _guard = battery_lock();
    for (name, plan) in FaultPlan::built_in_scenarios() {
        for policy in [DegradationPolicy::Lenient, DegradationPolicy::Strict] {
            let serial = canonical_faulted_run(&plan, policy, 1);
            let parallel = canonical_faulted_run(&plan, policy, 4);
            assert_eq!(
                serial, parallel,
                "manifest for scenario {name:?} under {policy} diverged \
                 between 1 and 4 threads"
            );
        }
    }
}

#[test]
fn with_threads_pins_the_resolved_count() {
    let _guard = battery_lock();
    // The resolved count must follow the scoped pin exactly.
    for n in [1, 3, 8] {
        let seen = with_threads(n, intertubes::parallel::thread_count);
        assert_eq!(seen, n);
    }
}
