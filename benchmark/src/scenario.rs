//! Scenario ensembles: the two built-in plans (hurricane corridor and
//! earthquake disc) through `QueryEngine::conditional_risk`, with draw
//! seeds derived from the workload seed. No cache and no wire.

use std::path::Path;
use std::time::{Duration, Instant};

use intertubes::parallel::with_threads;
use intertubes::scenario::{exposures, ConditionalRisk, ScenarioPlan};
use intertubes::serve::QueryEngine;

use crate::trace::{self, Tracer};
use crate::traffic::derive_seed;
use crate::Outcome;

/// Golden reports of the built-in plans, relative to the repository root.
pub const GOLDEN_DIR: &str = "tests/goldens";

/// The built-in plans of round `round`: the same footprints and hazard
/// models, each with its own seed drawn from the workload seed.
pub fn round_plans(seed: u64, round: u64) -> Vec<ScenarioPlan> {
    ScenarioPlan::built_in_scenarios()
        .into_iter()
        .map(|(name, mut plan)| {
            plan.seed = derive_seed(seed, &format!("scenario/{name}/{round}"));
            plan
        })
        .collect()
}

/// Evaluates the built-in plans at their own seeds and compares each
/// report's digest with the golden report. Returns each plan's exposed
/// conduit count, which does not depend on the draw seed.
pub fn golden_check(engine: &QueryEngine, root: &Path) -> Result<Vec<usize>, String> {
    let mut exposed = Vec::new();
    for (name, plan) in ScenarioPlan::built_in_scenarios() {
        let path = root
            .join(GOLDEN_DIR)
            .join(format!("{name}.conditional.json"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let golden: ConditionalRisk = serde_json::from_str(&text)
            .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
        let report = engine
            .conditional_risk(&plan)
            .map_err(|e| format!("{name}: {e}"))?;
        if report.digest() != golden.digest() {
            return Err(format!(
                "{name}: digest {:016x} != golden {:016x}",
                report.digest(),
                golden.digest()
            ));
        }
        exposed.push(report.exposed_conduits);
    }
    Ok(exposed)
}

/// One evaluated round.
pub struct Round {
    pub index: u64,
    pub evaluate_ns: u64,
    pub draws: u64,
    pub reports: Vec<ConditionalRisk>,
}

/// Evaluates rounds until `budget` has elapsed (at least one). With a
/// tracer, also times the exposure table of each plan on its own, outside
/// the evaluation it is part of.
pub fn run(
    engine: &QueryEngine,
    seed: u64,
    golden_exposed: &[usize],
    budget: Duration,
    tracer: Option<&Tracer>,
    rounds: &mut Vec<Round>,
) -> Outcome {
    let mut outcome = Outcome::default();
    let start = Instant::now();
    let mut index = rounds.len() as u64;
    while outcome.attempted == 0 || start.elapsed() < budget {
        outcome.begin_pass();
        let span = trace::begin(tracer, "scenario.round", None);
        let mut round = Round {
            index,
            evaluate_ns: 0,
            draws: 0,
            reports: Vec::new(),
        };
        for (i, plan) in round_plans(seed, index).iter().enumerate() {
            if tracer.is_some() {
                let map = &engine.snapshot().map;
                trace::timed(tracer, "scenario.exposures", span, || {
                    exposures(map, &plan.footprint, &plan.model)
                });
            }
            let (report, ns) = trace::timed(tracer, "scenario.evaluate", span, || {
                engine.conditional_risk(plan)
            });
            round.evaluate_ns += ns;
            round.draws += plan.draws;
            outcome.attempted += 1;
            match report {
                Ok(r)
                    if r.draws == plan.draws
                        && Some(&r.exposed_conduits) == golden_exposed.get(i) =>
                {
                    round.reports.push(r);
                }
                Ok(r) => {
                    outcome.failed += 1;
                    outcome.notes.push(format!(
                        "{}: {} draws and {} exposed conduits, expected {} and {:?}",
                        plan.name,
                        r.draws,
                        r.exposed_conduits,
                        plan.draws,
                        golden_exposed.get(i)
                    ));
                }
                Err(e) => {
                    outcome.failed += 1;
                    outcome.notes.push(format!("{}: {e}", plan.name));
                }
            }
        }
        trace::end(tracer, span);
        outcome.record_pass(
            round.draws as f64 / (round.evaluate_ns as f64 / 1e9),
            &[round.evaluate_ns as f64 / 1e3],
        );
        rounds.push(round);
        index += 1;
    }
    outcome
}

/// Re-evaluates a round on one thread, outside the timed region, and
/// returns a note for each plan whose report differs from the timed one.
pub fn serial_check(engine: &QueryEngine, seed: u64, round: &Round) -> Vec<String> {
    let mut notes = Vec::new();
    for plan in round_plans(seed, round.index) {
        let timed = round.reports.iter().find(|r| r.scenario == plan.name);
        match with_threads(1, || engine.conditional_risk(&plan)) {
            Ok(r) if timed.is_some_and(|t| t.digest() == r.digest()) => {}
            _ => notes.push(format!(
                "{}: serial report differs from the timed one",
                plan.name
            )),
        }
    }
    notes
}
