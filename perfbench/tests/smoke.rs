//! The benchmark's own tests, on the down-scaled world: every workload
//! prints every metric with its unit, the traced world build is
//! `World::build`, and tampered outputs fail their correctness checks.

use mpass_detectors::{Detector, Verdict};
use mpass_engine::{Engine, EngineConfig};
use mpass_experiments::World;
use mpass_perfbench::report::Report;
use mpass_perfbench::{
    campaign, serve, validate, world_config, Options, Scale, END_TO_END, PER_LAYER, WORKLOADS,
};
use mpass_sandbox::FunctionalityVerdict;
use std::sync::{Arc, OnceLock};

const SEED: u64 = 3;

fn smoke(workload: &str, trace: bool) -> Options {
    Options { workload: workload.to_owned(), seed: SEED, seconds: 0.3, trace, scale: Scale::Smoke }
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let mut world = World::build(world_config(Scale::Smoke));
        mpass_perfbench::key_world(&mut world, SEED);
        world
    })
}

/// The result line parses and names exactly `list`, in order, units
/// included.
fn assert_prints(report: &Report, list: &[(&str, &str)], nonzero: bool) {
    let line = report.to_json();
    let value: serde::Value = serde_json::from_str(&line).expect("result line is JSON");
    let keys: Vec<&str> = match &value {
        serde::Value::Map(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("result is not an object: {other:?}"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(value.get("correct"), Some(&serde::Value::Bool(true)), "{:?}", report.notes);
    let Some(serde::Value::Map(metrics)) = value.get("metrics") else { panic!("no metrics") };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = list.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want);
    for ((name, metric), (_, unit)) in metrics.iter().zip(list) {
        assert_eq!(metric.get("unit"), Some(&serde::Value::Str((*unit).to_owned())), "{name}");
        let Some(serde::Value::F64(v)) = metric.get("value") else { panic!("{name} has no value") };
        assert!(v.is_finite(), "{name} = {v}");
        if nonzero {
            assert!(*v > 0.0, "{name} = {v}");
        }
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        let report = mpass_perfbench::run(&smoke(workload, false)).expect("untraced run");
        assert_prints(&report, &END_TO_END, true);
        assert!(report.attempted > 0 && report.failed == 0, "{workload}: {:?}", report.notes);
        let report = mpass_perfbench::run(&smoke(workload, true)).expect("traced run");
        assert_prints(&report, &PER_LAYER, false);
        let unattributed = report.value("unattributed_share").unwrap();
        assert!(unattributed > -0.01 && unattributed < 1.0, "{workload}: {unattributed}");
    }
}

/// A traced run whose own layer reads 0 (its recording broke) fails its
/// correctness check.
#[test]
fn missing_layer_fails_its_check() {
    for workload in WORKLOADS {
        let full = || {
            let mut report = Report::new();
            for (name, unit) in PER_LAYER {
                report.metric(name, 1.0, unit);
            }
            report
        };
        let mut report = full();
        mpass_perfbench::check_layers(&mut report, workload);
        assert!(report.correct, "{workload}: {:?}", report.notes);
        for name in mpass_perfbench::own_layers(workload) {
            let mut report = full();
            report.metrics.retain(|(n, _, _)| n != name);
            mpass_perfbench::check_layers(&mut report, workload);
            assert!(!report.correct, "{workload}: {name} missing went unnoticed");
        }
    }
}

#[test]
fn traced_world_build_is_world_build() {
    let (mut traced, parts) = mpass_perfbench::build_world_traced(world_config(Scale::Smoke));
    mpass_perfbench::key_world(&mut traced, SEED);
    assert_eq!(parts.len(), 6);
    let plain = world();
    assert_eq!(traced.dataset.samples.len(), plain.dataset.samples.len());
    for (a, b) in traced.dataset.samples.iter().zip(&plain.dataset.samples) {
        assert_eq!(a.bytes, b.bytes, "{}", a.name);
    }
    let scores = |w: &World, bytes: &[u8]| -> Vec<u32> {
        let offline = w.offline_targets().into_iter().map(|(_, d)| d.score(bytes));
        offline.chain(w.avs.iter().map(|av| av.score(bytes))).map(f32::to_bits).collect()
    };
    for s in &plain.dataset.samples {
        assert_eq!(scores(&traced, &s.bytes), scores(plain, &s.bytes), "{}", s.name);
    }
}

/// The benchmark's grid is `offline::run_with_engine`'s grid.
#[test]
fn campaign_grid_matches_the_offline_runner() {
    let world = world();
    let engine = Engine::new(EngineConfig { workers: 2, seed: world.config.seed });
    let grid = campaign::grid(world, &engine);
    let (results, _) = mpass_experiments::offline::run_with_engine(world, &engine);
    assert_eq!(campaign::fingerprint(&grid.results), campaign::fingerprint(&results));
}

#[test]
fn tampered_campaign_fails_its_checks() {
    let world = world();
    let engine = Engine::new(EngineConfig { workers: 2, seed: world.config.seed });
    let mut grid = campaign::grid(world, &engine);
    let print = campaign::fingerprint(&grid.results);
    let mut clean = Report::new();
    campaign::check(world, &grid, Some(&print), &mut clean);
    assert!(clean.correct, "{:?}", clean.notes);

    // One altered fingerprint.
    let mut report = Report::new();
    campaign::check(world, &grid, Some("0000000000000000"), &mut report);
    assert!(!report.correct);

    // One altered result cell.
    grid.results.cells[0].broken += 1;
    let mut report = Report::new();
    campaign::check(world, &grid, Some(&print), &mut report);
    assert!(!report.correct);
    grid.results.cells[0].broken -= 1;

    // One AE that no longer evades: its target flags the original.
    let (_, evasion) = grid.evasions.first_mut().expect("MPass evades at least once");
    evasion.adversarial = evasion.original.clone();
    let mut report = Report::new();
    campaign::check(world, &grid, Some(&print), &mut report);
    assert!(!report.correct);
}

#[test]
fn tampered_validation_verdict_fails_its_check() {
    let world = world();
    let waves = validate::build_waves(world, 2);
    assert_eq!(waves.len(), 2);
    let wave = &waves[0];
    let engine = Engine::new(EngineConfig { workers: 2, seed: 1 });
    let sandbox = mpass_sandbox::Sandbox::new();
    let refs: Vec<&[u8]> = wave.candidates.iter().map(|(_, c)| c.as_slice()).collect();
    let mut verdicts = mpass_experiments::validation::validate_batch_pooled(
        &engine,
        &sandbox,
        &wave.original,
        &refs,
    )
    .unwrap();
    let clean = validate::measure(&waves, 0.0, 0, |_| Ok(verdicts.clone())).unwrap();
    assert_eq!(clean.mismatched, 0);
    assert_eq!(validate::vector_disagreements(&sandbox, wave, &verdicts), 0);

    // One flipped verdict.
    verdicts[0] = FunctionalityVerdict::BrokenParse;
    let tampered = validate::measure(&waves, 0.0, 0, |_| Ok(verdicts.clone())).unwrap();
    assert_eq!(tampered.mismatched, 1);
    assert_eq!(validate::vector_disagreements(&sandbox, wave, &verdicts), 1);
}

#[test]
fn tampered_serve_verdict_fails_its_check() {
    let world = world();
    let mut payloads = serve::payloads(world, &world.malconv);
    let model: Arc<dyn Detector> = Arc::new(world.malconv.clone());
    let clean = serve::closed_loop(model.clone(), &payloads, 0.2, 20, None).unwrap();
    assert!(clean.completed >= 20 && clean.failed == 0, "{:?}", clean.first_failure);

    // One flipped expected verdict: the served verdict now disagrees.
    payloads[0].expected = match payloads[0].expected {
        Verdict::Benign => Verdict::Malicious,
        Verdict::Malicious => Verdict::Benign,
    };
    let tampered = serve::closed_loop(model, &payloads, 0.2, 20, None).unwrap();
    assert!(tampered.failed >= 1);
    let mut report = Report::new();
    serve::check(&mut report, &tampered);
    assert!(!report.correct);
}
