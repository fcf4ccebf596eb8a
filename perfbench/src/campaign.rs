//! `campaign`: the full Tables I–III grid — MPass, RLA, MAB, GAMMA and
//! MalRNN against MalConv, NonNeg, LightGBM and MalGCG — one engine shard
//! per (attack, target) cell, exactly as `offline::run_campaign` lays it
//! out, with every shard running `offline::attack_target_with`.

use crate::layers::{Evasion, Layer, TimedAttack, TimedDetector};
use crate::report::{latencies, Attribution, Report};
use crate::{nproc, Options, Scale, DEFAULT_SEED};
use mpass_core::{Attack, MPassAttack, MPassConfig};
use mpass_detectors::{Detector, Verdict, WhiteBoxModel};
use mpass_engine::{Engine, EngineConfig, Shard, ShardMetrics};
use mpass_experiments::campaign::CampaignOptions;
use mpass_experiments::offline::{self, OfflineCell, OfflineResults, ATTACK_NAMES};
use mpass_experiments::World;
use mpass_sandbox::Sandbox;

/// FNV-1a fingerprint of the serialized `OfflineResults` of the
/// full-scale grid at [`DEFAULT_SEED`], recorded when the benchmark was
/// defined.
pub const DEFAULT_SEED_FINGERPRINT: &str = "483786f08b86bf8c";

/// Layers timed by the wrappers in a traced grid.
#[derive(Default)]
struct Layers {
    target_query: Layer,
    target_other: Layer,
    white_box: Layer,
}

/// What one shard hands back besides its cell.
struct ShardOut {
    cell: OfflineCell,
    latencies_ms: Vec<f64>,
    /// Summed `attack` wall time, milliseconds.
    attack_ms: f64,
    evasions: Vec<Evasion>,
}

/// One grid over the engine.
pub struct Grid {
    pub results: OfflineResults,
    pub wall_ms: f64,
    pub workers: usize,
    pub latencies_ms: Vec<f64>,
    shards: Vec<(String, ShardMetrics, f64)>,
    /// `(target, evasion)` for every evaded MPass sample.
    pub evasions: Vec<(String, Evasion)>,
    pub failures: Vec<String>,
}

fn grid_shards(world: &World) -> Vec<Shard<(&'static str, &'static str)>> {
    world
        .offline_targets()
        .iter()
        .flat_map(|(target, _)| {
            ATTACK_NAMES
                .iter()
                .map(move |attack| Shard::new(format!("{attack} vs {target}"), (*attack, *target)))
        })
        .collect()
}

/// Run the grid once, untraced.
pub fn grid(world: &World, engine: &Engine) -> Grid {
    run_grid(world, engine, None)
}

/// Run the grid once; `layers` wraps the target and MPass's known models
/// in timing wrappers.
fn run_grid(world: &World, engine: &Engine, layers: Option<&Layers>) -> Grid {
    let opts = CampaignOptions::default();
    let run = engine.run(grid_shards(world), |ctx, (attack_name, target_name)| {
        let (_, det) = world
            .offline_roster()
            .into_iter()
            .find(|(n, _)| *n == target_name)
            .expect("shard names a roster target");
        let shard_seed = engine.shard_seed(ctx.label());
        let keep = attack_name == "MPass";
        let finish = |cell: OfflineCell, attack: TimedAttack| {
            let TimedAttack { latencies_ms, evasions, .. } = attack;
            let attack_ms = latencies_ms.iter().sum();
            ShardOut { cell, latencies_ms, attack_ms, evasions }
        };
        let Some(layers) = layers else {
            let mut attack =
                TimedAttack::new(offline::make_attack(world, target_name, attack_name), keep);
            let cell = offline::attack_target_with(
                world,
                &mut attack,
                det as &dyn Detector,
                ctx.label(),
                &opts,
                None,
                shard_seed,
            );
            return finish(cell, attack);
        };
        let target = TimedDetector::target(det, &layers.target_query, &layers.target_other);
        let known: Vec<TimedDetector> = world
            .offline_roster()
            .into_iter()
            .filter(|(name, _)| *name != target_name)
            .filter_map(|(_, d)| d.as_white_box())
            .map(|wb| TimedDetector::white_box(wb, &layers.white_box))
            .collect();
        // `make_attack`'s MPass, with its known models wrapped.
        let inner: Box<dyn Attack + '_> = if attack_name == "MPass" {
            Box::new(MPassAttack::new(
                known.iter().map(|k| k as &dyn WhiteBoxModel).collect(),
                &world.pool,
                MPassConfig::builder()
                    .seed(world.config.seed)
                    .build()
                    .expect("default MPass config is valid"),
            ))
        } else {
            offline::make_attack(world, target_name, attack_name)
        };
        let mut attack = TimedAttack::new(inner, keep);
        let cell = offline::attack_target_with(
            world,
            &mut attack,
            &target,
            ctx.label(),
            &opts,
            None,
            shard_seed,
        );
        finish(cell, attack)
    });
    let failures = run.failures.iter().map(|f| format!("{}: {}", f.label, f.panic)).collect();
    let mut cells = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut evasions = Vec::new();
    let mut shards = Vec::new();
    // Results skip failed shards; metrics hold every shard in input order.
    let mut outs = run.results.into_iter();
    let failed: Vec<usize> = run.failures.iter().map(|f| f.index).collect();
    for (i, metrics) in run.shard_metrics.into_iter().enumerate() {
        if failed.contains(&i) {
            continue;
        }
        let out = outs.next().expect("one result per surviving shard");
        latencies_ms.extend(out.latencies_ms);
        evasions.extend(out.evasions.into_iter().map(|e| (out.cell.target.clone(), e)));
        shards.push((out.cell.attack.clone(), metrics, out.attack_ms));
        cells.push(out.cell);
    }
    Grid {
        results: OfflineResults { cells },
        wall_ms: run.wall_ms,
        workers: run.workers,
        latencies_ms,
        shards,
        evasions,
        failures,
    }
}

/// FNV-1a over the serialized results.
pub fn fingerprint(results: &OfflineResults) -> String {
    let json = serde_json::to_string(results).expect("results serialize");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn samples_attacked(results: &OfflineResults) -> usize {
    results.cells.iter().map(|c| c.stats.samples).sum()
}

fn counter(grid: &Grid, name: &str) -> u64 {
    grid.shards.iter().filter_map(|(_, m, _)| m.counters.get(name)).sum()
}

fn timing_ms(grid: &Grid, attack: Option<&str>, stage: &str) -> f64 {
    grid.shards
        .iter()
        .filter(|(a, _, _)| attack.is_none_or(|want| a == want))
        .filter_map(|(_, m, _)| m.timings.get(stage))
        .map(|t| t.total_ms)
        .sum()
}

fn stage_calls(grid: &Grid, stage: &str) -> u64 {
    grid.shards.iter().filter_map(|(_, m, _)| m.timings.get(stage)).map(|t| t.count).sum()
}

/// Check a grid's outputs against the program (and, when given, the
/// fingerprint recorded for its seed); returns `(attempted, failed)`.
pub fn check(
    world: &World,
    grid: &Grid,
    fingerprint_want: Option<&str>,
    report: &mut Report,
) -> (u64, u64) {
    let quarantined = counter(grid, "campaign/quarantined");
    let attacked = samples_attacked(&grid.results) as u64;
    report.check(grid.failures.is_empty(), || format!("shards failed: {:?}", grid.failures));
    report.check(quarantined == 0, || format!("{quarantined} samples quarantined"));
    report.check(grid.results.cells.len() == ATTACK_NAMES.len() * 4, || {
        format!("{} cells, expected {}", grid.results.cells.len(), ATTACK_NAMES.len() * 4)
    });
    let sandbox = Sandbox::new();
    for (target_name, evasion) in &grid.evasions {
        let (_, det) = world
            .offline_targets()
            .into_iter()
            .find(|(n, _)| n == target_name)
            .expect("evasions name roster targets");
        let verdict = det.classify(&evasion.adversarial);
        report.check(verdict == Verdict::Benign, || {
            format!("an MPass AE against {target_name} re-classifies as {verdict}")
        });
        let preserved = sandbox.verify_functionality(&evasion.original, &evasion.adversarial);
        report.check(preserved.is_preserved(), || {
            format!("an MPass AE against {target_name} is {preserved}")
        });
    }
    let mpass_checked: usize =
        grid.results.cells.iter().filter(|c| c.attack == "MPass").map(|c| c.checked).sum();
    report.check(mpass_checked == grid.evasions.len(), || {
        format!("{} MPass AEs checked by the campaign, {} kept", mpass_checked, grid.evasions.len())
    });
    let print = fingerprint(&grid.results);
    report.note(format!("campaign fingerprint {print}"));
    if let Some(want) = fingerprint_want {
        report.check(print == want, || {
            format!("fingerprint {print} differs from the recorded {want}")
        });
    }
    (attacked + quarantined, quarantined + grid.failures.len() as u64)
}

fn asr_pct(grid: &Grid) -> f64 {
    let attacked = samples_attacked(&grid.results) as f64;
    let evaded: f64 = grid
        .results
        .cells
        .iter()
        .map(|c| (c.stats.asr / 100.0 * c.stats.samples as f64).round())
        .sum();
    100.0 * evaded / attacked.max(1.0)
}

/// Run one whole grid (ASR is a whole-grid figure, so `--seconds` does
/// not cut it short) and report; traced, run it once more untraced
/// first to measure the tracing overhead.
pub fn run(world: &World, opts: &Options) -> Result<Report, String> {
    let engine = Engine::new(EngineConfig { workers: nproc(), seed: world.config.seed });
    let mut report = Report::new();
    let throughput = |g: &Grid| samples_attacked(&g.results) as f64 / (g.wall_ms / 1e3);
    let untraced = run_grid(world, &engine, None);
    let grid = if opts.trace {
        let layers = Layers::default();
        let grid = run_grid(world, &engine, Some(&layers));
        trace_layers(&grid, &layers, &mut report);
        crate::overhead(&mut report, throughput(&untraced), throughput(&grid));
        report.check(fingerprint(&grid.results) == fingerprint(&untraced.results), || {
            "the traced grid gave different results".to_owned()
        });
        grid
    } else {
        report.metric("throughput_per_s", throughput(&untraced), "1/s");
        // p90, 40 of the grid's 400 calls beyond it: it falls among the
        // longest baseline calls, below the 5-8% of calls that are
        // MPass's longest. Higher percentiles fall among those few
        // sub-second calls and follow the host's slow phases: over the
        // same ten seeds p90 spread 0.06, p95 0.21 and p97.5 0.11.
        latencies(&mut report, &untraced.latencies_ms, 0.90, 1, "one Attack::attack call");
        untraced
    };
    let recorded = (opts.seed == DEFAULT_SEED && opts.scale == Scale::Full)
        .then_some(DEFAULT_SEED_FINGERPRINT);
    let (attempted, failed) = check(world, &grid, recorded, &mut report);
    report.attempted = attempted;
    report.failed = failed;
    let shard_wall: f64 = grid.shards.iter().map(|(_, m, _)| m.wall_ms).sum();
    report.note(format!(
        "campaign: ASR {:.2}% over the grid; wall {:.0} ms, summed shard wall {:.0} ms",
        asr_pct(&grid),
        grid.wall_ms,
        shard_wall
    ));
    Ok(report)
}

fn trace_layers(grid: &Grid, layers: &Layers, report: &mut Report) {
    let samples = samples_attacked(&grid.results) as f64;
    let queries = counter(grid, "queries");
    let query_ms = timing_ms(grid, None, "stage/query");
    let optimize_ms = timing_ms(grid, None, "stage/optimize");
    let modify_ms = timing_ms(grid, None, "stage/modify");
    let verify_ms = timing_ms(grid, None, "stage/verify");
    let baseline_attack_ms: f64 =
        grid.shards.iter().filter(|(a, _, _)| a != "MPass").map(|(_, _, ms)| ms).sum();
    let mpass_query_ms = timing_ms(grid, Some("MPass"), "stage/query");
    let baseline_query_ms = query_ms - mpass_query_ms;
    let target_ms = layers.target_query.ms();
    let white_box_ms = layers.white_box.ms();
    let optimize_self = optimize_ms - white_box_ms;
    let query_self = query_ms - target_ms;
    // A leftover by definition: baseline attack calls minus their
    // queries. MPass calls have no such leftover; what their stage spans
    // and the wrappers leave out stays unattributed.
    let baselines_self = baseline_attack_ms - baseline_query_ms;
    let shard_wall: f64 = grid.shards.iter().map(|(_, m, _)| m.wall_ms).sum();
    let capacity = grid.workers as f64 * grid.wall_ms;

    report.metric("detectors.target.calls", layers.target_query.items() as f64, "count");
    report.metric("detectors.target.ms", target_ms, "ms");
    report.metric("detectors.target.attack_set_ms", layers.target_other.ms(), "ms");
    report.metric("detectors.whitebox.calls", layers.white_box.calls() as f64, "count");
    report.metric("detectors.whitebox.ms", white_box_ms, "ms");
    report.metric("core.optimize.self_ms", optimize_self, "ms");
    report.metric("core.query.calls", queries as f64, "count");
    report.metric("core.query.self_ms", query_self, "ms");
    report.metric("core.query.rejected", counter(grid, "oracle/ae_rejected") as f64, "count");
    report.metric("core.modify.ms", modify_ms, "ms");
    report.metric("baselines.self_ms", baselines_self, "ms");
    report.metric("sandbox.verify.calls", stage_calls(grid, "stage/verify") as f64, "count");
    report.metric("sandbox.verify.ms", verify_ms, "ms");
    report.metric("campaign.queries_per_sample", queries as f64 / samples.max(1.0), "count");
    report.metric("campaign.asr_pct", asr_pct(grid), "%");
    report.metric("engine.busy_share", shard_wall / capacity, "share");

    let mut attribution = Attribution::new(grid.workers, grid.wall_ms);
    attribution.part("detectors.target", target_ms);
    attribution.part("detectors.target.attack_set", layers.target_other.ms());
    attribution.part("detectors.whitebox", white_box_ms);
    attribution.part("core.optimize.self", optimize_self);
    attribution.part("core.query.self", query_self);
    attribution.part("core.modify", modify_ms);
    attribution.part("baselines.self (leftover)", baselines_self);
    attribution.part("sandbox.verify", verify_ms);
    attribution.part("engine.idle", capacity - shard_wall);
    attribution.finish(report);
}
