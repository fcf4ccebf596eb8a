//! EXP-F3 — Figure 3: ASR of the five attacks against the five simulated
//! commercial ML AVs, keeping successful AEs for the Figure 4 learning
//! experiment.

use crate::campaign::{CampaignOptions, ShardRun};
use crate::journal::CampaignJournal;
use crate::offline::{make_attack, ATTACK_NAMES};
use crate::world::World;
use mpass_core::attack::metrics::AttackStats;
use mpass_core::Attack;
use mpass_detectors::{CachedAv, Detector};
use mpass_engine::{Engine, MetricsFile, Shard};
use serde::{Deserialize, Serialize};

/// One (attack, AV) cell with its surviving AEs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CommercialCell {
    /// Attack name.
    pub attack: String,
    /// AV name.
    pub av: String,
    /// ASR/AVQ/APR statistics.
    pub stats: AttackStats,
    /// The successful adversarial examples (consumed by Fig. 4).
    pub successful_aes: Vec<Vec<u8>>,
}

/// Figure 3 results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CommercialResults {
    /// All (attack, AV) cells.
    pub cells: Vec<CommercialCell>,
}

impl CommercialResults {
    /// Look up one cell.
    pub fn cell(&self, attack: &str, av: &str) -> Option<&CommercialCell> {
        self.cells.iter().find(|c| c.attack == attack && c.av == av)
    }

    /// Format the Figure 3 ASR grid.
    pub fn figure3(&self) -> String {
        let avs: Vec<String> = (1..=5).map(|i| format!("AV{i}")).collect();
        let rows: Vec<(String, Vec<f64>)> = crate::offline::ATTACK_NAMES
            .iter()
            .map(|a| {
                let vals = avs
                    .iter()
                    .map(|av| self.cell(a, av).map(|c| c.stats.asr).unwrap_or(f64::NAN))
                    .collect();
                ((*a).to_owned(), vals)
            })
            .collect();
        crate::table::format_table(
            "Fig. 3: ASR (%) of attack methods on commercial ML AVs.",
            "Attack",
            &avs,
            &rows,
            1,
        )
    }
}

/// Run one attack against one AV, collecting successful AE bytes.
pub fn attack_av(world: &World, attack: &mut dyn Attack, av: &dyn Detector) -> CommercialCell {
    let label = format!("{} vs {}", attack.name(), av.name());
    attack_av_with(world, attack, av, &label, &CampaignOptions::default(), None, 0)
}

/// [`attack_av`] with the full campaign machinery — the same shard loop
/// as [`crate::offline::attack_target_with`], without its ingestion
/// gate and sandbox check; the collected `successful_aes` rebuild
/// identically from journalled outcomes because the AE bytes ride along
/// in each record.
pub fn attack_av_with(
    world: &World,
    attack: &mut dyn Attack,
    av: &dyn Detector,
    label: &str,
    opts: &CampaignOptions,
    journal: Option<&CampaignJournal>,
    shard_seed: u64,
) -> CommercialCell {
    let attack_name = attack.name().to_owned();
    let shard = ShardRun { world, attack, target: av, label, opts, journal, shard_seed };
    shard.run(
        |_| None,
        Vec::new(),
        |successful_aes, _, outcome| successful_aes.extend(outcome.adversarial.take()),
        |successful_aes, stats| CommercialCell {
            attack: attack_name,
            av: av.name().to_owned(),
            stats,
            successful_aes,
        },
    )
}

/// Run the full Figure 3 experiment on `engine`, one shard per
/// (attack, AV) campaign. Against AVs the MPass ensemble is all three
/// differentiable offline models (the AVs themselves are black boxes),
/// which `make_attack` provides by excluding a non-AV name. Each shard
/// queries a memoizing [`CachedAv`] copy of its AV so the metrics file
/// records per-shard score-cache hit rates.
pub fn run_with_engine(world: &World, engine: &Engine) -> (CommercialResults, MetricsFile) {
    run_campaign(world, engine, &CampaignOptions::default())
        .expect("no journal configured, so no I/O can fail")
}

/// [`run_with_engine`] under explicit [`CampaignOptions`].
///
/// # Errors
///
/// Fails only on journal filesystem errors.
pub fn run_campaign(
    world: &World,
    engine: &Engine,
    opts: &CampaignOptions,
) -> std::io::Result<(CommercialResults, MetricsFile)> {
    let journal = opts.open_journal()?;
    let journal = journal.as_ref();
    let shards: Vec<Shard<(usize, &str)>> = world
        .avs
        .iter()
        .enumerate()
        .flat_map(|(i, av)| {
            ATTACK_NAMES
                .iter()
                .map(move |attack| Shard::new(format!("{attack} vs {}", av.name()), (i, *attack)))
        })
        .collect();
    let run = engine.run(shards, |ctx, (av_index, attack_name)| {
        let av = CachedAv::new(world.avs[av_index].clone());
        let mut attack = make_attack(world, "LightGBM", attack_name);
        attack_av_with(
            world,
            attack.as_mut(),
            &av,
            ctx.label(),
            opts,
            journal,
            engine.shard_seed(ctx.label()),
        )
    });
    let metrics = MetricsFile::from_run("commercial", &run);
    Ok((CommercialResults { cells: run.results }, metrics))
}

/// Run the full Figure 3 experiment on a default engine, discarding the
/// metrics (test/API convenience).
pub fn run(world: &World) -> CommercialResults {
    run_with_engine(world, &Engine::new(Default::default())).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    #[test]
    fn commercial_quick_run_shapes() {
        let mut cfg = WorldConfig::quick();
        cfg.attack_samples = 2;
        let world = World::build(cfg);
        let results = run(&world);
        assert_eq!(results.cells.len(), 5 * 5);
        let fig = results.figure3();
        assert!(fig.contains("AV3") && fig.contains("GAMMA"));
        // Successful AE count never exceeds evaded count implied by stats.
        for c in &results.cells {
            let max_evaded = (c.stats.asr / 100.0 * c.stats.samples as f64).round() as usize;
            assert!(c.successful_aes.len() <= max_evaded + 1, "{}/{}", c.attack, c.av);
        }
    }
}
