//! `validate`: waves of candidates per malware original through
//! `validation::validate_batch_pooled` — one engine shard per candidate,
//! the original baselined once per wave.
//!
//! A wave holds [`PRESERVED`] `modify` outputs (recovery stub, shuffled;
//! preserved by construction), [`DIVERGING`] of them with one code byte
//! changed after encoding so that the instruction at the original entry
//! point decodes as an API call the original never makes there, or as a
//! halt (the trace diverges at its first event), and [`TRUNCATED`] of
//! them cut to a half, a third, ... of their length (parsing fails).
//! Candidates are built before the clock starts.

use crate::layers::Layer;
use crate::report::{latencies, Attribution, Report};
use crate::{nproc, Options, Scale};
use mpass_binary::BinaryImage;
use mpass_core::modify::modify;
use mpass_core::ModificationConfig;
use mpass_engine::{Engine, EngineConfig, Shard};
use mpass_experiments::validation::validate_batch_pooled;
use mpass_experiments::World;
use mpass_sandbox::{Baseline, FunctionalityVerdict, Sandbox};
use mpass_vm::{ComparingSink, Outcome, Vm};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub const PRESERVED: usize = 24;
pub const DIVERGING: usize = 4;
pub const TRUNCATED: usize = 4;
/// The tail percentile of wave latency. A wave lasts milliseconds, so
/// its p99 follows the host's brief slow moments more than the program:
/// over the same ten runs the p99 spread 0.19 and the p95 0.08.
pub const TAIL: f64 = 0.95;
/// Consecutive windows the tail is taken over (their median is
/// reported), so that a slow phase of the host of a second or two does
/// not set the tail of a whole run.
pub const TAIL_WINDOWS: usize = 3;
/// Waves a full-scale run validates at least: 1100 per window, 55 of
/// them beyond its p95, however slow the host.
pub const MIN_WAVES: usize = TAIL_WINDOWS * 1_100;

/// The verdict class a candidate was built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Preserved,
    Diverging,
    Unparseable,
}

impl Class {
    pub fn admits(self, verdict: &FunctionalityVerdict) -> bool {
        match self {
            Class::Preserved => verdict.is_preserved(),
            Class::Diverging => matches!(verdict, FunctionalityVerdict::BrokenBehavior { .. }),
            Class::Unparseable => *verdict == FunctionalityVerdict::BrokenParse,
        }
    }
}

pub struct Wave {
    pub original: Vec<u8>,
    pub candidates: Vec<(Class, Vec<u8>)>,
}

impl Wave {
    fn refs(&self) -> Vec<&[u8]> {
        self.candidates.iter().map(|(_, c)| c.as_slice()).collect()
    }
}

/// Change the byte that decodes to the opcode at the original entry
/// point of a `modify` output so that it decodes as `CallApi` (or as
/// `Halt` when it already was one). Decoding is additive, so adding the
/// opcode difference to the stored byte shifts the decoded byte by it.
fn divert_entry(original: &[u8], modified: &mut [u8]) -> Option<()> {
    const CALLAPI: u8 = 0x30;
    const HALT: u8 = 0x31;
    let entry = mpass_pe::PeFile::parse(original).ok()?.entry_point();
    let at = mpass_pe::PeFile::parse(original).ok()?.rva_to_offset(entry)? as usize;
    let old = *original.get(at)?;
    let new = if old == CALLAPI { HALT } else { CALLAPI };
    let at = mpass_pe::PeFile::parse(modified).ok()?.rva_to_offset(entry)? as usize;
    let byte = modified.get_mut(at)?;
    *byte = byte.wrapping_add(new.wrapping_sub(old));
    Some(())
}

/// Build up to `count` waves, one per malware original of the world in
/// corpus order, deterministically.
pub fn build_waves(world: &World, count: usize) -> Vec<Wave> {
    let config = ModificationConfig::default();
    let mut waves = Vec::new();
    for (i, sample) in world.dataset.malware().into_iter().enumerate() {
        if waves.len() == count {
            break;
        }
        let mut rng =
            ChaCha8Rng::seed_from_u64(world.config.seed ^ (i as u64).wrapping_mul(0x5851_F42D));
        let outputs: Vec<Vec<u8>> = (0..PRESERVED)
            .map_while(|_| modify(sample, &world.pool, &config, &mut rng).ok().map(|m| m.bytes))
            .collect();
        if outputs.len() < PRESERVED {
            continue;
        }
        let mut candidates: Vec<(Class, Vec<u8>)> =
            outputs.iter().map(|b| (Class::Preserved, b.clone())).collect();
        for output in &outputs[..DIVERGING] {
            let mut bytes = output.clone();
            if divert_entry(&sample.bytes, &mut bytes).is_some() {
                candidates.push((Class::Diverging, bytes));
            }
        }
        for k in 0..TRUNCATED {
            let bytes = &outputs[DIVERGING + k];
            candidates.push((Class::Unparseable, bytes[..bytes.len() / (2 + k)].to_vec()));
        }
        if candidates.len() != PRESERVED + DIVERGING + TRUNCATED {
            continue;
        }
        waves.push(Wave { original: sample.bytes.clone(), candidates });
    }
    waves
}

/// Per-layer accumulators of a traced run.
#[derive(Default)]
struct Layers {
    baseline: Layer,
    parse: Layer,
    load: Layer,
    run: Layer,
    steps: AtomicU64,
    aborted: AtomicU64,
    /// Summed shard wall and engine idle time, nanoseconds.
    shard_ns: AtomicU64,
    idle_ns: AtomicU64,
}

/// `Sandbox::verify_candidate`, call for call through the public parse,
/// load and run entry points, timing each.
fn verify_traced(
    sandbox: &Sandbox,
    baseline: &Baseline,
    bytes: &[u8],
    l: &Layers,
) -> FunctionalityVerdict {
    let Ok(image) = l.parse.time(1, || BinaryImage::parse_auto(bytes)) else {
        return FunctionalityVerdict::BrokenParse;
    };
    let mut vm = l.load.time(1, || match &image {
        BinaryImage::Pe(pe) => Vm::load_with(pe, sandbox.limits()),
        other => Vm::load_binary(other, sandbox.limits()),
    });
    let mut sink = ComparingSink::new(baseline.reference());
    let run = l.run.time(1, || vm.run_with_sink(&mut sink));
    l.steps.fetch_add(run.steps, Ordering::Relaxed);
    match run.outcome {
        Outcome::Aborted => {
            l.aborted.fetch_add(1, Ordering::Relaxed);
            FunctionalityVerdict::BrokenBehavior {
                first_divergence: sink.first_divergence().unwrap_or(sink.matched()),
            }
        }
        Outcome::Halted if sink.matches() => FunctionalityVerdict::Preserved,
        Outcome::Halted => {
            FunctionalityVerdict::BrokenBehavior { first_divergence: sink.matched() }
        }
        outcome => FunctionalityVerdict::BrokenExecution { outcome },
    }
}

/// One wave through the traced path.
fn wave_traced(
    engine: &Engine,
    sandbox: &Sandbox,
    wave: &Wave,
    l: &Layers,
) -> Result<Vec<FunctionalityVerdict>, String> {
    let baseline = l
        .baseline
        .time(1, || sandbox.baseline_digest(&wave.original))
        .map_err(|e| format!("original does not baseline: {e}"))?;
    let shards: Vec<Shard<&[u8]>> = wave
        .refs()
        .into_iter()
        .enumerate()
        .map(|(i, c)| Shard::new(format!("validate/{i}"), c))
        .collect();
    let run = engine.run(shards, |_, bytes| verify_traced(sandbox, &baseline, bytes, l));
    if !run.failures.is_empty() {
        return Err(format!("{} validation shards failed", run.failures.len()));
    }
    let shard_ms: f64 = run.shard_metrics.iter().map(|m| m.wall_ms).sum();
    let idle_ms = run.workers as f64 * run.wall_ms - shard_ms;
    l.shard_ns.fetch_add((shard_ms * 1e6) as u64, Ordering::Relaxed);
    l.idle_ns.fetch_add((idle_ms.max(0.0) * 1e6) as u64, Ordering::Relaxed);
    Ok(run.results)
}

/// Outcome of one measured loop.
pub struct Measured {
    pub wall_ms: f64,
    pub wave_ms: Vec<f64>,
    pub candidates: u64,
    /// Candidates whose verdict is not the class they were built for.
    pub mismatched: u64,
    pub preserved: u64,
    /// Verdicts of the first pass over each distinct wave that ran.
    pub first_verdicts: Vec<Vec<FunctionalityVerdict>>,
    pub first_mismatch: Option<String>,
}

/// Validate waves, cycling through them, until `seconds` have passed
/// and at least `min_waves` (and one) waves ran.
pub fn measure(
    waves: &[Wave],
    seconds: f64,
    min_waves: usize,
    mut validate: impl FnMut(&Wave) -> Result<Vec<FunctionalityVerdict>, String>,
) -> Result<Measured, String> {
    let mut m = Measured {
        wall_ms: 0.0,
        wave_ms: Vec::new(),
        candidates: 0,
        mismatched: 0,
        preserved: 0,
        first_verdicts: Vec::new(),
        first_mismatch: None,
    };
    let start = Instant::now();
    let mut i = 0;
    loop {
        let wave = &waves[i % waves.len()];
        let t = Instant::now();
        let verdicts = validate(wave)?;
        m.wave_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tally(&mut m, wave, &verdicts);
        if i < waves.len() {
            m.first_verdicts.push(verdicts);
        }
        i += 1;
        if start.elapsed().as_secs_f64() >= seconds && i >= min_waves {
            break;
        }
    }
    m.wall_ms = start.elapsed().as_secs_f64() * 1e3;
    Ok(m)
}

/// Compare verdicts with the classes their candidates were built for.
pub fn tally(m: &mut Measured, wave: &Wave, verdicts: &[FunctionalityVerdict]) {
    for ((class, _), verdict) in wave.candidates.iter().zip(verdicts) {
        m.candidates += 1;
        m.preserved += verdict.is_preserved() as u64;
        if !class.admits(verdict) {
            m.mismatched += 1;
            m.first_mismatch.get_or_insert_with(|| format!("{class:?} candidate got {verdict}"));
        }
    }
    let missing = wave.candidates.len().saturating_sub(verdicts.len()) as u64;
    m.candidates += missing;
    m.mismatched += missing;
}

/// The vector path, run to completion: a candidate is preserved when it
/// halts with exactly the original's API trace. Returns the number of
/// candidates on which it disagrees with `verdicts`.
pub fn vector_disagreements(
    sandbox: &Sandbox,
    wave: &Wave,
    verdicts: &[FunctionalityVerdict],
) -> usize {
    let Ok(reference) = sandbox.execute(&wave.original) else {
        return wave.candidates.len();
    };
    wave.candidates
        .iter()
        .zip(verdicts)
        .filter(|((_, bytes), verdict)| {
            let preserved = match sandbox.execute(bytes) {
                Ok(exec) => exec.outcome == Outcome::Halted && exec.trace == reference.trace,
                Err(_) => false,
            };
            preserved != verdict.is_preserved()
        })
        .count()
}

fn record_checks(report: &mut Report, sandbox: &Sandbox, waves: &[Wave], m: &Measured) {
    report.attempted += m.candidates;
    report.failed += m.mismatched;
    if let Some(first) = &m.first_mismatch {
        report.check(false, || {
            format!("{} verdicts differ from their class; first: {first}", m.mismatched)
        });
    }
    // The subset: the first pass over every distinct wave, against the
    // vector path.
    for (wave, verdicts) in waves.iter().zip(&m.first_verdicts) {
        let disagree = vector_disagreements(sandbox, wave, verdicts);
        report.check(disagree == 0, || {
            format!("{disagree} verdicts disagree with the to-completion vector path")
        });
    }
}

pub fn run(world: &World, opts: &Options) -> Result<Report, String> {
    let mut report = Report::new();
    // Every original, so that per-program run length averages out
    // across seeds.
    let prepare = Instant::now();
    let waves = build_waves(world, usize::MAX);
    report.note(format!(
        "validate: {} waves of {} candidates built in {:.1} s",
        waves.len(),
        PRESERVED + DIVERGING + TRUNCATED,
        prepare.elapsed().as_secs_f64()
    ));
    if waves.is_empty() {
        return Err("no malware original yields a wave".into());
    }
    let engine = Engine::new(EngineConfig { workers: nproc(), seed: world.config.seed });
    let sandbox = Sandbox::new();
    let min = if opts.scale == Scale::Full { MIN_WAVES } else { 0 };
    let untraced = measure(&waves, opts.seconds, min, |wave| {
        validate_batch_pooled(&engine, &sandbox, &wave.original, &wave.refs())
            .map_err(|e| format!("original does not baseline: {e}"))
    })?;
    record_checks(&mut report, &sandbox, &waves, &untraced);
    let throughput = |m: &Measured| m.candidates as f64 / (m.wall_ms / 1e3);
    if !opts.trace {
        report.metric("throughput_per_s", throughput(&untraced), "1/s");
        let what = "one wave, baseline included";
        latencies(&mut report, &untraced.wave_ms, TAIL, TAIL_WINDOWS, what);
        return Ok(report);
    }
    let l = Layers::default();
    let traced =
        measure(&waves, opts.seconds, min, |wave| wave_traced(&engine, &sandbox, wave, &l))?;
    record_checks(&mut report, &sandbox, &waves, &traced);
    let n = traced.candidates as f64;
    let steps = l.steps.load(Ordering::Relaxed) as f64;
    let workers = engine.workers_for(waves[0].candidates.len());
    let shard_ms = l.shard_ns.load(Ordering::Relaxed) as f64 / 1e6;
    report.metric("sandbox.baseline_ms", l.baseline.ms(), "ms");
    report.metric("binary.parse_us", 1e3 * l.parse.ms() / n, "us");
    report.metric("vm.load_us", 1e3 * l.load.ms() / l.load.calls().max(1) as f64, "us");
    report.metric("vm.run_us", 1e3 * l.run.ms() / l.run.calls().max(1) as f64, "us");
    report.metric("vm.steps_per_candidate", steps / l.run.calls().max(1) as f64, "count");
    report.metric("vm.ns_per_step", 1e6 * l.run.ms() / steps.max(1.0), "ns");
    report.metric("sandbox.abort_share", l.aborted.load(Ordering::Relaxed) as f64 / n, "share");
    report.metric("sandbox.preserved_share", traced.preserved as f64 / n, "share");
    report.metric("engine.busy_share", shard_ms / (workers as f64 * traced.wall_ms), "share");
    let mut attribution = Attribution::new(workers, traced.wall_ms);
    // The baseline runs alone, between engine runs: it holds every lane.
    attribution.part("sandbox.baseline", workers as f64 * l.baseline.ms());
    attribution.part("binary.parse", l.parse.ms());
    attribution.part("vm.load", l.load.ms());
    attribution.part("vm.run", l.run.ms());
    attribution.part("engine.idle", l.idle_ns.load(Ordering::Relaxed) as f64 / 1e6);
    attribution.finish(&mut report);
    crate::overhead(&mut report, throughput(&untraced), throughput(&traced));
    Ok(report)
}
