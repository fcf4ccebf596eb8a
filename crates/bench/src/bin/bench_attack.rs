//! Emit machine-readable attack-path timings to `results/BENCH_attack.json`.
//!
//! This binary times the four dominant costs of the attack loop on a
//! fixed seeded fixture and writes them as JSON, a perf trajectory later
//! changes can diff against:
//!
//! * `inference_us` — one `Detector::score` call per byte-conv model,
//! * `gradient_us` — one `benign_loss_grad_into` call per model,
//! * `optimizer_round_us` — one `EnsembleOptimizer::run` round (gradient +
//!   byte-mapping) over the full known-model ensemble,
//! * `pem_per_sample_us` — PEM Shapley attribution cost per (model, sample).
//!
//! Usage:
//!
//! * `bench_attack --record-baseline` — write the measurements into the
//!   `baseline` slot (run this *before* an optimization lands),
//! * `bench_attack` — write them into `current` and compute
//!   `speedup = baseline / current` against the stored baseline,
//! * `--quick` — fewer repetitions (CI smoke), `--out PATH` — alternative
//!   output path (so CI never dirties the committed trajectory).

use mpass_bench::{bench_fixture, BenchArgs};
use mpass_core::modify::{modify, ModificationConfig};
use mpass_core::optimize::{EnsembleOptimizer, OptimizerConfig};
use mpass_core::pem::{run_pem, PemConfig};
use mpass_detectors::train::training_pairs;
use mpass_detectors::{
    ByteConvConfig, Detector, DetectorExt, MalConv, MalGcg, MalGcgConfig, NonNeg,
    WhiteBoxModel,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One set of measurements, all in microseconds per operation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Measurements {
    /// Mean `Detector::score` latency across the byte-conv models.
    inference_us: f64,
    /// Mean `benign_loss_grad_into` latency across the white-box models.
    gradient_us: f64,
    /// One optimizer round (gradients + byte-mapping, 3-model ensemble).
    optimizer_round_us: f64,
    /// PEM Shapley cost per (model, sample) pair.
    pem_per_sample_us: f64,
}

/// Ratios `baseline / current` (higher is faster).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Speedup {
    inference: f64,
    gradient: f64,
    optimizer_round: f64,
    pem_per_sample: f64,
}

/// The on-disk trajectory: a frozen pre-optimization baseline, the latest
/// measurement, and their ratio.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchReport {
    /// Fixture description (seeds are fixed inside the binary).
    fixture: String,
    baseline: Option<Measurements>,
    current: Option<Measurements>,
    speedup: Option<Speedup>,
}

const FIXTURE_DESC: &str = "corpus seed 0xBE7C4 (12+12), tiny byte-conv configs, \
     train seed 1, optimizer lr 0.05 x 4 iterations, PEM default config over 4 samples";

/// Median wall time of `reps` calls to `f`, in microseconds.
fn time_us<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timing"));
    times[times.len() / 2]
}

fn measure(reps: usize) -> Measurements {
    let (ds, pool) = bench_fixture();
    let samples: Vec<_> = ds.samples.iter().collect();
    let pairs = training_pairs(&samples);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut malconv = MalConv::new(ByteConvConfig::tiny(), &mut rng);
    malconv.train(&pairs, 4, 5e-3, &mut rng);
    let mut nonneg = NonNeg::new(ByteConvConfig::tiny(), &mut rng);
    nonneg.train(&pairs, 4, 5e-3, &mut rng);
    let mut malgcg = MalGcg::new(MalGcgConfig::tiny(), &mut rng);
    malgcg.train(&pairs, 4, 5e-3, &mut rng);
    let mal = ds.malware()[0];

    let detectors: [&dyn Detector; 3] = [&malconv, &nonneg, &malgcg];
    let inference_us = time_us(reps, || {
        for d in detectors {
            std::hint::black_box(d.score(std::hint::black_box(&mal.bytes)));
        }
    }) / detectors.len() as f64;

    let white: Vec<&dyn WhiteBoxModel> = vec![&malconv, &nonneg, &malgcg];
    let mut ws = mpass_ml::Workspace::default();
    let mut grad = Vec::new();
    let gradient_us = time_us(reps, || {
        for m in &white {
            std::hint::black_box(m.benign_loss_grad_into(
                std::hint::black_box(&mal.bytes),
                &mut ws,
                &mut grad,
            ));
        }
    }) / white.len() as f64;

    // One optimizer round = cfg.iterations gradient+mapping iterations; we
    // report the whole `run` so mapping cost is included, divided by the
    // iteration count to get a per-round figure.
    let opt_cfg = OptimizerConfig { lr: 0.05, iterations: 4 };
    let mut mod_rng = ChaCha8Rng::seed_from_u64(2);
    let ms0 = modify(mal, &pool, &ModificationConfig::default(), &mut mod_rng)
        .expect("fixture sample must admit modification");
    let optimizer_round_us = time_us(reps.max(3), || {
        let mut ms = ms0.clone();
        let mut opt = EnsembleOptimizer::new(white.clone(), &ms, opt_cfg);
        std::hint::black_box(opt.run(&mut ms));
    }) / opt_cfg.iterations as f64;

    let pem_samples: Vec<_> = ds.malware().into_iter().take(4).collect();
    let pem_models: Vec<(&str, &dyn DetectorExt)> =
        vec![("MalConv", &malconv), ("MalGCG", &malgcg)];
    let pem_pairs = (pem_samples.len() * pem_models.len()) as f64;
    let pem_per_sample_us = time_us(reps.clamp(3, 5), || {
        std::hint::black_box(run_pem(&pem_models, &pem_samples, &PemConfig::default()));
    }) / pem_pairs;

    Measurements { inference_us, gradient_us, optimizer_round_us, pem_per_sample_us }
}

fn main() {
    let args = BenchArgs::from_env("results/BENCH_attack.json");
    let reps = if args.quick { 3 } else { 15 };

    let m = measure(reps);
    eprintln!(
        "inference {:.1}us  gradient {:.1}us  optimizer round {:.1}us  pem/sample {:.1}us",
        m.inference_us, m.gradient_us, m.optimizer_round_us, m.pem_per_sample_us
    );

    let mut report = std::fs::read_to_string(&args.out)
        .ok()
        .and_then(|s| serde_json::from_str::<BenchReport>(&s).ok())
        .unwrap_or(BenchReport {
            fixture: FIXTURE_DESC.to_owned(),
            baseline: None,
            current: None,
            speedup: None,
        });
    if args.has_flag("--record-baseline") {
        report.baseline = Some(m);
    } else {
        report.current = Some(m);
    }
    if let (Some(b), Some(c)) = (report.baseline, report.current) {
        report.speedup = Some(Speedup {
            inference: b.inference_us / c.inference_us,
            gradient: b.gradient_us / c.gradient_us,
            optimizer_round: b.optimizer_round_us / c.optimizer_round_us,
            pem_per_sample: b.pem_per_sample_us / c.pem_per_sample_us,
        });
    }
    mpass_bench::write_report(&args.out, &report);
}
