//! Paper-scale benchmark of the MPass reproduction.
//!
//! One command runs one of three workloads on the paper-scale world,
//! `World::build(WorldConfig::full())`, with the world's master seed
//! keyed on the workload seed; it checks that the program's outputs are
//! correct and prints one JSON object as the last line of standard
//! output:
//!
//! * `campaign` — the full Tables I–III grid (five attacks × four
//!   targets) on an engine with one worker per CPU;
//! * `validate` — waves of candidates per malware original through
//!   `validate_batch_pooled`, VM-bound;
//! * `serve` — an in-process scoring daemon over a Unix socket under a
//!   closed loop of one connection.
//!
//! With `--trace 0` the object carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics, measured by timing calls
//! into the program's public functions and by wrapping the trait objects
//! handed to it (see [`layers`]). Every workload prints every metric; a
//! layer a workload bypasses reads 0.

pub mod campaign;
pub mod layers;
pub mod report;
pub mod serve;
pub mod validate;

use mpass_experiments::{World, WorldConfig};
use report::Report;
use std::time::Instant;

/// The seed used when `--seed` is absent. Seed 0 builds exactly the
/// world of `WorldConfig::full()`, the one every `exp_*` binary uses.
pub const DEFAULT_SEED: u64 = 0;

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["campaign", "validate", "serve"];

/// World size: the paper-scale world, or the down-scaled one the
/// benchmark's own tests run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Print per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub scale: Scale,
}

impl Options {
    /// Parse `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let value = |flag: &str| -> Option<&str> {
            args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
        };
        let workload = value("--workload").ok_or("--workload is required")?.to_owned();
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
        }
        let number = |flag: &str, default: &str| -> Result<f64, String> {
            value(flag).unwrap_or(default).parse::<f64>().map_err(|e| format!("{flag}: {e}"))
        };
        let seed = value("--seed")
            .map(|s| s.parse::<u64>().map_err(|e| format!("--seed: {e}")))
            .transpose()?
            .unwrap_or(DEFAULT_SEED);
        let seconds = number("--seconds", "10")?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        let trace = match value("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        };
        Ok(Options { workload, seed, seconds, trace, scale: Scale::Full })
    }
}

/// The world configuration: the stock paper-scale one (or the
/// down-scaled one for smoke runs). It does not depend on the workload
/// seed, so every run builds, and measures set-up on, the same world.
pub fn world_config(scale: Scale) -> WorldConfig {
    match scale {
        Scale::Full => WorldConfig::full(),
        Scale::Smoke => WorldConfig { attack_samples: 2, ..WorldConfig::quick() },
    }
}

/// Key the world's master seed on the workload seed (seed 0 leaves it
/// unchanged). Every workload draws its randomness from it: the attacks'
/// RNGs (`make_attack` seeds from `world.config.seed`), the `modify`
/// outputs and the payload order.
pub fn key_world(world: &mut World, seed: u64) {
    world.config.seed ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
}

/// The built world and what building it cost.
pub struct Setup {
    pub world: World,
    pub seconds: f64,
    /// Named parts of the build, milliseconds (traced runs only).
    pub parts: Vec<(&'static str, f64)>,
}

/// Build the world. Untraced, this is `World::build`; traced, it is
/// [`build_world_traced`], which times each part.
pub fn setup(config: WorldConfig, traced: bool) -> Setup {
    let start = Instant::now();
    let (world, parts) =
        if traced { build_world_traced(config) } else { (World::build(config), Vec::new()) };
    Setup { world, seconds: start.elapsed().as_secs_f64(), parts }
}

/// `World::build`, step for step through the same public calls, timing
/// corpus generation and the training of each detector. The benchmark's
/// tests check that it builds the same world.
pub fn build_world_traced(config: WorldConfig) -> (World, Vec<(&'static str, f64)>) {
    use mpass_corpus::{BenignPool, Dataset, Label};
    use mpass_detectors::{
        commercial::default_profiles, CommercialAv, LightGbm, MalConv, MalGcg, NonNeg,
    };
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    let mut parts = Vec::new();
    let mut timed = |name: &'static str, start: Instant| {
        parts.push((name, start.elapsed().as_secs_f64() * 1e3));
    };
    let start = Instant::now();
    let mut dataset = Dataset::generate(&config.corpus);
    let packer = mpass_baselines::Packer::new(mpass_baselines::benign_packer_profile());
    let mut i = 0;
    for s in dataset.samples.iter_mut() {
        if s.label != Label::Benign {
            continue;
        }
        i += 1;
        if i % 7 != 0 {
            continue;
        }
        if let Ok(bytes) = packer.pack(s.pe().unwrap()) {
            if let Ok(pe) = mpass_pe::PeFile::parse(&bytes) {
                *s = mpass_corpus::Sample::new(s.name.clone(), s.label, pe);
            }
        }
    }
    let pool = BenignPool::generate(config.benign_pool_programs, config.seed ^ 0xB00);
    let (train, _test) = dataset.split(5);
    let pairs = mpass_detectors::train::training_pairs(&train);
    timed("corpus.generate_ms", start);

    let start = Instant::now();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x7281);
    let mut malconv = MalConv::new(config.conv, &mut rng);
    malconv.train(&pairs, config.conv_epochs, config.conv_lr, &mut rng);
    timed("detectors.train_ms.malconv", start);

    let start = Instant::now();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x7282);
    let mut nonneg = NonNeg::new(config.conv, &mut rng);
    nonneg.train(&pairs, config.conv_epochs * 2, config.conv_lr, &mut rng);
    timed("detectors.train_ms.nonneg", start);

    let start = Instant::now();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x7283);
    let mut malgcg = MalGcg::new(config.malgcg, &mut rng);
    malgcg.train(&pairs, config.conv_epochs, config.conv_lr, &mut rng);
    timed("detectors.train_ms.malgcg", start);

    let start = Instant::now();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x7284);
    let lightgbm = LightGbm::train(&train, config.gbdt, &mut rng);
    timed("detectors.train_ms.lightgbm", start);

    let start = Instant::now();
    let avs = default_profiles().into_iter().map(|p| CommercialAv::train(p, &train)).collect();
    timed("detectors.train_ms.commercial", start);
    drop(train);
    (World { config, dataset, pool, malconv, nonneg, lightgbm, malgcg, avs }, parts)
}

/// Worker threads and connections the workloads may use: one per CPU.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host-speed probe: wall time of a fixed integer loop, milliseconds.
/// Recorded before and after each run so a noisy figure can be traced to
/// a slow host phase; it is not a metric.
pub fn host_probe_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics and their units, in print order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// The per-layer metrics and their units, in print order. Every traced
/// run prints all of them; a layer its workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    // Detectors: the attack target inside oracle queries (campaign) or
    // behind the daemon (serve), and MPass's known models.
    ("detectors.target.calls", "count"),
    ("detectors.target.ms", "ms"),
    ("detectors.target.attack_set_ms", "ms"),
    ("detectors.whitebox.calls", "count"),
    ("detectors.whitebox.ms", "ms"),
    // Core: the MPass loop and the oracle channel.
    ("core.optimize.self_ms", "ms"),
    ("core.query.calls", "count"),
    ("core.query.self_ms", "ms"),
    ("core.query.rejected", "count"),
    ("core.modify.ms", "ms"),
    ("baselines.self_ms", "ms"),
    ("sandbox.verify.calls", "count"),
    ("sandbox.verify.ms", "ms"),
    ("campaign.queries_per_sample", "count"),
    ("campaign.asr_pct", "%"),
    // Validation: parse, load, run.
    ("sandbox.baseline_ms", "ms"),
    ("binary.parse_us", "us"),
    ("vm.load_us", "us"),
    ("vm.run_us", "us"),
    ("vm.steps_per_candidate", "count"),
    ("vm.ns_per_step", "ns"),
    ("sandbox.abort_share", "share"),
    ("sandbox.preserved_share", "share"),
    // Serving.
    ("serve.server_p50_ms", "ms"),
    ("serve.server_p99_ms", "ms"),
    ("serve.client_protocol_us", "us"),
    ("serve.server_protocol_us", "us"),
    ("serve.queue_wait_ms", "ms"),
    ("engine.batch_size_mean", "count"),
    ("engine.batch_flushes", "count"),
    ("engine.busy_share", "share"),
    // Set-up.
    ("corpus.generate_ms", "ms"),
    ("detectors.train_ms.malconv", "ms"),
    ("detectors.train_ms.nonneg", "ms"),
    ("detectors.train_ms.malgcg", "ms"),
    ("detectors.train_ms.lightgbm", "ms"),
    ("detectors.train_ms.commercial", "ms"),
    // Accounting.
    ("unattributed_share", "share"),
    ("trace.untraced_throughput_per_s", "1/s"),
    ("trace.traced_throughput_per_s", "1/s"),
    ("trace.overhead_throughput_per_s", "1/s"),
    ("host.probe_before_ms", "ms"),
    ("host.probe_after_ms", "ms"),
    ("setup.traced_s", "s"),
    ("peak_rss.traced_mb", "MB"),
];

/// Per-layer metrics a traced run must record as non-zero, on every
/// workload and on each one's own layers. A layer whose recording broke
/// would otherwise read 0, which looks like a large gain.
const LAYERS_EVERYWHERE: [&str; 12] = [
    "corpus.generate_ms",
    "detectors.train_ms.malconv",
    "detectors.train_ms.nonneg",
    "detectors.train_ms.malgcg",
    "detectors.train_ms.lightgbm",
    "detectors.train_ms.commercial",
    "trace.untraced_throughput_per_s",
    "trace.traced_throughput_per_s",
    "host.probe_before_ms",
    "host.probe_after_ms",
    "setup.traced_s",
    "peak_rss.traced_mb",
];

/// The layers `workload` goes through, which its traced run must record
/// as non-zero.
pub fn own_layers(workload: &str) -> &'static [&'static str] {
    match workload {
        "campaign" => &[
            "detectors.target.calls",
            "detectors.target.ms",
            "detectors.target.attack_set_ms",
            "detectors.whitebox.calls",
            "detectors.whitebox.ms",
            "core.optimize.self_ms",
            "core.query.calls",
            "core.query.self_ms",
            "core.modify.ms",
            "baselines.self_ms",
            "sandbox.verify.calls",
            "sandbox.verify.ms",
            "campaign.queries_per_sample",
            "engine.busy_share",
        ],
        "validate" => &[
            "sandbox.baseline_ms",
            "binary.parse_us",
            "vm.load_us",
            "vm.run_us",
            "vm.steps_per_candidate",
            "vm.ns_per_step",
            "sandbox.abort_share",
            "sandbox.preserved_share",
            "engine.busy_share",
        ],
        "serve" => &[
            "detectors.target.calls",
            "detectors.target.ms",
            "serve.server_p50_ms",
            "serve.server_p99_ms",
            "serve.client_protocol_us",
            "serve.server_protocol_us",
            "serve.queue_wait_ms",
            "engine.batch_size_mean",
            "engine.batch_flushes",
        ],
        _ => &[],
    }
}

/// Fail the run's correctness check when a layer `workload` must record
/// reads 0 (or is missing).
pub fn check_layers(report: &mut Report, workload: &str) {
    for name in LAYERS_EVERYWHERE.iter().chain(own_layers(workload)) {
        let value = report.value(name).unwrap_or(0.0);
        report.check(value > 0.0, || format!("layer metric {name} reads {value}"));
    }
}

/// Record the tracing overhead: traced minus untraced throughput, both
/// measured in the traced run.
pub fn overhead(report: &mut Report, untraced: f64, traced: f64) {
    report.metric("trace.untraced_throughput_per_s", untraced, "1/s");
    report.metric("trace.traced_throughput_per_s", traced, "1/s");
    report.metric("trace.overhead_throughput_per_s", traced - untraced, "1/s");
}

/// Order `report`'s metrics as `list` does, adding any missing one as 0.
fn complete(report: &mut Report, list: &[(&str, &str)]) {
    for (name, _, _) in &report.metrics {
        assert!(list.iter().any(|(n, _)| n == name), "metric {name} is not in the printed list");
    }
    let mut ordered = Vec::with_capacity(list.len());
    for (name, unit) in list {
        let value = report.value(name).unwrap_or(0.0);
        ordered.push(((*name).to_owned(), value, (*unit).to_owned()));
    }
    report.metrics = ordered;
}

/// Run one workload: probe the host, build the world, measure, check.
pub fn run(opts: &Options) -> Result<Report, String> {
    let probe_before = host_probe_ms();
    let mut setup = setup(world_config(opts.scale), opts.trace);
    key_world(&mut setup.world, opts.seed);
    let mut report = match opts.workload.as_str() {
        "campaign" => campaign::run(&setup.world, opts)?,
        "validate" => validate::run(&setup.world, opts)?,
        "serve" => serve::run(setup.world, opts)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    report.note(format!("available parallelism: {} CPUs", nproc()));
    report.host_probe_ms = (probe_before, host_probe_ms());
    if opts.trace {
        for (name, ms) in &setup.parts {
            report.metric(name, *ms, "ms");
        }
        report.metric("host.probe_before_ms", report.host_probe_ms.0, "ms");
        report.metric("host.probe_after_ms", report.host_probe_ms.1, "ms");
        report.metric("setup.traced_s", setup.seconds, "s");
        report.metric("peak_rss.traced_mb", peak_rss_mb(), "MB");
        check_layers(&mut report, &opts.workload);
        complete(&mut report, &PER_LAYER);
    } else {
        report.metric("setup_s", setup.seconds, "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        complete(&mut report, &END_TO_END);
    }
    Ok(report)
}
