//! # mpass-bench — benchmark binaries and their shared harness
//!
//! The binaries in `src/bin/` each write a machine-readable JSON report
//! under `results/`:
//!
//! * `bench_attack` — attack-loop costs (inference, gradient, optimizer
//!   round, PEM) as a baseline/current trajectory,
//! * `bench_serve` — batched-vs-sequential scoring per detector, the
//!   inference kernels against their scalar references, and daemon load
//!   scenarios,
//! * `bench_validate` — full-trace versus digest functionality
//!   validation over candidate waves.
//!
//! This library holds what they share: the fixture ([`bench_fixture`]),
//! the `--quick`/`--out`/`--gate` arguments ([`BenchArgs`]), interleaved
//! min-of-reps timing ([`time_pair_us`]), report writing
//! ([`write_report`]) and the one regression gate ([`check_gate`]),
//! which compares same-process speedup ratios — never raw microseconds —
//! against a committed report.

use mpass_corpus::{BenignPool, CorpusConfig, Dataset};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// A small deterministic corpus + pool fixture shared by the benches.
pub fn bench_fixture() -> (Dataset, BenignPool) {
    let ds = Dataset::generate(&CorpusConfig {
        n_malware: 12,
        n_benign: 12,
        seed: 0xBE7C4,
        no_slack_fraction: 0.1,
    });
    let pool = BenignPool::generate(4, 0xBE7C4);
    (ds, pool)
}

/// The command line every bench binary takes:
///
/// * `--quick` — fewer repetitions (CI smoke),
/// * `--out PATH` — where the report goes (each binary has its default),
/// * `--gate PATH` — after writing, fail (exit 1) if a gated ratio
///   regressed against the report at PATH (see [`check_gate`]).
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// `--quick` was given.
    pub quick: bool,
    /// Report output path.
    pub out: String,
    /// Baseline report to gate against.
    pub gate: Option<String>,
    args: Vec<String>,
}

impl BenchArgs {
    /// Parse the process arguments.
    pub fn from_env(default_out: &str) -> Self {
        Self::parse(std::env::args().skip(1).collect(), default_out)
    }

    /// Parse `args` (without the program name). Unknown arguments are
    /// kept for [`BenchArgs::has_flag`] and otherwise ignored.
    pub fn parse(args: Vec<String>, default_out: &str) -> Self {
        let value =
            |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned();
        BenchArgs {
            quick: args.iter().any(|a| a == "--quick"),
            out: value("--out").unwrap_or_else(|| default_out.to_owned()),
            gate: value("--gate"),
            args,
        }
    }

    /// `true` when the binary-specific switch `flag` was given.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }
}

/// Interleaved min-of-reps timing of two alternatives, in microseconds:
/// every repetition times one pass of `a` then one pass of `b`, so a
/// machine-load burst lands on both alike — and the per-variant
/// *minimum* (the least-interfered-with pass) then discards it. The
/// gated rows are speedup *ratios* of the two, and this pairing is what
/// keeps a ratio reproducible on a shared box, where a median drifts
/// with whatever else the machine is doing.
pub fn time_pair_us(reps: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let mut a_us = f64::INFINITY;
    let mut b_us = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        a();
        a_us = a_us.min(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        b();
        b_us = b_us.min(t.elapsed().as_secs_f64() * 1e6);
    }
    (a_us, b_us)
}

/// Write `report` to `out` as pretty JSON (creating the parent
/// directory), exiting 1 if the file cannot be written.
pub fn write_report<T: Serialize>(out: &str, report: &T) {
    if let Some(parent) = std::path::Path::new(out).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let json = serde_json::to_string_pretty(report).expect("report serializes");
    std::fs::write(out, json + "\n").unwrap_or_else(|e| {
        eprintln!("could not write {out}: {e}");
        std::process::exit(1);
    });
    println!("wrote {out}");
}

/// One gated row of a report: a speedup ratio of two timings taken in
/// the same process.
#[derive(Debug, Clone, Copy)]
pub struct GateRow<'a> {
    /// What the ratio compares (`batched`, `kernel`, `digest`); rows
    /// only gate against baseline rows of the same kind and name.
    pub kind: &'static str,
    /// Row key (detector name, kernel tag, wave tag).
    pub name: &'a str,
    /// Reference time over optimized time (higher is better).
    pub speedup: f64,
}

/// A report the regression gate can read.
pub trait GatedReport: Serialize + Deserialize {
    /// Every gated ratio in the report.
    fn gate_rows(&self) -> Vec<GateRow<'_>>;
}

/// Ratios are clamped to this on both sides before comparing: a 19×
/// kernel dividing a multi-millisecond reference by a ~200 µs optimized
/// pass swings ±25% with timer noise alone, and a drop from 19× to 14×
/// is not a regression worth failing CI over — losing the advantage
/// (falling toward 1×) is, and the clamp keeps exactly that signal.
pub const GATE_SPEEDUP_CAP: f64 = 8.0;

/// Share of its baseline speedup a row must keep (a >20% relative drop
/// fails).
pub const GATE_MIN_RETAINED: f64 = 0.8;

/// Compare the rows of `current` against those of `baseline`. Every row
/// present in both (same kind and name) must keep
/// [`GATE_MIN_RETAINED`] of its baseline speedup after both sides are
/// clamped to [`GATE_SPEEDUP_CAP`]. Returns the number of rows checked,
/// or one message per failing row.
pub fn compare_rows(
    current: &[GateRow<'_>],
    baseline: &[GateRow<'_>],
) -> Result<usize, Vec<String>> {
    let mut failures = Vec::new();
    let mut checked = 0usize;
    for base in baseline {
        let Some(cur) = current.iter().find(|r| r.kind == base.kind && r.name == base.name) else {
            continue;
        };
        checked += 1;
        let (cur_s, base_s) =
            (cur.speedup.min(GATE_SPEEDUP_CAP), base.speedup.min(GATE_SPEEDUP_CAP));
        if cur_s < base_s * GATE_MIN_RETAINED {
            failures.push(format!(
                "{}: {} speedup {:.2}x fell >20% below baseline {:.2}x",
                base.name, base.kind, cur.speedup, base.speedup
            ));
        }
    }
    if failures.is_empty() {
        Ok(checked)
    } else {
        Err(failures)
    }
}

/// [`compare_rows`] of `report` against the committed report at `path`.
pub fn check_gate<R: GatedReport>(report: &R, path: &str) -> Result<usize, Vec<String>> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| vec![format!("cannot read gate baseline {path}: {e}")])?;
    let base: R =
        serde_json::from_str(&text).map_err(|e| vec![format!("bad gate baseline {path}: {e}")])?;
    compare_rows(&report.gate_rows(), &base.gate_rows())
}

/// Write `report` to `args.out`, then, when `--gate` was given, run
/// [`check_gate`] and exit 1 on any failing row.
pub fn finish<R: GatedReport>(args: &BenchArgs, report: &R) {
    write_report(&args.out, report);
    let Some(baseline) = &args.gate else {
        return;
    };
    match check_gate(report, baseline) {
        Ok(checked) => println!("gate vs {baseline}: {checked} rows within 20% of baseline"),
        Err(failures) => {
            for f in &failures {
                eprintln!("GATE FAIL {f}");
            }
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> BenchArgs {
        BenchArgs::parse(list.iter().map(|s| (*s).to_owned()).collect(), "results/X.json")
    }

    #[test]
    fn arguments_parse_with_defaults() {
        let a = args(&[]);
        assert!(!a.quick);
        assert_eq!(a.out, "results/X.json");
        assert_eq!(a.gate, None);
        let a =
            args(&["--quick", "--out", "/tmp/o.json", "--gate", "base.json", "--record-baseline"]);
        assert!(a.quick);
        assert_eq!(a.out, "/tmp/o.json");
        assert_eq!(a.gate.as_deref(), Some("base.json"));
        assert!(a.has_flag("--record-baseline"));
        assert!(!a.has_flag("--other"));
    }

    fn row(kind: &'static str, name: &'static str, speedup: f64) -> GateRow<'static> {
        GateRow { kind, name, speedup }
    }

    /// The 20% rule applies after clamping both sides to the cap, and
    /// rows only meet rows of the same kind and name.
    #[test]
    fn gate_clamps_then_compares() {
        let base =
            [row("kernel", "conv", 4.0), row("kernel", "big", 19.0), row("batched", "conv", 9.0)];
        // 3.3 keeps 82.5% of 4.0; 8.5 clamps to 8 against 8.
        assert_eq!(
            compare_rows(&[row("kernel", "conv", 3.3), row("kernel", "big", 8.5)], &base),
            Ok(2)
        );
        // 3.1 keeps 77.5% of 4.0; 6.3 keeps 78.75% of the clamped 8.
        let failures =
            compare_rows(&[row("kernel", "conv", 3.1), row("kernel", "big", 6.3)], &base)
                .unwrap_err();
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].starts_with("conv: kernel speedup 3.10x"), "{}", failures[0]);
        // A row missing on either side is not checked.
        assert_eq!(compare_rows(&[row("batched", "other", 0.1)], &base), Ok(0));
    }
}
