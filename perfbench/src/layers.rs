//! Timing wrappers around the trait objects the benchmark hands to the
//! program, so every layer is measured from outside the program.
//!
//! A [`Layer`] is a lock-free accumulator (calls, items, busy time, and
//! item-weighted busy time). The wrappers forward every trait method to
//! the wrapped object — defaults included, so overridden batch kernels
//! stay in use — and charge the elapsed time to a layer:
//!
//! * [`TimedDetector`] — a [`Detector`] + [`DetectorExt`] +
//!   [`WhiteBoxModel`] whose sessions are wrapped too. As an attack
//!   *target* it charges forward passes made inside [`TimedAttack::attack`]
//!   (oracle queries) to one layer and all other calls (attack-set
//!   selection) to another; as a *known model* both go to one layer.
//! * [`TimedAttack`] — an [`Attack`] that times each `attack` call and
//!   keeps the adversarial examples of evaded samples for re-checking.

use mpass_core::{Attack, AttackOutcome, HardLabelTarget};
use mpass_corpus::Sample;
use mpass_detectors::{Detector, DetectorExt, Verdict, WhiteBoxModel, WhiteBoxSession};
use mpass_ml::{Embedding, Workspace};
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Busy-time accumulator of one layer, shared across worker threads.
#[derive(Debug, Default)]
pub struct Layer {
    calls: AtomicU64,
    items: AtomicU64,
    ns: AtomicU64,
    item_ns: AtomicU64,
}

impl Layer {
    /// Run `f`, charging its wall time to this layer as one call over
    /// `items` items.
    pub fn time<R>(&self, items: usize, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(start, items);
        out
    }

    /// Charge the time since `start` as one call over `items` items.
    pub fn record(&self, start: Instant, items: usize) {
        let ns = start.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items as u64, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.item_ns.fetch_add(ns * items as u64, Ordering::Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn items(&self) -> u64 {
        self.items.load(Ordering::Relaxed)
    }

    /// Summed busy time, milliseconds.
    pub fn ms(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Busy time weighted by the items each call carried, milliseconds:
    /// the time the items of a batch spent waiting on that batch, summed.
    pub fn item_ms(&self) -> f64 {
        self.item_ns.load(Ordering::Relaxed) as f64 / 1e6
    }
}

thread_local! {
    static IN_ATTACK: Cell<bool> = const { Cell::new(false) };
}

/// A detector whose every call is timed.
pub struct TimedDetector<'a> {
    inner: &'a dyn Detector,
    white_box: Option<&'a dyn WhiteBoxModel>,
    /// Charged while an attack call is running on this thread.
    in_attack: &'a Layer,
    /// Charged otherwise.
    outside: &'a Layer,
}

impl<'a> TimedDetector<'a> {
    /// An attack target: forward passes inside attack calls go to
    /// `queries`, the rest to `outside`.
    pub fn target(inner: &'a dyn DetectorExt, queries: &'a Layer, outside: &'a Layer) -> Self {
        TimedDetector { inner, white_box: inner.as_white_box(), in_attack: queries, outside }
    }

    /// A known model of the MPass ensemble: every pass goes to `layer`.
    pub fn white_box(inner: &'a dyn WhiteBoxModel, layer: &'a Layer) -> Self {
        TimedDetector { inner, white_box: Some(inner), in_attack: layer, outside: layer }
    }

    fn layer(&self) -> &'a Layer {
        if IN_ATTACK.with(Cell::get) {
            self.in_attack
        } else {
            self.outside
        }
    }

    fn wb(&self) -> &'a dyn WhiteBoxModel {
        self.white_box.expect("white-box calls reach only white-box models")
    }
}

impl Detector for TimedDetector<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn score(&self, bytes: &[u8]) -> f32 {
        self.layer().time(1, || self.inner.score(bytes))
    }
    fn raw_score(&self, bytes: &[u8]) -> f32 {
        self.layer().time(1, || self.inner.raw_score(bytes))
    }
    fn threshold(&self) -> f32 {
        self.inner.threshold()
    }
    fn classify(&self, bytes: &[u8]) -> Verdict {
        self.layer().time(1, || self.inner.classify(bytes))
    }
    fn score_batch(&self, items: &[&[u8]], out: &mut Vec<f32>) {
        self.layer().time(items.len(), || self.inner.score_batch(items, out))
    }
    fn raw_score_batch(&self, items: &[&[u8]], out: &mut Vec<f32>) {
        self.layer().time(items.len(), || self.inner.raw_score_batch(items, out))
    }
    fn has_quantized_path(&self) -> bool {
        self.inner.has_quantized_path()
    }
    fn score_quantized(&self, bytes: &[u8]) -> f32 {
        self.layer().time(1, || self.inner.score_quantized(bytes))
    }
    fn score_quantized_batch(&self, items: &[&[u8]], out: &mut Vec<f32>) {
        self.layer().time(items.len(), || self.inner.score_quantized_batch(items, out))
    }
    fn classify_batch(&self, items: &[&[u8]], out: &mut Vec<Verdict>) {
        self.layer().time(items.len(), || self.inner.classify_batch(items, out))
    }
}

impl DetectorExt for TimedDetector<'_> {
    fn as_white_box(&self) -> Option<&dyn WhiteBoxModel> {
        self.white_box.map(|_| self as &dyn WhiteBoxModel)
    }
}

impl WhiteBoxModel for TimedDetector<'_> {
    fn embedding(&self) -> &Embedding {
        self.wb().embedding()
    }
    fn window(&self) -> usize {
        self.wb().window()
    }
    fn benign_loss_grad_into(&self, bytes: &[u8], ws: &mut Workspace, grad: &mut Vec<f32>) -> f32 {
        self.layer().time(1, || self.wb().benign_loss_grad_into(bytes, ws, grad))
    }
    fn session(&self) -> Box<dyn WhiteBoxSession + '_> {
        let layer = self.layer();
        let inner = layer.time(0, || self.wb().session());
        Box::new(TimedSession { inner, layer })
    }
}

struct TimedSession<'a> {
    inner: Box<dyn WhiteBoxSession + 'a>,
    layer: &'a Layer,
}

impl WhiteBoxSession for TimedSession<'_> {
    fn score_delta(&mut self, bytes: &[u8], dirty: &[Range<usize>]) -> f32 {
        let start = Instant::now();
        let out = self.inner.score_delta(bytes, dirty);
        self.layer.record(start, 1);
        out
    }
    fn loss_grad_delta(
        &mut self,
        bytes: &[u8],
        dirty: &[Range<usize>],
        grad: &mut Vec<f32>,
    ) -> f32 {
        let start = Instant::now();
        let out = self.inner.loss_grad_delta(bytes, dirty, grad);
        self.layer.record(start, 1);
        out
    }
}

/// One evaded sample's adversarial example, kept for re-checking.
pub struct Evasion {
    pub original: Vec<u8>,
    pub adversarial: Vec<u8>,
}

/// An attack whose `attack` calls are timed one by one.
pub struct TimedAttack<'a> {
    inner: Box<dyn Attack + 'a>,
    keep_evasions: bool,
    /// Wall time of each `attack` call, milliseconds, in call order.
    pub latencies_ms: Vec<f64>,
    /// Adversarial examples of evaded samples (when kept).
    pub evasions: Vec<Evasion>,
}

impl<'a> TimedAttack<'a> {
    pub fn new(inner: Box<dyn Attack + 'a>, keep_evasions: bool) -> Self {
        TimedAttack { inner, keep_evasions, latencies_ms: Vec::new(), evasions: Vec::new() }
    }
}

impl Attack for TimedAttack<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn stateful_across_samples(&self) -> bool {
        self.inner.stateful_across_samples()
    }

    fn attack(&mut self, sample: &Sample, target: &mut HardLabelTarget<'_>) -> AttackOutcome {
        let start = Instant::now();
        IN_ATTACK.with(|c| c.set(true));
        let outcome = self.inner.attack(sample, target);
        IN_ATTACK.with(|c| c.set(false));
        self.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if self.keep_evasions && outcome.evaded {
            if let Some(ae) = &outcome.adversarial {
                self.evasions
                    .push(Evasion { original: sample.bytes.clone(), adversarial: ae.clone() });
            }
        }
        outcome
    }
}
