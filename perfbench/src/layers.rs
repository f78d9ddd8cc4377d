//! Per-layer timing from the benchmark's side: a recorder that times
//! calls into the crates' public functions, and wrappers around the
//! channel and governor trait objects handed to a fleet run, which
//! record every decision and, when tracing, time it. Nothing here
//! reaches inside the program.

use std::collections::BTreeMap;
use std::time::Instant;

use cooper_core::governor::{GovernorPolicy, GovernorVerdict, TransferOffer};
use cooper_core::{ChannelModel, Delivery, TransferCtx};
use cooper_pointcloud::FrameKind;

/// Calls into one layer: how many, and how long each took.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    call_ms: Vec<f64>,
}

impl Layer {
    pub fn calls(&self) -> usize {
        self.call_ms.len()
    }

    pub fn busy_ms(&self) -> f64 {
        // Start from +0.0: an empty f64 sum is -0.0.
        self.call_ms.iter().fold(0.0, |acc, ms| acc + ms)
    }

    pub fn p50_ms(&self) -> f64 {
        crate::stats::median(&self.call_ms)
    }

    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.call_ms.push(start.elapsed().as_secs_f64() * 1e3);
        out
    }
}

/// Layer timings plus work counts, both keyed by layer name.
#[derive(Debug, Default)]
pub struct Trace {
    layers: BTreeMap<&'static str, Layer>,
    counts: BTreeMap<String, u64>,
}

impl Trace {
    /// Runs `f` as one call into layer `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.layers.entry(name).or_default().time(f)
    }

    /// Adds `n` to the work count `name`.
    pub fn count(&mut self, name: &str, n: u64) {
        *self.counts.entry(name.to_string()).or_insert(0) += n;
    }

    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).cloned().unwrap_or_default()
    }

    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn counts(&self) -> &BTreeMap<String, u64> {
        &self.counts
    }
}

/// One directed transfer of a fleet run: step, sender id, receiver id.
pub type TransferKey = (usize, u32, u32);

/// What the channel and governor wrappers saw over one fleet run: every
/// decision in call order, verdict counts, and — when `timed` — the
/// time of each call.
#[derive(Debug, Default)]
pub struct FleetProbe {
    pub timed: bool,
    pub channel: Trace,
    pub governor: Trace,
    pub offers: Vec<(TransferKey, GovernorVerdict)>,
    pub deliveries: Vec<(TransferKey, Delivery)>,
}

impl FleetProbe {
    pub fn new(timed: bool) -> Self {
        FleetProbe {
            timed,
            ..FleetProbe::default()
        }
    }
}

/// Runs `f` as a call into layer `name` of `stats`, timed only when
/// `timed`.
fn call<R>(timed: bool, stats: &mut Trace, name: &'static str, f: impl FnOnce() -> R) -> R {
    if timed {
        stats.time(name, f)
    } else {
        f()
    }
}

pub const CHANNEL: &str = "v2x.channel.deliver";
pub const GOVERNOR: &str = "v2x.governor.decide";

/// A channel that records, counts and optionally times every delivery
/// decision of the channel it wraps, forwarding everything unchanged.
pub struct ProbedChannel<'a> {
    pub inner: &'a mut dyn ChannelModel,
    pub timed: bool,
    pub stats: &'a mut Trace,
    pub log: &'a mut Vec<(TransferKey, Delivery)>,
}

impl ChannelModel for ProbedChannel<'_> {
    fn deliver(&mut self, tx: &TransferCtx) -> bool {
        self.deliver_verdict(tx) == Delivery::Delivered
    }

    fn deliver_verdict(&mut self, tx: &TransferCtx) -> Delivery {
        let inner = &mut *self.inner;
        let verdict = call(self.timed, self.stats, CHANNEL, || {
            inner.deliver_verdict(tx)
        });
        self.log.push(((tx.step, tx.from, tx.to), verdict));
        let kind = match verdict {
            Delivery::Delivered => "delivered",
            Delivery::Partial { .. } => "partial",
            Delivery::Dropped | Delivery::DeadlineExceeded => "lost",
            Delivery::Corrupted => "corrupted",
        };
        self.stats.count(kind, 1);
        verdict
    }

    fn on_step_begin(&mut self, step: usize) {
        self.inner.on_step_begin(step);
    }

    fn airtime_for(&self, payload_bytes: usize) -> Option<f64> {
        self.inner.airtime_for(payload_bytes)
    }

    fn airtime_headroom_s(&self) -> Option<f64> {
        self.inner.airtime_headroom_s()
    }
}

/// A governor that records, counts and optionally times every decision
/// of the policy it wraps, forwarding the verdict unchanged.
pub struct ProbedGovernor<'a> {
    pub inner: &'a mut dyn GovernorPolicy,
    pub timed: bool,
    pub stats: &'a mut Trace,
    pub log: &'a mut Vec<(TransferKey, GovernorVerdict)>,
}

impl GovernorPolicy for ProbedGovernor<'_> {
    fn decide(&mut self, offer: &TransferOffer<'_>) -> GovernorVerdict {
        let inner = &mut *self.inner;
        let verdict = call(self.timed, self.stats, GOVERNOR, || inner.decide(offer));
        self.log.push(((offer.step, offer.from, offer.to), verdict));
        let stats = &mut *self.stats;
        match verdict {
            GovernorVerdict::Send(candidate) => {
                let kind = match candidate.kind {
                    FrameKind::Keyframe => "keyframe",
                    FrameKind::Delta => "delta",
                    FrameKind::Features => "features",
                };
                stats.count("sends", 1);
                stats.count(&format!("bytes_{kind}"), candidate.wire_bytes as u64);
            }
            GovernorVerdict::Skip => stats.count("skips", 1),
        }
        verdict
    }
}
