//! Fleet-step benchmark of the Cooper workspace.
//!
//! Drives `FleetSimulation` — the program's entry point — with the
//! trained SPOD detector on one workload and prints one JSON line of
//! metrics last:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload kitti-raw --seed 1 --seconds 6 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an untraced run;
//! `--trace 1` reports the per-layer metrics of a traced run: the fleet
//! run again with timed channel and governor wrappers, plus a replay of
//! its first steps, every (vehicle, step), through the crates' public
//! stage functions.
//! Workloads are described in `workload.rs`; every input derives from
//! `--seed`.

mod exchange;
mod layers;
mod replay;
mod stats;
mod workload;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Instant;

use cooper_core::fleet::{FleetSimulation, FleetStats, FleetStepReport};
use cooper_core::CooperPipeline;
use cooper_lidar_sim::scenario::Scenario;
use cooper_spod::train::TrainingConfig;
use cooper_spod::SpodDetector;

use layers::{FleetProbe, Trace};
use replay::QualityPass;
use stats::{median, percentile};
use workload::{run_fleet, Workload, STEPS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Percentile reported as `*_tail`. Fixed, so runs and commits always
/// compare the same percentile; one fleet run's steps leave ten samples
/// beyond it.
const TAIL_PCT: f64 = 75.0;
const _: () = assert!(STEPS >= 40, "a run samples ten steps beyond p75");
/// Steps of the untraced run's 1-thread reference: every measured run's
/// first steps must match it bit for bit. The traced run checks whole
/// runs against a whole 1-thread run.
const PREFIX_STEPS: usize = 4;
/// Steps the traced run's replay covers.
const REPLAY_STEPS: usize = 4;
/// The 10 Hz step budget and the Fig. 9 per-detection budget (upper
/// end of 35–50 ms plus ~5 ms of fusion), in milliseconds.
const STEP_BUDGET_MS: f64 = 100.0;
const PERCEIVE_BUDGET_MS: f64 = 55.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut options = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [key, value] if key.starts_with("--") => {
                options.insert(key.trim_start_matches("--").to_string(), value.clone());
            }
            _ => return Err(format!("unexpected arguments {pair:?}")),
        }
    }
    let get = |key: &str| options.get(key).ok_or_else(|| format!("missing --{key}"));
    let workload = get("workload")?;
    let workload = Workload::parse(workload).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload {workload:?} (one of {})",
            names.join(", ")
        )
    })?;
    let number = |key: &str| -> Result<u64, String> {
        get(key)?
            .parse::<u64>()
            .map_err(|e| format!("--{key}: {e}"))
    };
    let trace = match number("trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed: number("seed")?,
        seconds: number("seconds")? as f64,
        trace,
    })
}

/// Everything a run builds before it measures.
struct Setup {
    pipeline: CooperPipeline,
    scene: Scenario,
    sim: FleetSimulation,
    weights: Vec<u8>,
}

/// Trains the detector in-process with the harness's standard
/// configuration (no weight cache, so every run pays the same cost) and
/// builds the workload's world and fleet. Channels and governors keep
/// state across steps, so each fleet run builds fresh ones.
fn setup(workload: Workload, seed: u64, threads: usize) -> Setup {
    let detector = SpodDetector::train_default(&TrainingConfig::standard());
    let weights = detector.to_bytes().to_vec();
    let pipeline = workload.pipeline(detector);
    let scene = workload.scenario();
    let sim = workload.fleet(&scene, seed, threads);
    Setup {
        pipeline,
        scene,
        sim,
        weights,
    }
}

/// Hash of a run's deterministic output: every step's
/// `deterministic_view`.
fn output_hash(reports: &[FleetStepReport]) -> u64 {
    reports.iter().fold(stats::FNV_OFFSET, |hash, report| {
        stats::fnv64(
            format!("{:?}", report.deterministic_view()).as_bytes(),
            hash,
        )
    })
}

/// Directed in-range transfers, and those not fused whole (dropped,
/// partial, skipped or rejected — each transfer counted once).
fn transfer_outcomes(reports: &[FleetStepReport], stats: &FleetStats) -> (usize, usize) {
    let attempted = 2 * stats.connection_steps.values().sum::<usize>();
    let failed: BTreeSet<(usize, u32, u32)> = reports
        .iter()
        .flat_map(|r| r.transport_drops.iter().map(|d| (r.step, d.from, d.to)))
        .collect();
    (attempted, failed.len())
}

struct Output {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Output {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// One fleet run, timed from outside.
struct FleetRun {
    wall_s: f64,
    step_ms: Vec<f64>,
    /// Output hash of the whole run.
    hash: u64,
    /// Output hash of its first [`PREFIX_STEPS`] steps.
    prefix_hash: u64,
    reports: Vec<FleetStepReport>,
    stats: FleetStats,
    /// The channel and governor decisions of the run.
    probe: FleetProbe,
}

/// A fleet run of `steps` steps on `sim`; `timed` times every channel
/// and governor call.
fn fleet_run(
    workload: Workload,
    sim: &FleetSimulation,
    pipeline: &CooperPipeline,
    seed: u64,
    steps: usize,
    timed: bool,
) -> FleetRun {
    let mut probe = FleetProbe::new(timed);
    let start = Instant::now();
    let (reports, stats) = run_fleet(workload, sim, pipeline, seed, steps, &mut probe);
    let wall_s = start.elapsed().as_secs_f64();
    FleetRun {
        wall_s,
        step_ms: reports
            .iter()
            .map(|r| r.timings.total_us() as f64 / 1e3)
            .collect(),
        hash: output_hash(&reports),
        prefix_hash: output_hash(&reports[..PREFIX_STEPS.min(reports.len())]),
        reports,
        stats,
        probe,
    }
}

/// A 1-thread run of the workload's first `steps` steps, the reference
/// measured runs' outputs are checked against.
fn reference(workload: Workload, setup: &Setup, seed: u64, steps: usize) -> FleetRun {
    let sim = workload.fleet(&setup.scene, seed, 1);
    fleet_run(workload, &sim, &setup.pipeline, seed, steps, false)
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds N --trace 0|1");
            std::process::exit(2);
        }
    };
    let output = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match output {
        Ok(output) => println!("{}", output.to_json()),
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    }
}

/// Runs the ground-truth pass up to `until` (a fraction of its steps).
/// Returns `false` if a step failed its check against the fleet run,
/// which ends the pass.
fn advance(pass: &mut QualityPass, until: f64) -> bool {
    while pass.progress() < until {
        match pass.step() {
            Ok(true) => {}
            Ok(false) => break,
            Err(message) => {
                eprintln!("check failed: {message}");
                return false;
            }
        }
    }
    true
}

fn untraced(args: &Args) -> Result<Output, String> {
    let workload = args.workload;
    let threads = hardware_threads();
    let vehicles = workload.vehicle_count();
    let run_size = (vehicles * STEPS) as u64;
    // Set-ups, the fleet runs and the ground-truth pass are spread over
    // the whole run, so slow phases of a shared host weigh on every
    // metric alike rather than on whichever phase they hit.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let timed_setup = |setup_s: &mut Vec<f64>| {
        let start = Instant::now();
        let setup = setup(workload, args.seed, threads);
        setup_s.push(start.elapsed().as_secs_f64());
        setup
    };
    let setup = timed_setup(&mut setup_s);
    let mut correct = true;
    let set_up_again = |setup_s: &mut Vec<f64>, correct: &mut bool| {
        if timed_setup(setup_s).weights != setup.weights {
            *correct = false;
            eprintln!("check failed: repeated training produced different weights");
        }
    };
    let reference = reference(workload, &setup, args.seed, PREFIX_STEPS);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut step_ms = Vec::new();
    let mut vehicle_steps_per_s = Vec::new();
    let mut fleet_s = 0.0;
    // The output check of every measured run: its first steps must match
    // the 1-thread reference.
    let mut measure = |run: &FleetRun, correct: &mut bool| {
        attempted += run_size;
        if run.prefix_hash != reference.hash {
            eprintln!("check failed: output differs from the 1-thread reference");
            failed += run_size;
            *correct = false;
        }
        fleet_s += run.wall_s;
        step_ms.extend_from_slice(&run.step_ms);
        vehicle_steps_per_s.push(run_size as f64 / run.wall_s);
        let due = (fleet_s / args.seconds).min(1.0);
        (due, fleet_s < args.seconds)
    };
    // The reference run has just done the same kind of work, so caches
    // and allocators are warm: every measured run is sampled. The first
    // run's decisions drive the ground-truth pass.
    let first = fleet_run(
        workload,
        &setup.sim,
        &setup.pipeline,
        args.seed,
        STEPS,
        false,
    );
    let mut pass = QualityPass::new(
        workload,
        &setup.sim,
        &setup.scene.world,
        &setup.pipeline,
        &first.probe,
        &first.reports,
        args.seed,
        threads,
        workload.quality_steps(),
    );
    let (mut due, mut more) = measure(&first, &mut correct);
    let mut pass_ok = true;
    loop {
        // The pass catches up with the fleet runs in chunks with the
        // set-ups still due between them, so its timed calls span more
        // of the run than one stretch would.
        while setup_s.len() < SETUP_REPEATS {
            let share = setup_s.len() as f64 / SETUP_REPEATS as f64;
            if due < share {
                break;
            }
            pass_ok &= advance(&mut pass, share);
            set_up_again(&mut setup_s, &mut correct);
        }
        pass_ok &= advance(&mut pass, due);
        if !more {
            break;
        }
        let run = fleet_run(
            workload,
            &setup.sim,
            &setup.pipeline,
            args.seed,
            STEPS,
            false,
        );
        (due, more) = measure(&run, &mut correct);
    }
    // The pass's receiver-steps count as operations too.
    let pass_size = (vehicles * workload.quality_steps()) as u64;
    attempted += pass_size;
    if !pass_ok {
        correct = false;
        failed += pass_size;
    }
    let quality = pass.quality;
    let (transfers, transfers_failed) = transfer_outcomes(&first.reports, &first.stats);

    let mut out = Output {
        correct,
        attempted,
        failed,
        metrics: Vec::new(),
    };
    let step_p50 = median(&step_ms);
    let step_tail = percentile(&step_ms, TAIL_PCT);
    let perceive_p50 = median(&quality.perceive_ms);
    let perceive_tail = percentile(&quality.perceive_ms, TAIL_PCT);
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("step_ms_p50", step_p50, "ms");
    out.metric("step_ms_tail", step_tail, "ms");
    out.metric("vehicle_steps_per_s", median(&vehicle_steps_per_s), "1/s");
    out.metric(
        "wire_kb_per_vehicle_step",
        first.stats.total_bytes as f64 / 1e3 / run_size as f64,
        "kB",
    );
    // Reported as the fused share rather than the failed share: the
    // failed share is 0 on kitti-raw, and a metric that can be 0 has no
    // relative bound.
    out.metric(
        "transfer_fused_ratio",
        (transfers - transfers_failed) as f64 / transfers.max(1) as f64,
        "ratio",
    );
    out.metric("perceive_ms_p50", perceive_p50, "ms");
    out.metric("perceive_ms_tail", perceive_tail, "ms");
    out.metric(
        "recall",
        quality.matched as f64 / quality.ground_truth.max(1) as f64,
        "ratio",
    );
    out.metric(
        "precision",
        quality.matched as f64 / quality.detections.max(1) as f64,
        "ratio",
    );

    println!(
        "{}: {vehicles} vehicles x {STEPS} steps, {threads} threads, seed {}",
        workload.name(),
        args.seed
    );
    println!(
        "step_ms: p50 {step_p50:.1} ms, tail p{TAIL_PCT} {step_tail:.1} ms over {} steps \
         ({} beyond); 10 Hz budget {STEP_BUDGET_MS} ms: {}",
        step_ms.len(),
        stats::beyond(step_ms.len(), TAIL_PCT),
        verdict(step_p50, STEP_BUDGET_MS)
    );
    println!(
        "perceive_ms: p50 {perceive_p50:.1} ms, tail p{TAIL_PCT} {perceive_tail:.1} ms \
         over {} cooperative receiver-steps ({} beyond; {} ego-only, not timed); Fig. 9 budget \
         {PERCEIVE_BUDGET_MS} ms: {}",
        quality.perceive_ms.len(),
        stats::beyond(quality.perceive_ms.len(), TAIL_PCT),
        quality.ego_only,
        verdict(perceive_p50, PERCEIVE_BUDGET_MS)
    );
    println!(
        "quality: {}/{} ground-truth cars matched, {} detections; {} of {} transfers not fused whole",
        quality.matched, quality.ground_truth, quality.detections, transfers_failed, transfers
    );
    Ok(out)
}

fn verdict(value: f64, budget: f64) -> String {
    if value <= budget {
        "within".to_string()
    } else {
        format!("over by {:.1}x", value / budget)
    }
}

/// Every layer the traced run reports, in output order.
const LAYERS: [&str; 19] = [
    replay::SCAN,
    replay::PREPROCESS,
    replay::VOXELIZE,
    replay::VFE,
    replay::RULEBOOK,
    replay::CONV,
    replay::BEV,
    replay::HEAD,
    exchange::PREPARE,
    exchange::ENCODE,
    exchange::DECODE,
    layers::GOVERNOR,
    layers::CHANNEL,
    replay::GUARD,
    replay::CONSISTENCY,
    replay::FUSE,
    replay::FUSE_BEV,
    replay::TRANSFORM_BEV,
    replay::TRACKER,
];

/// Work counts the replay reports as they are.
const REPLAY_COUNTS: [&str; 20] = [
    "lidar_sim.scan.points",
    "spod.preprocess.points_in",
    "spod.preprocess.points_out",
    "spod.voxelize.voxels",
    "spod.rulebook.sites",
    "spod.bev.cells",
    "spod.head.detections",
    "core.exchange.prepare.delta_points",
    "core.packet.encode.bytes",
    "core.packet.encode.v1_frames",
    "core.packet.encode.keyframe_frames",
    "core.packet.encode.delta_frames",
    "core.packet.encode.v3_frames",
    "core.packet.decode.bytes",
    "core.alignment.guard.rejects",
    "core.consistency.check.rejects",
    "core.pipeline.fuse.points",
    "spod.fusion.transform_bev.cells",
    "spod.fusion.fuse_bev.cells",
    "core.tracking.update.detections",
];

fn traced(args: &Args) -> Result<Output, String> {
    let workload = args.workload;
    let threads = hardware_threads();
    let vehicles = workload.vehicle_count();
    let run_size = (vehicles * STEPS) as u64;
    let setup = setup(workload, args.seed, threads);
    let reference = reference(workload, &setup, args.seed, STEPS);

    // An untraced and a traced fleet run back to back; the reference
    // run warmed caches. Both must match the 1-thread reference in full,
    // and their channel and governor decisions must repeat exactly.
    let run = |timed| {
        fleet_run(
            workload,
            &setup.sim,
            &setup.pipeline,
            args.seed,
            STEPS,
            timed,
        )
    };
    let plain = run(false);
    let probed = run(true);
    let mut correct = true;
    let mut failed = 0u64;
    for run in [&plain, &probed] {
        if run.hash != reference.hash {
            eprintln!("check failed: output differs from the 1-thread reference");
            correct = false;
            failed += run_size;
        }
    }
    let (a, b) = (&plain.probe, &probed.probe);
    if a.offers != b.offers
        || a.deliveries != b.deliveries
        || a.channel.counts() != b.channel.counts()
        || a.governor.counts() != b.governor.counts()
    {
        eprintln!("check failed: channel or governor decisions differ between identical runs");
        correct = false;
    }

    // The replay, then a second pass without the fidelity references:
    // its work counts must repeat exactly.
    let replay = |check| {
        replay::replay(
            workload,
            &setup.sim,
            &setup.scene.world,
            &setup.pipeline,
            &probed.probe,
            &probed.reports,
            args.seed,
            threads,
            REPLAY_STEPS,
            check,
        )
    };
    let trace = replay(true).and_then(|trace| {
        let again = replay(false)?;
        if again.counts() != trace.counts() {
            return Err("work counts differ between two replays of the same steps".into());
        }
        Ok(trace)
    });
    let replay_size = (vehicles * REPLAY_STEPS) as u64;
    let trace = trace.unwrap_or_else(|message| {
        eprintln!("check failed: {message}");
        correct = false;
        failed += replay_size;
        Trace::default()
    });

    let mut out = Output {
        correct,
        attempted: 2 * run_size + replay_size,
        failed,
        metrics: Vec::new(),
    };
    let covered_ms = layer_metrics(&mut out, &trace, &probed.probe);
    // Coverage sets the replay's serial layer time against the 1-thread
    // fleet's step time over the replayed steps.
    let replayed_ms: f64 = reference.step_ms[..REPLAY_STEPS].iter().sum();
    let overhead = probed.wall_s / plain.wall_s;
    out.metric("exec.speedup", reference.wall_s / plain.wall_s, "x");
    out.metric("trace.coverage", covered_ms / replayed_ms, "ratio");
    out.metric("trace.overhead", overhead, "ratio");

    println!(
        "{}: traced run, {threads} threads, seed {}",
        workload.name(),
        args.seed
    );
    println!(
        "coverage: layers account for {:.0}% of the 1-thread step time ({covered_ms:.0} of \
         {replayed_ms:.0} ms); tracing overhead {:+.1}% of fleet wall time",
        100.0 * covered_ms / replayed_ms,
        100.0 * (overhead - 1.0)
    );
    Ok(out)
}

/// Adds every layer's calls, busy time, per-call p50 and work counts to
/// `out`. Replay layers cover [`REPLAY_STEPS`] steps; the channel and
/// governor were timed over a whole fleet run, and count toward the
/// returned covered time pro rata.
fn layer_metrics(out: &mut Output, trace: &Trace, probe: &FleetProbe) -> f64 {
    let mut covered_ms = 0.0;
    for name in LAYERS {
        let (layer, share) = match name {
            layers::GOVERNOR => (
                probe.governor.layer(name),
                REPLAY_STEPS as f64 / STEPS as f64,
            ),
            layers::CHANNEL => (
                probe.channel.layer(name),
                REPLAY_STEPS as f64 / STEPS as f64,
            ),
            _ => (trace.layer(name), 1.0),
        };
        covered_ms += layer.busy_ms() * share;
        out.metric(format!("{name}.calls"), layer.calls() as f64, "count");
        out.metric(format!("{name}.busy_ms"), layer.busy_ms(), "ms");
        out.metric(format!("{name}.p50_ms"), layer.p50_ms(), "ms");
    }
    for name in REPLAY_COUNTS {
        out.metric(name, trace.get(name) as f64, "count");
    }
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let ratio_of = |num: &str, den: &str| ratio(trace.get(num), trace.get(den));
    out.metric(
        "spod.preprocess.densify_ratio",
        ratio_of("spod.preprocess.densified", "spod.preprocess.points_in"),
        "ratio",
    );
    out.metric(
        "core.alignment.guard.reject_ratio",
        ratio_of(
            "core.alignment.guard.rejects",
            "core.alignment.guard.checks",
        ),
        "ratio",
    );
    out.metric(
        "core.consistency.check.reject_ratio",
        ratio_of(
            "core.consistency.check.rejects",
            "core.consistency.check.checks",
        ),
        "ratio",
    );
    let channel = &probe.channel;
    let mut deliveries = 0;
    for verdict in ["delivered", "partial", "lost", "corrupted"] {
        deliveries += channel.get(verdict);
        out.metric(
            format!("v2x.channel.{verdict}"),
            channel.get(verdict) as f64,
            "count",
        );
    }
    out.metric(
        "v2x.channel.delivered_ratio",
        ratio(channel.get("delivered"), deliveries),
        "ratio",
    );
    let governor = &probe.governor;
    let (sends, skips) = (governor.get("sends"), governor.get("skips"));
    out.metric("v2x.governor.sends", sends as f64, "count");
    out.metric("v2x.governor.skips", skips as f64, "count");
    out.metric(
        "v2x.governor.skip_ratio",
        ratio(skips, sends + skips),
        "ratio",
    );
    for kind in ["keyframe", "delta", "features"] {
        out.metric(
            format!("v2x.governor.bytes_{kind}"),
            governor.get(&format!("bytes_{kind}")) as f64,
            "bytes",
        );
    }
    covered_ms
}
