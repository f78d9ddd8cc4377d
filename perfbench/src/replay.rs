//! Passes over the scans, poses and exchange of a workload's fleet run,
//! outside the fleet loop:
//!
//! * [`QualityPass`] — one `CooperPipeline::perceive_with` per
//!   receiver and step on the inbox the fleet delivered, timed, and
//!   scored against the world's ground truth moved into the receiver's
//!   frame;
//! * [`replay`] — the same steps driven through the crates' public
//!   stage functions one at a time, each call timed, with a fidelity
//!   check against the detector's own entry points.
//!
//! Both rebuild the fleet's inboxes with [`Exchange`] from the decisions
//! the fleet run recorded, and check every receiver-step they reproduce
//! against that run's report.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use cooper_core::consistency::{check_consistency, FreeSpaceIndex, SenderHistory};
use cooper_core::fleet::{FleetConfig, FleetSimulation, FleetStepReport};
use cooper_core::report::{match_by_center_distance, EvaluationConfig};
use cooper_core::tracking::Tracker;
use cooper_core::{alignment_transform, guard_alignment, CooperPipeline, FusionOutcome};
use cooper_exec::Executor;
use cooper_geometry::{Obb3, Pose, RigidTransform, Vec3};
use cooper_lidar_sim::{ObjectClass, World};
use cooper_pointcloud::{PointCloud, VoxelGrid};
use cooper_spod::bev::BevMap;
use cooper_spod::preprocess::densify;
use cooper_spod::sparse_conv::ConvRulebook;
use cooper_spod::vfe::VoxelFeatureEncoder;
use cooper_spod::{fuse_bev, transform_bev, DetectOptions, DetectScratch, Detection, SpodDetector};

use crate::exchange::{
    check_receiver, origin, vehicle_input, Exchange, Received, Reproduced, VehicleInput, DECODE,
};
use crate::layers::{FleetProbe, Trace};
use crate::workload::Workload;

/// Points per voxelization chunk inside `SpodDetector::featurize_with`.
/// The replay must chunk identically to reproduce its float sums; the
/// fidelity check fails the run if the two ever diverge.
const VOXELIZE_CHUNK_POINTS: usize = 16_384;

pub const SCAN: &str = "lidar_sim.scan";
pub const PREPROCESS: &str = "spod.preprocess";
pub const VOXELIZE: &str = "spod.voxelize";
pub const VFE: &str = "spod.vfe";
pub const RULEBOOK: &str = "spod.rulebook";
pub const CONV: &str = "spod.conv";
pub const BEV: &str = "spod.bev";
pub const HEAD: &str = "spod.head";
pub const GUARD: &str = "core.alignment.guard";
pub const CONSISTENCY: &str = "core.consistency.check";
pub const FUSE: &str = "core.pipeline.fuse";
pub const FUSE_BEV: &str = "spod.fusion.fuse_bev";
pub const TRANSFORM_BEV: &str = "spod.fusion.transform_bev";
pub const TRACKER: &str = "core.tracking.update";

fn step_duration_s() -> f64 {
    FleetConfig::default().step_duration_s
}

/// The trust layer's consistency guard as the fleet applies it: the
/// receiver's free-space index (an empty one for delta reconstructions,
/// which span two capture instants), then per point packet the replay,
/// teleport and ghost checks against that sender's history. Returns the
/// ids of the senders it rejects; `clouds` holds each packet's decoded
/// cloud, `None` for feature frames, which pass unchecked.
fn consistency_rejections(
    me: &VehicleInput,
    inbox: &[Received],
    clouds: &[Option<PointCloud>],
    histories: &mut BTreeMap<(u32, u32), SenderHistory>,
) -> BTreeSet<u32> {
    let cfg = cooper_core::fleet::TrustGuardConfig::default().consistency;
    let index = FreeSpaceIndex::build(&me.scan, &cfg);
    let empty = FreeSpaceIndex::build(&PointCloud::new(), &cfg);
    let mut rejected = BTreeSet::new();
    for (received, cloud) in inbox.iter().zip(clouds) {
        let Some(cloud) = cloud else { continue };
        let packet = &received.packet;
        let align = alignment_transform(packet.pose(), &me.rx_estimate, &origin());
        let in_ego = cloud.transformed(&align);
        let mut centroid = Vec3::new(0.0, 0.0, 0.0);
        for p in cloud.iter() {
            centroid += p.position;
        }
        centroid /= cloud.len().max(1) as f64;
        let world_centroid =
            RigidTransform::from_pose(&packet.pose().to_pose(&origin())).apply(centroid);
        let key = (me.id, packet.vehicle_id());
        let (verdict, next) = check_consistency(
            if received.composite { &empty } else { &index },
            &in_ego,
            world_centroid,
            packet.sequence(),
            histories.get(&key),
            step_duration_s(),
            &cfg,
        );
        histories.insert(key, next);
        if !verdict.is_consistent() {
            rejected.insert(packet.vehicle_id());
        }
    }
    rejected
}

/// The inbox the fusion pipeline sees once the consistency guard has
/// screened it.
fn screened(inbox: &[Received], rejected: &BTreeSet<u32>) -> Vec<cooper_core::ExchangePacket> {
    inbox
        .iter()
        .filter(|r| !rejected.contains(&r.packet.vehicle_id()))
        .map(|r| r.packet.clone())
        .collect()
}

/// Ground-truth cars inside the detector's grid, in the receiver's
/// sensor frame.
fn ground_truth_in(world: &World, pose: &Pose, detector: &SpodDetector) -> Vec<Obb3> {
    let to_receiver = RigidTransform::from_pose(pose).inverse();
    let extent = detector.config().voxel_grid.extent;
    world
        .ground_truth_boxes(ObjectClass::Car)
        .iter()
        .map(|b| b.transformed(&to_receiver))
        .filter(|b| {
            let (c, lo, hi) = (b.center, extent.min(), extent.max());
            c.x >= lo.x && c.x <= hi.x && c.y >= lo.y && c.y <= hi.y
        })
        .collect()
}

/// What the ground-truth pass measured.
#[derive(Debug, Default)]
pub struct Quality {
    /// `perceive_with` latency per cooperative (receiver, step) — one
    /// whose screened inbox holds at least one packet — milliseconds.
    pub perceive_ms: Vec<f64>,
    /// Receiver-steps left with an empty inbox, which perceive on the
    /// ego scan alone and are not timed.
    pub ego_only: usize,
    /// Ground-truth cars matched by a detection.
    pub matched: usize,
    /// Ground-truth cars inside the receivers' detector grids.
    pub ground_truth: usize,
    /// Detections produced; matching is one-to-one, so `matched` of
    /// them are true positives.
    pub detections: usize,
}

/// Every receiver of every step through `CooperPipeline::perceive_with`
/// on the inbox the fleet delivered it, screened by the workload's
/// consistency guard. Each call runs on one core, like the fleet's
/// per-receiver tasks; scans and sender features are prepared on
/// `threads` workers. Only cooperative calls are timed: a receiver
/// whose screened inbox is empty perceives on its own scan, and mixing
/// those calls in would make the latency hinge on how many receivers
/// are left alone rather than on what cooperative perception costs. Detections are matched to ground truth by planar
/// center distance, and their count must equal the fleet's report. The
/// pass advances one step per [`QualityPass::step`], so callers can
/// spread it over a run.
pub struct QualityPass<'a> {
    workload: Workload,
    sim: &'a FleetSimulation,
    pipeline: &'a CooperPipeline,
    reports: &'a [FleetStepReport],
    seed: u64,
    executor: Executor,
    scratch: DetectScratch,
    exchange: Exchange<'a>,
    histories: BTreeMap<(u32, u32), SenderHistory>,
    world: World,
    next_step: usize,
    steps: usize,
    pub quality: Quality,
}

impl<'a> QualityPass<'a> {
    /// A pass over the first `steps` steps of the fleet run that
    /// recorded `probe` and `reports`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        workload: Workload,
        sim: &'a FleetSimulation,
        world: &World,
        pipeline: &'a CooperPipeline,
        probe: &'a FleetProbe,
        reports: &'a [FleetStepReport],
        seed: u64,
        threads: usize,
        steps: usize,
    ) -> Self {
        QualityPass {
            workload,
            sim,
            pipeline,
            reports,
            seed,
            executor: Executor::new(Some(threads)),
            scratch: DetectScratch::new(),
            exchange: Exchange::new(workload, sim.vehicles().len(), probe),
            histories: BTreeMap::new(),
            world: world.clone(),
            next_step: 0,
            steps,
            quality: Quality::default(),
        }
    }

    /// Fraction of the pass's steps done.
    pub fn progress(&self) -> f64 {
        self.next_step as f64 / self.steps as f64
    }

    /// Runs the next step; `Ok(false)` once every step has run. A step
    /// that differs from the fleet's report is an error and ends the
    /// pass.
    pub fn step(&mut self) -> Result<bool, String> {
        if self.next_step == self.steps {
            return Ok(false);
        }
        let step = self.next_step;
        let result = self.run_step(step);
        self.next_step = if result.is_ok() { step + 1 } else { self.steps };
        result.map(|()| true)
    }

    fn run_step(&mut self, step: usize) -> Result<(), String> {
        let (sim, seed, world) = (self.sim, self.seed, &self.world);
        let detector = self.pipeline.detector();
        let inputs = self.executor.map(sim.vehicles(), |idx, _| {
            vehicle_input(sim, world, idx, step, seed)
        });
        let bevs: Vec<BevMap> = if self.workload.features() {
            let options = options(detector, self.executor);
            inputs
                .iter()
                .map(|v| detector.featurize_with(&v.scan, &options, &mut self.scratch))
                .collect()
        } else {
            Vec::new()
        };
        let inboxes = self
            .exchange
            .step(step, &inputs, &bevs, detector, &mut Trace::default())?;
        for (me, inbox) in inputs.iter().zip(&inboxes) {
            let rejected = if self.workload.guarded() {
                let clouds: Vec<_> = inbox
                    .packets
                    .iter()
                    .map(|r| r.packet.cloud().ok())
                    .collect();
                consistency_rejections(me, &inbox.packets, &clouds, &mut self.histories)
            } else {
                BTreeSet::new()
            };
            let fusion_inbox = screened(&inbox.packets, &rejected);
            let start = Instant::now();
            let outcome = self.pipeline.perceive_with(
                &me.scan,
                &me.rx_estimate,
                &fusion_inbox,
                &origin(),
                &Executor::sequential(),
                &mut self.scratch,
            );
            let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
            let quality = &mut self.quality;
            if fusion_inbox.is_empty() {
                quality.ego_only += 1;
            } else {
                quality.perceive_ms.push(elapsed_ms);
            }
            check_receiver(
                &self.reports[step],
                &Reproduced {
                    id: me.id,
                    bytes: inbox.bytes,
                    cooperative_detections: outcome.detections.len(),
                    single_detections: None,
                    consistency_rejected: rejected,
                    alignment_rejected: None,
                },
            )?;
            let truth = ground_truth_in(world, &me.pose, detector);
            let match_distance = EvaluationConfig::default().match_distance;
            let scores = match_by_center_distance(&outcome.detections, &truth, match_distance);
            quality.matched += scores.iter().flatten().count();
            quality.ground_truth += truth.len();
            quality.detections += outcome.detections.len();
        }
        self.world = self.world.advanced(step_duration_s());
        Ok(())
    }
}

/// The options `CooperPipeline` detects cars with.
fn options(detector: &SpodDetector, executor: Executor) -> DetectOptions {
    DetectOptions::default()
        .with_class(ObjectClass::Car)
        .with_threshold(detector.config().score_threshold)
        .with_executor(executor)
}

/// The SPOD stage chain of `featurize_with` + `detect_bev`, one public
/// stage function at a time, run sequentially like the fleet's
/// per-receiver tasks.
struct Chain<'a> {
    detector: &'a SpodDetector,
    vfe: VoxelFeatureEncoder,
    options: DetectOptions,
}

impl<'a> Chain<'a> {
    fn new(detector: &'a SpodDetector) -> Self {
        Chain {
            detector,
            vfe: VoxelFeatureEncoder::from_layer(detector.vfe_layer().clone()),
            options: options(detector, Executor::sequential()),
        }
    }

    fn featurize(&self, cloud: &PointCloud, trace: &mut Trace) -> BevMap {
        let config = self.detector.config();
        let executor = &self.options.executor;
        let mut densified = 0;
        let dense = trace.time(PREPROCESS, || {
            let mut dense = densify(cloud, &config.preprocess);
            densified = dense.len();
            if let Some(margin) = config.ground_removal_margin {
                let cutoff = -config.mount_height + margin;
                dense.retain(|p| p.position.z >= cutoff);
            }
            dense
        });
        trace.count("spod.preprocess.points_in", cloud.len() as u64);
        trace.count("spod.preprocess.densified", densified as u64);
        trace.count("spod.preprocess.points_out", dense.len() as u64);
        let grid = trace.time(VOXELIZE, || {
            VoxelGrid::from_cloud_chunked(
                &dense,
                config.voxel_grid,
                VOXELIZE_CHUNK_POINTS,
                executor,
            )
        });
        trace.count("spod.voxelize.voxels", grid.occupied_count() as u64);
        let embedded = trace.time(VFE, || self.vfe.encode_with(&grid, executor));
        let rulebook = trace.time(RULEBOOK, || {
            ConvRulebook::build(embedded.coord_slice(), executor)
        });
        trace.count("spod.rulebook.sites", rulebook.site_count() as u64);
        let deep = trace.time(CONV, || {
            let mid = self
                .detector
                .conv1_layer()
                .forward_with(&embedded, &rulebook, executor);
            self.detector
                .conv2_layer()
                .forward_with(&mid, &rulebook, executor)
        });
        let bev = trace.time(BEV, || BevMap::collapse(&deep));
        trace.count("spod.bev.cells", bev.active_cells() as u64);
        bev
    }

    fn head(&self, bev: &BevMap, trace: &mut Trace) -> Vec<Detection> {
        let detections = trace.time(HEAD, || self.detector.detect_bev(bev, &self.options));
        trace.count("spod.head.detections", detections.len() as u64);
        detections
    }
}

fn bits_eq_detections(a: &[Detection], b: &[Detection]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            format!("{x:?}|{}", x.score.to_bits()) == format!("{y:?}|{}", y.score.to_bits())
        })
}

fn bits_eq_bev(a: &BevMap, b: &BevMap) -> bool {
    a.channels() == b.channels()
        && a.cell_slice() == b.cell_slice()
        && (0..a.active_cells()).all(|k| {
            a.feature_at(k)
                .iter()
                .zip(b.feature_at(k))
                .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

fn bits_eq_cloud(a: &PointCloud, b: &PointCloud) -> bool {
    a.len() == b.len()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(p, q)| p.bits_eq(q))
}

/// Replays every (vehicle, step) of the first `steps` steps of the fleet
/// run that recorded `probe` and `reports` through the crates' public
/// stage functions, timing each call:
///
/// * every vehicle: scan, SPOD chain on its own scan (the fleet's
///   ego-only detection; the feature workload's broadcast features);
/// * the exchange: sender content, encode, and receiver-side
///   reconstruction of what the channel delivered;
/// * every receiver: decode each packet of its inbox, then either the
///   consistency check, alignment guard and point fusion followed by
///   the SPOD chain on the fused cloud, or (feature workload)
///   `transform_bev`, `fuse_bev` and the head;
/// * the tracker, on the guarded workload.
///
/// Every receiver-step must match the fleet's report. With `check`,
/// every replayed BEV map and detection list must also be bit-identical
/// to `featurize_with`/`detect_with` on the same cloud, and every
/// receiver's fused cloud and detections to
/// `CooperPipeline::perceive_with` on the same inbox; otherwise the
/// replay measured different work and the run fails.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    workload: Workload,
    sim: &FleetSimulation,
    world: &World,
    pipeline: &CooperPipeline,
    probe: &FleetProbe,
    reports: &[FleetStepReport],
    seed: u64,
    threads: usize,
    steps: usize,
    check: bool,
) -> Result<Trace, String> {
    let mut replayer = Replayer {
        workload,
        pipeline,
        check,
        chain: Chain::new(pipeline.detector()),
        executor: Executor::new(Some(threads)),
        scratch: DetectScratch::new(),
        trace: Trace::default(),
        histories: BTreeMap::new(),
    };
    let mut exchange = Exchange::new(workload, sim.vehicles().len(), probe);
    let mut trackers: Vec<Option<Tracker>> = sim
        .vehicles()
        .iter()
        .map(|_| pipeline.make_tracker())
        .collect();
    let mut world = world.clone();
    for (step, report) in reports.iter().enumerate().take(steps) {
        let trace = &mut replayer.trace;
        let inputs: Vec<VehicleInput> = (0..sim.vehicles().len())
            .map(|idx| {
                let input = trace.time(SCAN, || vehicle_input(sim, &world, idx, step, seed));
                trace.count("lidar_sim.scan.points", input.scan.len() as u64);
                input
            })
            .collect();
        let mut own = Vec::with_capacity(inputs.len());
        for v in &inputs {
            own.push(replayer.detect_checked(&v.scan, "ego")?);
        }
        let bevs: Vec<BevMap> = if workload.features() {
            own.iter().map(|(bev, _)| bev.clone()).collect()
        } else {
            Vec::new()
        };
        let inboxes = exchange.step(
            step,
            &inputs,
            &bevs,
            pipeline.detector(),
            &mut replayer.trace,
        )?;
        for (i, (me, inbox)) in inputs.iter().zip(&inboxes).enumerate() {
            let (detections, consistency_rejected, alignment_rejected) = if workload.features() {
                let detections = replayer.receive_features(me, &own[i].0, &inbox.packets)?;
                (detections, BTreeSet::new(), None)
            } else {
                replayer.receive_points(me, &inbox.packets)?
            };
            let reproduced = Reproduced {
                id: me.id,
                bytes: inbox.bytes,
                cooperative_detections: detections.len(),
                single_detections: Some(own[i].1.len()),
                consistency_rejected,
                alignment_rejected,
            };
            check_receiver(report, &reproduced)?;
            if let Some(tracker) = trackers[i].as_mut() {
                let trace = &mut replayer.trace;
                trace.time(TRACKER, || tracker.update(&detections, step_duration_s()));
                trace.count("core.tracking.update.detections", detections.len() as u64);
            }
        }
        world = world.advanced(step_duration_s());
    }
    Ok(replayer.trace)
}

/// State of one replay: the stage chain, the reference executor the
/// fidelity checks run the detector's own entry points on, and the
/// consistency guard's per-(receiver, sender) history.
struct Replayer<'a> {
    workload: Workload,
    pipeline: &'a CooperPipeline,
    check: bool,
    chain: Chain<'a>,
    executor: Executor,
    scratch: DetectScratch,
    trace: Trace,
    histories: BTreeMap<(u32, u32), SenderHistory>,
}

impl Replayer<'_> {
    /// Runs the stage chain on `cloud` and checks it against
    /// `featurize_with` and `detect_with`.
    fn detect_checked(
        &mut self,
        cloud: &PointCloud,
        what: &str,
    ) -> Result<(BevMap, Vec<Detection>), String> {
        let bev = self.chain.featurize(cloud, &mut self.trace);
        let detections = self.chain.head(&bev, &mut self.trace);
        if !self.check {
            return Ok((bev, detections));
        }
        let detector = self.pipeline.detector();
        let options = options(detector, self.executor);
        if !bits_eq_bev(
            &bev,
            &detector.featurize_with(cloud, &options, &mut self.scratch),
        ) {
            return Err(format!(
                "replayed {what} BEV map differs from featurize_with"
            ));
        }
        let reference = detector.detect_with(cloud, &options, &mut self.scratch);
        if !bits_eq_detections(&detections, &reference) {
            return Err(format!(
                "replayed {what} detections differ from detect_with"
            ));
        }
        Ok((bev, detections))
    }

    /// Feature-level fusion: decode, align and fuse the senders' BEV
    /// frames with the receiver's own, then score the fused map.
    fn receive_features(
        &mut self,
        me: &VehicleInput,
        own: &BevMap,
        inbox: &[Received],
    ) -> Result<Vec<Detection>, String> {
        let trace = &mut self.trace;
        let grid = &self.pipeline.detector().config().voxel_grid;
        let mut maps = Vec::with_capacity(inbox.len());
        for received in inbox {
            let packet = &received.packet;
            let frame = trace
                .time(DECODE, || packet.feature_frame())
                .map_err(|e| format!("feature frame failed to decode: {e}"))?;
            let remote = BevMap::from_feature_frame(&frame);
            let transform = alignment_transform(packet.pose(), &me.rx_estimate, &origin());
            let aligned = trace.time(TRANSFORM_BEV, || transform_bev(&remote, &transform, grid));
            trace.count(
                "spod.fusion.transform_bev.cells",
                aligned.active_cells() as u64,
            );
            maps.push(aligned);
        }
        let mut all = vec![own];
        all.extend(&maps);
        let mode = self.pipeline.fusion_mode();
        let fused = trace.time(FUSE_BEV, || fuse_bev(&all, mode));
        trace.count("spod.fusion.fuse_bev.cells", fused.active_cells() as u64);
        let detections = self.chain.head(&fused, &mut self.trace);
        if self.check {
            let outcome = self.perceive(me, screened(inbox, &BTreeSet::new()));
            if !bits_eq_detections(&detections, &outcome.detections) {
                return Err("replayed feature fusion differs from perceive_with".into());
            }
        }
        Ok(detections)
    }

    /// Point-level fusion: decode, screen (consistency guard, alignment
    /// guard) and merge the senders' clouds into the receiver's, then
    /// detect on the fused cloud. Also returns the senders each guard
    /// rejected (the alignment guard's only when the pipeline runs it).
    #[allow(clippy::type_complexity)]
    fn receive_points(
        &mut self,
        me: &VehicleInput,
        inbox: &[Received],
    ) -> Result<(Vec<Detection>, BTreeSet<u32>, Option<BTreeSet<u32>>), String> {
        let trace = &mut self.trace;
        let mut clouds = Vec::with_capacity(inbox.len());
        for received in inbox {
            let cloud = trace
                .time(DECODE, || received.packet.cloud())
                .map_err(|e| format!("point packet failed to decode: {e}"))?;
            clouds.push(Some(cloud));
        }
        let mut rejected = BTreeSet::new();
        if self.workload.guarded() {
            let histories = &mut self.histories;
            rejected = trace.time(CONSISTENCY, || {
                consistency_rejections(me, inbox, &clouds, histories)
            });
            trace.count("core.consistency.check.checks", inbox.len() as u64);
            trace.count("core.consistency.check.rejects", rejected.len() as u64);
        }
        let mut accepted = Vec::new();
        let mut misaligned = BTreeSet::new();
        for (received, cloud) in inbox.iter().zip(&clouds) {
            let (packet, cloud) = (&received.packet, cloud.as_ref().expect("decoded above"));
            if rejected.contains(&packet.vehicle_id()) {
                continue;
            }
            let mut transform = alignment_transform(packet.pose(), &me.rx_estimate, &origin());
            if let Some(cfg) = self.pipeline.alignment_guard() {
                let report =
                    trace.time(GUARD, || guard_alignment(&me.scan, cloud, &transform, cfg));
                trace.count("core.alignment.guard.checks", 1);
                if !report.decision.is_accepted() {
                    trace.count("core.alignment.guard.rejects", 1);
                    misaligned.insert(packet.vehicle_id());
                    continue;
                }
                transform = report.transform;
            }
            accepted.push((cloud, transform));
        }
        let fused = trace.time(FUSE, || {
            let total = me.scan.len() + accepted.iter().map(|(c, _)| c.len()).sum::<usize>();
            let mut fused = PointCloud::with_capacity(total);
            fused.merge(&me.scan);
            for (cloud, transform) in &accepted {
                fused.merge_transformed(cloud, transform);
            }
            fused
        });
        trace.count("core.pipeline.fuse.points", fused.len() as u64);
        let (_, detections) = self.detect_checked(&fused, "fused")?;
        if self.check {
            let outcome = self.perceive(me, screened(inbox, &rejected));
            if !bits_eq_cloud(&fused, &outcome.fused_cloud) {
                return Err("replayed fusion differs from perceive_with's fused cloud".into());
            }
            if !bits_eq_detections(&detections, &outcome.detections) {
                return Err("replayed fused detections differ from perceive_with".into());
            }
        }
        let guarded = self.pipeline.alignment_guard().is_some();
        Ok((detections, rejected, guarded.then_some(misaligned)))
    }

    /// The pipeline's own answer for the same receiver and inbox.
    fn perceive(
        &mut self,
        me: &VehicleInput,
        inbox: Vec<cooper_core::ExchangePacket>,
    ) -> FusionOutcome {
        self.pipeline.perceive_with(
            &me.scan,
            &me.rx_estimate,
            &inbox,
            &origin(),
            &self.executor,
            &mut self.scratch,
        )
    }
}
