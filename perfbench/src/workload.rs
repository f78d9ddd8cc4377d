//! The three benchmark workloads: scene, fleet, channel, governor and
//! pipeline settings, all generated from the workload seed.

use crate::layers::{FleetProbe, ProbedChannel, ProbedGovernor};
use cooper_core::fleet::{
    straight_trajectory, FleetConfig, FleetSimulation, FleetStats, FleetStepReport, FleetVehicle,
    TrustGuardConfig,
};
use cooper_core::tracking::TrackerConfig;
use cooper_core::{AlignmentGuardConfig, CooperPipeline, GovernorConfig};
use cooper_geometry::{Pose, Vec3};
use cooper_lidar_sim::scenario::{t_junction, tj_scenario_1, Scenario};
use cooper_pointcloud::roi::RoiCategory;
use cooper_spod::SpodDetector;
use cooper_v2x::{
    ArqConfig, BandwidthGovernor, DsrcChannel, DsrcConfig, GilbertElliott, LossModel, SharedMedium,
};

/// Steps of one fleet run. Step cost varies a lot from step to step
/// (the fused clouds' NMS candidates follow each step's pose noise), so
/// a run samples many distinct steps rather than repeating few.
pub const STEPS: usize = 40;

/// Salt separating the channel's loss/corruption stream from the
/// fleet's scan and pose streams.
const CHANNEL_SEED_SALT: u64 = 0xC4A7_7E15_0000_0001;

/// Which workload runs. Each stresses layers the others leave idle, so
/// a change to one layer shows on one workload and must read flat on
/// another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// kitti1, HDL-64, 4 vehicles moving 1 m/step, ungoverned v1
    /// full-frame broadcast over a perfect channel, no guards: the
    /// paper's raw-fusion setup. Fused clouds of ~400k points make SPOD
    /// (preprocess, RPN, NMS) dominate while v2x does no work, so SPOD
    /// gains show here and exchange-path changes must read flat.
    KittiRaw,
    /// tj1, VLP-16, 8 vehicles moving 0.5 m/step, governed ROI + delta
    /// (keyframe every 3) over a shared DSRC medium with 10% burst loss,
    /// 1% corruption and ARQ; alignment guard, default trust guard and
    /// tracker on. The only workload that runs delta frames, ICP,
    /// consistency, trust and the tracker; NMS is small here, so NMS
    /// changes must read flat. The default trust guard also rejects
    /// honest senders (no ghost plan is set); the workload keeps that
    /// default so the defect stays visible.
    TjGuarded,
    /// The `TjGuarded` fleet and channel with no guards and the governor
    /// in feature mode (v3 BEV frames): the trunk runs once per sender
    /// and each receiver runs `fuse_bev` + `detect_bev`. Feature-path
    /// changes show here and nowhere else.
    TjFeatures,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::KittiRaw,
        Workload::TjGuarded,
        Workload::TjFeatures,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::KittiRaw => "kitti-raw",
            Workload::TjGuarded => "tj-guarded",
            Workload::TjFeatures => "tj-features",
        }
    }

    pub fn scenario(self) -> Scenario {
        match self {
            Workload::KittiRaw => t_junction(),
            Workload::TjGuarded | Workload::TjFeatures => tj_scenario_1(),
        }
    }

    pub fn vehicle_count(self) -> usize {
        match self {
            Workload::KittiRaw => 4,
            Workload::TjGuarded | Workload::TjFeatures => 8,
        }
    }

    fn speed_m_per_step(self) -> f64 {
        match self {
            Workload::KittiRaw => 1.0,
            Workload::TjGuarded | Workload::TjFeatures => 0.5,
        }
    }

    /// Steps the ground-truth pass covers. Perceive latency varies
    /// widely between receiver-steps (NMS work follows the fused cloud;
    /// guards, quarantine and channel losses admit a varying share of
    /// senders), so seeds differ unless a pass samples many of them. On
    /// the VLP-16 workloads a receiver-step is cheap and the pass covers
    /// the whole run; on kitti-raw one costs ~0.5 s with its scan, and
    /// 30 steps (120 receiver-steps) keep the run within its time.
    pub fn quality_steps(self) -> usize {
        match self {
            Workload::KittiRaw => 30,
            Workload::TjGuarded | Workload::TjFeatures => STEPS,
        }
    }

    pub fn guarded(self) -> bool {
        self == Workload::TjGuarded
    }

    pub fn features(self) -> bool {
        self == Workload::TjFeatures
    }

    pub fn governed(self) -> bool {
        self != Workload::KittiRaw
    }

    /// The pipeline around the trained detector, with this workload's
    /// guard and tracker settings.
    pub fn pipeline(self, detector: SpodDetector) -> CooperPipeline {
        let pipeline = CooperPipeline::new(detector);
        if self.guarded() {
            pipeline
                .with_alignment_guard(AlignmentGuardConfig::default())
                .with_tracker(TrackerConfig::default())
        } else {
            pipeline
        }
    }

    /// The fleet: vehicles anchored on the scene's observer poses,
    /// shifted 3 m ring by ring once the observer set is exhausted, all
    /// driving straight ahead.
    pub fn fleet(self, scene: &Scenario, seed: u64, threads: usize) -> FleetSimulation {
        let vehicles = (0..self.vehicle_count())
            .map(|i| {
                let base = scene.observers[i % scene.observers.len()];
                let ring = (i / scene.observers.len()) as f64;
                let start = Pose::new(
                    base.position + Vec3::new(3.0 * ring, 3.0 * ring, 0.0),
                    base.attitude,
                );
                FleetVehicle {
                    id: i as u32 + 1,
                    trajectory: straight_trajectory(start, self.speed_m_per_step(), STEPS),
                    beams: scene.kind.beam_model(),
                }
            })
            .collect();
        FleetSimulation::new(
            scene.world.clone(),
            vehicles,
            FleetConfig {
                seed,
                threads: Some(threads),
                trust: self.guarded().then(TrustGuardConfig::default),
                ..FleetConfig::default()
            },
        )
    }

    /// A fresh channel: the run's delivery decisions depend only on the
    /// seed. `None` for the ungoverned workload, which runs over the
    /// fleet's built-in perfect channel.
    pub fn channel(self, seed: u64) -> Option<SharedMedium> {
        if !self.governed() {
            return None;
        }
        let config = DsrcConfig {
            loss_model: LossModel::GilbertElliott(GilbertElliott::from_loss_rate(0.10)),
            corruption_probability: 0.01,
            ..DsrcConfig::default()
        };
        Some(
            SharedMedium::new(DsrcChannel::new(config))
                .with_seed(seed ^ CHANNEL_SEED_SALT)
                .with_arq(ArqConfig::default()),
        )
    }

    /// The governor policy and configuration of the governed workloads.
    pub fn governor(self) -> (BandwidthGovernor, GovernorConfig) {
        let config = GovernorConfig {
            delta_encode: true,
            keyframe_every: 3,
            features: self.features(),
            ..GovernorConfig::default()
        };
        let policy = BandwidthGovernor::new(RoiCategory::FullFrame);
        if self.features() {
            (policy.with_features(), config)
        } else {
            (policy, config)
        }
    }
}

/// A fleet run of the workload's first `steps` steps through the
/// program's entry points: `run` for the ungoverned workload,
/// `run_governed` otherwise, with every channel and governor call going
/// through the `probe`'s wrappers.
pub fn run_fleet(
    workload: Workload,
    sim: &FleetSimulation,
    pipeline: &CooperPipeline,
    seed: u64,
    steps: usize,
    probe: &mut FleetProbe,
) -> (Vec<FleetStepReport>, FleetStats) {
    let Some(mut channel) = workload.channel(seed) else {
        return sim.run(pipeline, steps);
    };
    let (mut policy, config) = workload.governor();
    let mut channel = ProbedChannel {
        inner: &mut channel,
        timed: probe.timed,
        stats: &mut probe.channel,
        log: &mut probe.deliveries,
    };
    let mut policy = ProbedGovernor {
        inner: &mut policy,
        timed: probe.timed,
        stats: &mut probe.governor,
        log: &mut probe.offers,
    };
    sim.run_governed(pipeline, steps, &mut channel, &mut policy, &config)
}
