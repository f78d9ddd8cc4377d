//! The fleet's exchange, reproduced outside the fleet loop from the
//! decisions a fleet run recorded.
//!
//! Each vehicle's scan and pose measurements come from the fleet's own
//! streams, and each receiver's inbox is rebuilt packet by packet the
//! way `FleetSimulation` builds, delivers and reconstructs it: v1
//! full-frame broadcasts on the ungoverned workload; on the governed
//! ones the background map, delta encoder (keyframe every 3), the ROI
//! and frame kind the governor chose, the channel's verdict, partial
//! salvage and the receiver's delta decoder. Passes over a fleet run
//! check what they reproduce against that run's reports
//! ([`check_receiver`]), so a drift between this copy and the fleet
//! fails the run rather than measuring different work.

use std::collections::{BTreeMap, BTreeSet};

use cooper_core::fleet::{FleetConfig, FleetSimulation, FleetStepReport, TransportDropReason};
use cooper_core::governor::GovernorVerdict;
use cooper_core::{CooperError, Delivery, ExchangePacket, GovernorConfig};
use cooper_geometry::{GpsFix, Pose};
use cooper_lidar_sim::{LidarScanner, PoseEstimate, World};
use cooper_pointcloud::roi::{extract_roi, RoiCategory, StaticMap};
use cooper_pointcloud::{DeltaDecoder, DeltaEncoder, FeatureFrame, FrameKind, PointCloud};
use cooper_spod::bev::BevMap;
use cooper_spod::{filter_bev_roi, SpodDetector};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layers::{FleetProbe, Trace};
use crate::workload::Workload;

pub const PREPARE: &str = "core.exchange.prepare";
pub const ENCODE: &str = "core.packet.encode";
pub const DECODE: &str = "core.packet.decode";

/// Salts of the fleet's transmit- and receive-side pose-measurement
/// streams, and below its per-(vehicle, step) stream-seed mixer, as
/// `cooper_core::fleet` derives them. If they drift, the reproduced
/// inboxes stop matching the fleet's reports and the run fails.
const TX_MEASURE_STREAM: u64 = 0x7A5E_11DA_7E00_0001;
const RX_MEASURE_STREAM: u64 = 0x7A5E_11DA_7E00_0002;

fn stream_seed(seed: u64, vehicle_id: u32, step: usize, salt: u64) -> u64 {
    let mut z = seed
        ^ salt
        ^ u64::from(vehicle_id).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (step as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn origin() -> GpsFix {
    FleetConfig::default().origin
}

/// The ROIs a governed sender offers, in the fleet's menu order.
const ROIS: [RoiCategory; 3] = [
    RoiCategory::FullFrame,
    RoiCategory::FrontFov120,
    RoiCategory::ForwardOneWay,
];

/// One vehicle's view of one step: its scan, the pose estimate it
/// transmits and the one it fuses with.
pub struct VehicleInput {
    pub id: u32,
    pub pose: Pose,
    pub scan: PointCloud,
    pub tx_estimate: PoseEstimate,
    pub rx_estimate: PoseEstimate,
}

/// Scans vehicle `idx` at `step` and measures its pose, with the
/// fleet's own seeds.
pub fn vehicle_input(
    sim: &FleetSimulation,
    world: &World,
    idx: usize,
    step: usize,
    seed: u64,
) -> VehicleInput {
    let v = &sim.vehicles()[idx];
    let pose = v.pose_at(step);
    let scan_seed = seed ^ ((step as u64) << 24) ^ idx as u64;
    let scan = LidarScanner::new(v.beams.clone()).scan(world, &pose, scan_seed);
    let model = FleetConfig::default().sensor_model;
    let measure = |salt| {
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, v.id, step, salt));
        model.measure(&pose, &origin(), &mut rng)
    };
    VehicleInput {
        id: v.id,
        pose,
        tx_estimate: measure(TX_MEASURE_STREAM),
        rx_estimate: measure(RX_MEASURE_STREAM),
        scan,
    }
}

/// One packet of a receiver's inbox, and whether it is a delta
/// reconstruction spanning two capture instants (the consistency guard
/// skips its free-space sweep for those, as the fleet does).
pub struct Received {
    pub packet: ExchangePacket,
    pub composite: bool,
}

/// A receiver's inbox for one step and the wire bytes that reached it.
#[derive(Default)]
pub struct Inbox {
    pub packets: Vec<Received>,
    pub bytes: usize,
}

/// A governed sender's codec state, carried across steps.
struct Sender {
    map: StaticMap,
    enc: DeltaEncoder,
}

/// A governed sender's content for one step, and the packets built
/// from it so far.
struct SenderFrame {
    keyframe: PointCloud,
    delta: PointCloud,
    features: Vec<(RoiCategory, FeatureFrame)>,
    packets: Vec<((RoiCategory, FrameKind), ExchangePacket)>,
}

/// The fleet's exchange for one workload, advanced one step at a time.
pub struct Exchange<'a> {
    workload: Workload,
    trust: bool,
    governor: GovernorConfig,
    probe: &'a FleetProbe,
    next_offer: usize,
    next_delivery: usize,
    senders: Vec<Sender>,
    decoders: Vec<BTreeMap<u32, DeltaDecoder>>,
}

impl<'a> Exchange<'a> {
    /// The exchange of a fleet of `vehicles`, following the decisions
    /// `probe` recorded over a run from step 0.
    pub fn new(workload: Workload, vehicles: usize, probe: &'a FleetProbe) -> Self {
        let (_, governor) = workload.governor();
        Exchange {
            workload,
            trust: workload.guarded(),
            senders: (0..vehicles)
                .map(|_| Sender {
                    map: StaticMap::new(governor.grid, governor.static_threshold),
                    enc: DeltaEncoder::new(governor.grid, governor.keyframe_every),
                })
                .collect(),
            decoders: vec![BTreeMap::new(); vehicles],
            governor,
            probe,
            next_offer: 0,
            next_delivery: 0,
        }
    }

    /// Every receiver's inbox for `step`, which must follow the last
    /// step this exchange built. `bevs` holds each sender's own BEV map
    /// on the feature workload and is empty otherwise.
    pub fn step(
        &mut self,
        step: usize,
        inputs: &[VehicleInput],
        bevs: &[BevMap],
        detector: &SpodDetector,
        trace: &mut Trace,
    ) -> Result<Vec<Inbox>, String> {
        if self.workload.governed() {
            self.governed(step, inputs, bevs, detector, trace)
        } else {
            Ok(self.ungoverned(step, inputs, trace))
        }
    }

    /// Every in-range sender's v1 broadcast of its ROI, delivered whole
    /// over the perfect channel.
    fn ungoverned(&self, step: usize, inputs: &[VehicleInput], trace: &mut Trace) -> Vec<Inbox> {
        let roi = FleetConfig::default().roi;
        let packets: Vec<ExchangePacket> = inputs
            .iter()
            .map(|v| {
                let packet = trace.time(ENCODE, || {
                    let built = ExchangePacket::build(
                        v.id,
                        step as u32,
                        &extract_roi(&v.scan, roi),
                        v.tx_estimate,
                    );
                    finalize(self.trust, built)
                });
                count_encode(trace, &packet, "v1_frames");
                packet
            })
            .collect();
        (0..inputs.len())
            .map(|i| {
                let mut inbox = Inbox::default();
                for j in senders_of(i, inputs) {
                    inbox.bytes += packets[j].wire_size();
                    trace.count("core.packet.decode.bytes", packets[j].wire_size() as u64);
                    inbox.packets.push(Received {
                        packet: packets[j].clone(),
                        composite: false,
                    });
                }
                inbox
            })
            .collect()
    }

    fn governed(
        &mut self,
        step: usize,
        inputs: &[VehicleInput],
        bevs: &[BevMap],
        detector: &SpodDetector,
        trace: &mut Trace,
    ) -> Result<Vec<Inbox>, String> {
        assert!(
            self.governor.delta_encode,
            "governed workloads delta-encode"
        );
        let grid = &detector.config().voxel_grid;
        let mut frames: Vec<SenderFrame> = Vec::with_capacity(inputs.len());
        let trust = self.trust;
        for (j, (v, sender)) in inputs.iter().zip(&mut self.senders).enumerate() {
            let mut frame = trace.time(PREPARE, || {
                sender.map.observe(&v.scan);
                let keyframe = sender.map.subtract_background(&v.scan);
                let delta = sender.enc.novel_points(&keyframe);
                if sender.enc.keyframe_due() {
                    sender.enc.note_keyframe(&keyframe);
                } else {
                    sender.enc.note_delta();
                }
                let features = match bevs.get(j) {
                    Some(bev) => ROIS
                        .iter()
                        .map(|&roi| (roi, filter_bev_roi(bev, grid, roi).to_feature_frame()))
                        .collect(),
                    None => Vec::new(),
                };
                SenderFrame {
                    keyframe,
                    delta,
                    features,
                    packets: Vec::new(),
                }
            });
            trace.count(
                "core.exchange.prepare.delta_points",
                frame.delta.len() as u64,
            );
            // The fleet builds the whole keyframe once per sender and
            // step to catch a broken pose, and sends that packet when the
            // full-frame keyframe is chosen.
            let probe = trace.time(ENCODE, || {
                let built = ExchangePacket::build_v2(
                    v.id,
                    step as u32,
                    &frame.keyframe,
                    v.tx_estimate,
                    FrameKind::Keyframe,
                    true,
                );
                finalize(trust, built)
            });
            count_encode(trace, &probe, "keyframe_frames");
            frame
                .packets
                .push(((RoiCategory::FullFrame, FrameKind::Keyframe), probe));
            frames.push(frame);
        }

        let mut inboxes: Vec<Inbox> = inputs.iter().map(|_| Inbox::default()).collect();
        while let Some(&((offer_step, from, to), verdict)) = self.probe.offers.get(self.next_offer)
        {
            if offer_step != step {
                break;
            }
            self.next_offer += 1;
            let GovernorVerdict::Send(chosen) = verdict else {
                continue;
            };
            let (i, j) = (index_of(inputs, to)?, index_of(inputs, from)?);
            let packet = self.packet(
                &mut frames[j],
                &inputs[j],
                step,
                chosen.roi,
                chosen.kind,
                trace,
            );
            let Some(&(key, delivery)) = self.probe.deliveries.get(self.next_delivery) else {
                return Err(format!(
                    "no channel record for transfer {from}->{to} at step {step}"
                ));
            };
            if key != (step, from, to) {
                return Err(format!(
                    "channel record {key:?} out of step with the governor's ({step}, {from}, {to})"
                ));
            }
            self.next_delivery += 1;
            let inbox = &mut inboxes[i];
            let decoders = &mut self.decoders[i];
            let (arrived, bytes) = match delivery {
                Delivery::Delivered => {
                    if self.trust && packet.verify_integrity().is_err() {
                        // Bytes burned on the air, frame discarded.
                        inbox.bytes += chosen.wire_bytes;
                        continue;
                    }
                    let arrived = trace.time(DECODE, || reconstruct(decoders, from, &packet));
                    (arrived, chosen.wire_bytes)
                }
                Delivery::Partial {
                    delivered_bytes, ..
                } => {
                    let arrived = trace.time(DECODE, || {
                        let wire = packet.to_bytes();
                        let cut = delivered_bytes.min(wire.len());
                        ExchangePacket::from_partial_bytes(&wire[..cut])
                            .and_then(|(prefix, _)| reconstruct(decoders, from, &prefix))
                    });
                    (arrived, delivered_bytes)
                }
                Delivery::Dropped | Delivery::Corrupted | Delivery::DeadlineExceeded => continue,
            };
            // A frame that fails to reconstruct is dropped and its bytes
            // go uncounted, as in the fleet (`SalvageFailed`).
            if let Ok((packet, composite)) = arrived {
                inbox.bytes += bytes;
                trace.count("core.packet.decode.bytes", bytes as u64);
                inbox.packets.push(Received { packet, composite });
            }
        }
        Ok(inboxes)
    }

    /// The packet of `chosen` ROI and kind for sender `v`, built once
    /// per step like the fleet's lazy per-candidate cache.
    fn packet(
        &self,
        frame: &mut SenderFrame,
        v: &VehicleInput,
        step: usize,
        roi: RoiCategory,
        kind: FrameKind,
        trace: &mut Trace,
    ) -> ExchangePacket {
        if let Some((_, packet)) = frame.packets.iter().find(|(slot, _)| *slot == (roi, kind)) {
            return packet.clone();
        }
        let packet = trace.time(ENCODE, || {
            let built = match kind {
                FrameKind::Features => {
                    let (_, features) = frame
                        .features
                        .iter()
                        .find(|(r, _)| *r == roi)
                        .expect("feature candidates are offered only on the feature workload");
                    ExchangePacket::build_features(v.id, step as u32, features, v.tx_estimate)
                }
                FrameKind::Keyframe | FrameKind::Delta => {
                    let content = if kind == FrameKind::Keyframe {
                        &frame.keyframe
                    } else {
                        &frame.delta
                    };
                    ExchangePacket::build_v2(
                        v.id,
                        step as u32,
                        &extract_roi(content, roi),
                        v.tx_estimate,
                        kind,
                        true,
                    )
                }
            };
            finalize(self.trust, built)
        });
        let kind_name = match kind {
            FrameKind::Keyframe => "keyframe_frames",
            FrameKind::Delta => "delta_frames",
            FrameKind::Features => "v3_frames",
        };
        count_encode(trace, &packet, kind_name);
        frame.packets.push(((roi, kind), packet.clone()));
        packet
    }
}

/// Adds the CRC trailer the trust layer puts on every frame.
fn finalize(trust: bool, built: Result<ExchangePacket, CooperError>) -> ExchangePacket {
    let built = if trust {
        built.and_then(|p| p.with_integrity())
    } else {
        built
    };
    built.expect("packets of finite poses encode")
}

fn count_encode(trace: &mut Trace, packet: &ExchangePacket, kind: &str) {
    trace.count("core.packet.encode.bytes", packet.wire_size() as u64);
    trace.count(&format!("core.packet.encode.{kind}"), 1);
}

/// The fleet's receiver-side reconstruction: v1 and v3 frames pass
/// through; v2 frames run through the receiver's per-sender delta
/// decoder and are re-wrapped as self-contained packets.
fn reconstruct(
    decoders: &mut BTreeMap<u32, DeltaDecoder>,
    sender: u32,
    packet: &ExchangePacket,
) -> Result<(ExchangePacket, bool), CooperError> {
    let info = packet.frame_info()?;
    if info.version != 2 {
        return Ok((packet.clone(), false));
    }
    let cloud = decoders
        .entry(sender)
        .or_default()
        .decode_next(packet.payload())?;
    Ok((packet.with_cloud(&cloud)?, info.kind == FrameKind::Delta))
}

fn index_of(inputs: &[VehicleInput], id: u32) -> Result<usize, String> {
    inputs
        .iter()
        .position(|v| v.id == id)
        .ok_or_else(|| format!("recorded transfer names unknown vehicle {id}"))
}

/// Indices of the senders within radio range of receiver `i`.
pub fn senders_of(i: usize, inputs: &[VehicleInput]) -> Vec<usize> {
    let range = FleetConfig::default().comms_range_m;
    (0..inputs.len())
        .filter(|&j| j != i && inputs[i].pose.delta_d(&inputs[j].pose) <= range)
        .collect()
}

/// What a pass reproduced for one receiver at one step.
pub struct Reproduced {
    pub id: u32,
    pub bytes: usize,
    pub cooperative_detections: usize,
    /// Ego-only detections, when the pass ran them.
    pub single_detections: Option<usize>,
    /// Senders the consistency guard rejected.
    pub consistency_rejected: BTreeSet<u32>,
    /// Senders the alignment guard rejected, when the pass ran it.
    pub alignment_rejected: Option<BTreeSet<u32>>,
}

/// Checks a reproduced receiver-step against the fleet run's report of
/// the same step.
pub fn check_receiver(report: &FleetStepReport, r: &Reproduced) -> Result<(), String> {
    let fleet = report
        .per_vehicle
        .iter()
        .find(|v| v.vehicle_id == r.id)
        .ok_or_else(|| format!("step {} reports no vehicle {}", report.step, r.id))?;
    let dropped = |pick: fn(&TransportDropReason) -> bool| -> BTreeSet<u32> {
        report
            .transport_drops
            .iter()
            .filter(|d| d.to == r.id && pick(&d.reason))
            .map(|d| d.from)
            .collect()
    };
    let consistency = dropped(|d| matches!(d, TransportDropReason::ConsistencyRejected { .. }));
    let alignment = dropped(|d| matches!(d, TransportDropReason::AlignmentRejected { .. }));
    let mismatch = |what: &str, ours: String, fleet: String| {
        Err(format!(
            "step {} vehicle {}: reproduced {what} {ours} but the fleet reports {fleet}",
            report.step, r.id
        ))
    };
    if r.bytes != fleet.bytes_received {
        return mismatch(
            "bytes",
            r.bytes.to_string(),
            fleet.bytes_received.to_string(),
        );
    }
    if r.consistency_rejected != consistency {
        return mismatch(
            "consistency rejections",
            format!("{:?}", r.consistency_rejected),
            format!("{consistency:?}"),
        );
    }
    if r.alignment_rejected
        .as_ref()
        .is_some_and(|ours| *ours != alignment)
    {
        return mismatch(
            "alignment rejections",
            format!("{:?}", r.alignment_rejected),
            format!("{alignment:?}"),
        );
    }
    if r.cooperative_detections != fleet.cooperative_detections {
        return mismatch(
            "cooperative detections",
            r.cooperative_detections.to_string(),
            fleet.cooperative_detections.to_string(),
        );
    }
    if r.single_detections
        .is_some_and(|n| n != fleet.single_detections)
    {
        return mismatch(
            "ego detections",
            format!("{:?}", r.single_detections),
            fleet.single_detections.to_string(),
        );
    }
    Ok(())
}
