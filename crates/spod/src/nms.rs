//! Non-maximum suppression over scored oriented boxes.
//!
//! Greedy and score-ordered, but each candidate is checked only against
//! the kept boxes in its 3×3 neighbourhood of a uniform bird's-eye-view
//! grid. The cell size is the input's *reach*: the largest center
//! distance at which two of its boxes can still conflict (see
//! [`cell_size`]). Pairs in non-adjacent cells are farther apart than
//! that, so skipping them drops no conflict, and since one conflict is
//! enough to suppress, the kept set is the brute-force loop's, bit for
//! bit.

use std::collections::HashMap;

use cooper_telemetry::names as telemetry_names;

use crate::detector::Detection;

/// Outward tolerance, in square metres, covering the BEV polygon
/// clipper's inside test, which accepts points up to 1e-12 m² of signed
/// area outside an edge. Overestimated a thousandfold; a box edge of
/// length `e` widens the reach by `CLIP_TOLERANCE / e`.
const CLIP_TOLERANCE: f64 = 1e-9;
/// Relative slack on the cell size: absorbs the rounding of the
/// center-to-cell division and of the corner and distance arithmetic.
const CELL_SLACK: f64 = 1.0 / 64.0;
/// Largest center coordinate, in cells, the grid indexes. Beyond it the
/// division's rounding could outgrow [`CELL_SLACK`], so the grid
/// collapses to one cell instead.
const MAX_CELLS: f64 = 4_294_967_296.0;

/// Greedy score-sorted non-maximum suppression using BEV IoU.
///
/// Detections are processed best-first; any detection whose BEV IoU with
/// an already-kept detection of the *same class* exceeds `iou_threshold`
/// is suppressed.
///
/// # Panics
///
/// Panics when `iou_threshold` is not in `[0, 1]`.
///
/// # Examples
///
/// ```
/// use cooper_geometry::{Obb3, Vec3};
/// use cooper_lidar_sim::ObjectClass;
/// use cooper_spod::{non_max_suppression, Detection};
///
/// let make = |x: f64, score: f32| Detection {
///     class: ObjectClass::Car,
///     obb: Obb3::new(Vec3::new(x, 0.0, 0.0), Vec3::new(4.5, 1.8, 1.5), 0.0),
///     score,
/// };
/// let kept = non_max_suppression(vec![make(0.0, 0.9), make(0.2, 0.7), make(20.0, 0.8)], 0.3);
/// assert_eq!(kept.len(), 2); // the 0.7 overlaps the 0.9 and is dropped
/// ```
pub fn non_max_suppression(detections: Vec<Detection>, iou_threshold: f64) -> Vec<Detection> {
    non_max_suppression_with_distance(detections, iou_threshold, 0.0)
}

/// Like [`non_max_suppression`], additionally suppressing same-class
/// detections whose BEV centers are within `min_center_distance ×
/// min(box lengths)` of a kept detection.
///
/// Regression scatter can place two boxes on the same object with low
/// mutual IoU; pure IoU suppression keeps both. Distance suppression
/// (scaled by object length so pedestrians are not over-merged) removes
/// such duplicates. `min_center_distance = 0` disables the extra rule.
///
/// Adds the number of polygon IoUs evaluated to the
/// `spod.nms.iou_evals` counter.
///
/// # Panics
///
/// Panics when `iou_threshold` is not in `[0, 1]` or
/// `min_center_distance` is negative.
pub fn non_max_suppression_with_distance(
    detections: Vec<Detection>,
    iou_threshold: f64,
    min_center_distance: f64,
) -> Vec<Detection> {
    let (kept, iou_evals) = suppress(detections, iou_threshold, min_center_distance);
    cooper_telemetry::counter_add(telemetry_names::SPOD_NMS_IOU_EVALS, iou_evals);
    kept
}

/// The grid-pruned greedy loop; returns the kept detections and the
/// number of polygon IoUs it evaluated.
fn suppress(
    mut detections: Vec<Detection>,
    iou_threshold: f64,
    min_center_distance: f64,
) -> (Vec<Detection>, u64) {
    assert!(
        (0.0..=1.0).contains(&iou_threshold),
        "IoU threshold must be in [0, 1]"
    );
    assert!(
        min_center_distance >= 0.0,
        "distance factor must be non-negative"
    );
    detections.sort_by(|a, b| b.score.total_cmp(&a.score));
    let cell = cell_size(&detections, min_center_distance);
    let mut grid: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
    let mut kept: Vec<Detection> = Vec::new();
    let mut iou_evals = 0u64;
    for det in detections {
        let (cx, cy) = cell_of(&det, cell);
        let neighbourhood = (-1..=1)
            .flat_map(|dx| (-1..=1).map(move |dy| (cx.saturating_add(dx), cy.saturating_add(dy))));
        let conflict = neighbourhood
            .filter_map(|key| grid.get(&key))
            .flatten()
            .any(|&i| {
                conflicts(
                    &kept[i],
                    &det,
                    iou_threshold,
                    min_center_distance,
                    &mut iou_evals,
                )
            });
        if !conflict {
            grid.entry((cx, cy)).or_default().push(kept.len());
            kept.push(det);
        }
    }
    (kept, iou_evals)
}

/// `true` when the kept `survivor` suppresses `det`: same class, and BEV
/// IoU above the threshold or centers closer than the distance rule.
fn conflicts(
    survivor: &Detection,
    det: &Detection,
    iou_threshold: f64,
    min_center_distance: f64,
    iou_evals: &mut u64,
) -> bool {
    if survivor.class != det.class {
        return false;
    }
    *iou_evals += 1;
    if survivor.obb.iou_bev(&det.obb) > iou_threshold {
        return true;
    }
    let scale = survivor.obb.size.x.min(det.obb.size.x);
    min_center_distance > 0.0
        && survivor.obb.center_distance_bev(&det.obb) < min_center_distance * scale
}

/// The grid's cell size: the input's reach plus [`CELL_SLACK`].
///
/// Two boxes whose centers are farther apart than the sum of their BEV
/// circumradii (each widened by the clipper's tolerance) have disjoint
/// footprints, so the polygon clip finds no intersection and their IoU
/// is exactly 0.0, which exceeds no threshold. The distance rule fires
/// only below `min_center_distance × min(lengths)`. The reach is the
/// larger of the two bounds over the whole input.
///
/// One case escapes the bound, and it lies in the clipper: when a corner
/// of one box sits within its 1e-12 tolerance strip along the *extended*
/// edge line of a distant box (edges collinear to ~1e-13 m), the clip
/// can return a sliver with an IoU of order 1e-12. The brute-force loop
/// suppresses on that sliver only when `iou_threshold` is below it, so
/// in practice only at 0.0.
///
/// Degenerate input (a zero or non-finite extent or center, or centers
/// beyond [`MAX_CELLS`]) gives an infinite cell: every box shares one
/// cell and the loop checks every kept box.
fn cell_size(detections: &[Detection], min_center_distance: f64) -> f64 {
    let mut reach = 0.0_f64;
    let mut extent = 0.0_f64;
    for det in detections {
        let (center, size) = (det.obb.center, det.obb.size);
        let (length, width) = (size.x.abs(), size.y.abs());
        let circumradius =
            0.5 * length.hypot(width) + CLIP_TOLERANCE / length + CLIP_TOLERANCE / width;
        if !(circumradius.is_finite() && center.x.is_finite() && center.y.is_finite()) {
            return f64::INFINITY;
        }
        reach = reach
            .max(2.0 * circumradius)
            .max(min_center_distance * length);
        extent = extent.max(center.x.abs()).max(center.y.abs());
    }
    let cell = reach * (1.0 + CELL_SLACK);
    if extent > cell * MAX_CELLS {
        f64::INFINITY
    } else {
        cell
    }
}

/// The grid cell holding `det`'s BEV center. Float-to-int `as` casts
/// saturate and map NaN to 0, so every input gives a valid cell.
fn cell_of(det: &Detection, cell: f64) -> (i64, i64) {
    let center = det.obb.center;
    (
        (center.x / cell).floor() as i64,
        (center.y / cell).floor() as i64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cooper_geometry::{Obb3, Vec3};
    use cooper_lidar_sim::ObjectClass;
    use proptest::prelude::*;

    fn det(class: ObjectClass, x: f64, y: f64, score: f32) -> Detection {
        Detection {
            class,
            obb: Obb3::new(Vec3::new(x, y, 0.0), Vec3::new(4.5, 1.8, 1.5), 0.0),
            score,
        }
    }

    /// The brute-force greedy loop the grid must reproduce: every
    /// candidate against every kept box.
    fn reference(
        mut detections: Vec<Detection>,
        iou_threshold: f64,
        min_center_distance: f64,
    ) -> Vec<Detection> {
        detections.sort_by(|a, b| b.score.total_cmp(&a.score));
        let mut kept: Vec<Detection> = Vec::new();
        'candidates: for det in detections {
            for survivor in &kept {
                if survivor.class != det.class {
                    continue;
                }
                if survivor.obb.iou_bev(&det.obb) > iou_threshold {
                    continue 'candidates;
                }
                let scale = survivor.obb.size.x.min(det.obb.size.x);
                if min_center_distance > 0.0
                    && survivor.obb.center_distance_bev(&det.obb) < min_center_distance * scale
                {
                    continue 'candidates;
                }
            }
            kept.push(det);
        }
        kept
    }

    /// Bitwise equality, so NaN fields compare equal to themselves.
    fn bits(dets: &[Detection]) -> Vec<String> {
        dets.iter()
            .map(|d| {
                let (c, s) = (d.obb.center, d.obb.size);
                let fields = [c.x, c.y, c.z, s.x, s.y, s.z, d.obb.yaw];
                let fields: Vec<u64> = fields.iter().map(|v| v.to_bits()).collect();
                format!("{:?} {fields:?} {}", d.class, d.score.to_bits())
            })
            .collect()
    }

    const CLASSES: [ObjectClass; 3] = [
        ObjectClass::Car,
        ObjectClass::Pedestrian,
        ObjectClass::Cyclist,
    ];

    /// A detection near one of a few cluster centers (some at negative
    /// coordinates, some on cell edges of a car-sized grid), sized
    /// from pedestrian to car. One draw in 24 gets a zero, overflowed
    /// or NaN size or a non-finite center, as `decode_box` can produce
    /// from extreme residuals.
    fn clustered_detection() -> impl Strategy<Value = Detection> {
        (
            (0usize..6, 0usize..3, 0usize..120),
            (-3.0..3.0f64, -3.0..3.0f64),
            (0.3..5.0f64, 0.4..2.0f64, -3.2..3.2f64),
            0.0..1.0f32,
        )
            .prop_map(|((cluster, class, odd), (dx, dy), (l, w, yaw), score)| {
                const CENTERS: [(f64, f64); 6] = [
                    (0.0, 0.0),
                    (-12.5, -7.0),
                    (4.9, -4.9),
                    (-30.0, 22.0),
                    (61.0, 0.5),
                    (9.8, 9.8),
                ];
                let (x, y) = CENTERS[cluster];
                let mut obb = Obb3::new(Vec3::new(x + dx, y + dy, -1.0), Vec3::new(l, w, 1.5), yaw);
                match odd {
                    0 => obb.size.x = f64::INFINITY,
                    1 => obb.size.y = f64::NAN,
                    2 => obb.size.x = 0.0,
                    3 => obb.center.x = f64::NEG_INFINITY,
                    4 => obb.center.y = f64::NAN,
                    _ => {}
                }
                Detection {
                    class: CLASSES[class],
                    obb,
                    score,
                }
            })
    }

    /// Clustered detections, all finite: what the grid path sees in
    /// practice.
    fn finite_detections() -> impl Strategy<Value = Vec<Detection>> {
        prop::collection::vec(clustered_detection(), 0..60).prop_map(|dets| {
            dets.into_iter()
                .filter(|d| d.obb.center.x.is_finite() && d.obb.center.y.is_finite())
                .filter(|d| d.obb.size.x.is_finite() && d.obb.size.y.is_finite())
                .filter(|d| d.obb.size.x > 0.0)
                .collect()
        })
    }

    /// `iou_threshold` at 0.0, inside (0, 1) or at 1.0.
    fn threshold() -> impl Strategy<Value = f64> {
        (0usize..4, 0.01..0.99f64).prop_map(|(pick, inner)| match pick {
            0 => 0.0,
            1 => 1.0,
            _ => inner,
        })
    }

    /// `min_center_distance` at 0 or positive, up to values where the
    /// distance rule, not the circumradius, sets the reach.
    fn distance() -> impl Strategy<Value = f64> {
        (prop::bool::ANY, 0.05..3.0f64).prop_map(|(off, d)| if off { 0.0 } else { d })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        fn grid_matches_reference_on_finite_input(
            dets in finite_detections(),
            thr in threshold(),
            dist in distance(),
        ) {
            let expected = bits(&reference(dets.clone(), thr, dist));
            let (kept, _) = suppress(dets, thr, dist);
            prop_assert_eq!(bits(&kept), expected);
        }

        fn grid_matches_reference_with_non_finite_boxes(
            dets in prop::collection::vec(clustered_detection(), 0..60),
            thr in threshold(),
            dist in distance(),
        ) {
            let expected = bits(&reference(dets.clone(), thr, dist));
            let (kept, _) = suppress(dets, thr, dist);
            prop_assert_eq!(bits(&kept), expected);
        }
    }

    #[test]
    fn far_apart_clusters_cost_no_cross_cluster_ious() {
        // Two identical 10-box clusters 500 m apart: only in-cluster
        // pairs are ever compared.
        let cluster = |x0: f64| -> Vec<Detection> {
            (0..10)
                .map(|i| {
                    det(
                        ObjectClass::Car,
                        x0 + i as f64 * 0.3,
                        0.0,
                        0.9 - i as f32 * 0.05,
                    )
                })
                .collect()
        };
        let (_, one) = suppress(cluster(0.0), 0.95, 0.0);
        let mut both = cluster(0.0);
        both.extend(cluster(500.0));
        let (kept, two) = suppress(both.clone(), 0.95, 0.0);
        assert_eq!(two, 2 * one);
        assert_eq!(bits(&kept), bits(&reference(both, 0.95, 0.0)));
    }

    #[test]
    fn clipper_tolerance_widens_the_reach() {
        // The clipper's 1e-12 m² inside tolerance spans 100 m across a
        // box 1e-14 m long, so a car 30 m away still gets a sliver of
        // IoU: the reference suppresses the thin box at threshold 0.
        let car = Detection {
            class: ObjectClass::Car,
            obb: Obb3::new(Vec3::new(0.0, 30.0, 0.0), Vec3::new(4.5, 1.8, 1.5), 0.3),
            score: 0.9,
        };
        let thin = Detection {
            class: ObjectClass::Car,
            obb: Obb3::new(Vec3::ZERO, Vec3::new(1e-14, 1.8, 1.5), 0.0),
            score: 0.5,
        };
        assert!(car.obb.iou_bev(&thin.obb) > 0.0);
        let expected = reference(vec![car, thin], 0.0, 0.0);
        assert_eq!(expected.len(), 1);
        let (kept, _) = suppress(vec![car, thin], 0.0, 0.0);
        assert_eq!(bits(&kept), bits(&expected));
    }

    #[test]
    fn degenerate_boxes_collapse_to_one_cell() {
        let mut tiny = det(ObjectClass::Car, 0.0, 0.0, 0.9);
        tiny.obb.size.x = 0.0;
        assert_eq!(cell_size(&[tiny], 0.0), f64::INFINITY);
        let far = det(ObjectClass::Car, 1e12, 0.0, 0.9);
        assert_eq!(cell_size(&[far], 0.0), f64::INFINITY);
        let car = det(ObjectClass::Car, 0.0, 0.0, 0.9);
        assert!(cell_size(&[car], 0.5) > car.obb.size.x.hypot(car.obb.size.y));
        assert_eq!(cell_of(&car, f64::INFINITY), (0, 0));
    }

    #[test]
    fn keeps_best_of_overlapping_cluster() {
        let kept = non_max_suppression(
            vec![
                det(ObjectClass::Car, 0.0, 0.0, 0.6),
                det(ObjectClass::Car, 0.3, 0.0, 0.9),
                det(ObjectClass::Car, -0.2, 0.1, 0.7),
            ],
            0.3,
        );
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].score, 0.9);
    }

    #[test]
    fn distant_detections_survive() {
        let kept = non_max_suppression(
            vec![
                det(ObjectClass::Car, 0.0, 0.0, 0.9),
                det(ObjectClass::Car, 10.0, 0.0, 0.8),
                det(ObjectClass::Car, 0.0, 10.0, 0.7),
            ],
            0.3,
        );
        assert_eq!(kept.len(), 3);
    }

    #[test]
    fn different_classes_do_not_suppress() {
        let kept = non_max_suppression(
            vec![
                det(ObjectClass::Car, 0.0, 0.0, 0.9),
                det(ObjectClass::Cyclist, 0.0, 0.0, 0.5),
            ],
            0.3,
        );
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn output_sorted_by_score() {
        let kept = non_max_suppression(
            vec![
                det(ObjectClass::Car, 0.0, 0.0, 0.5),
                det(ObjectClass::Car, 10.0, 0.0, 0.9),
                det(ObjectClass::Car, 20.0, 0.0, 0.7),
            ],
            0.3,
        );
        let scores: Vec<f32> = kept.iter().map(|d| d.score).collect();
        assert_eq!(scores, vec![0.9, 0.7, 0.5]);
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(non_max_suppression(vec![], 0.5).is_empty());
    }

    #[test]
    fn kept_set_is_conflict_free() {
        let mut dets = Vec::new();
        for i in 0..20 {
            dets.push(det(
                ObjectClass::Car,
                (i % 5) as f64 * 1.0,
                0.0,
                0.5 + (i as f32) * 0.01,
            ));
        }
        let kept = non_max_suppression(dets, 0.25);
        for i in 0..kept.len() {
            for j in (i + 1)..kept.len() {
                assert!(kept[i].obb.iou_bev(&kept[j].obb) <= 0.25);
            }
        }
    }

    #[test]
    #[should_panic(expected = "IoU threshold")]
    fn bad_threshold_panics() {
        let _ = non_max_suppression(vec![], 1.5);
    }
}
