"""Pixel metrics, object matching, losses, and report serialization."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinkseg.labeling import LabelGrid, components_from_mask
from sinkseg.metrics import (
    DEFAULT_THRESHOLDS,
    LossValue,
    MetricsReport,
    PixelConfusion,
    bce_loss,
    combined_loss,
    detection_curve,
    dice_loss,
    evaluate_masks,
    object_match,
    pixel_confusion,
    report_to_csv,
    report_to_json,
)
from sinkseg.raster import BinaryMask


def mask(values):
    return BinaryMask(np.asarray(values, dtype=bool))


def grid(values):
    """The components of a mask given as nested 0/1 rows."""
    return components_from_mask(mask(values))


def pixel_sets(g: LabelGrid) -> dict[int, frozenset]:
    """Oracle input: each component of *g* as its set of (row, col) pixels."""
    return {
        k: frozenset(map(tuple, np.argwhere(g.labels == k).tolist()))
        for k in range(1, len(g) + 1)
    }


def iou(a: frozenset, b: frozenset) -> float:
    inter = len(a & b)
    return inter / len(a | b) if inter else 0.0


def max_matching_oracle(preds, gts, threshold):
    """Maximum bipartite matching via augmenting paths (independent of greedy)."""
    pred_sets, gt_sets = pixel_sets(preds), pixel_sets(gts)
    adjacency = {
        pid: [gid for gid, g in gt_sets.items() if iou(p, g) >= threshold]
        for pid, p in pred_sets.items()
    }
    match_of_gt = {}

    def augment(pid, seen):
        for gid in adjacency[pid]:
            if gid in seen:
                continue
            seen.add(gid)
            if gid not in match_of_gt or augment(match_of_gt[gid], seen):
                match_of_gt[gid] = pid
                return True
        return False

    return sum(augment(pid, set()) for pid in pred_sets)


def pairwise_match(preds, gts, threshold):
    """Oracle: intersect every (pred, gt) pair, then match greedily as object_match does."""
    pred_sets, gt_sets = pixel_sets(preds), pixel_sets(gts)
    candidates = []
    for pid, p in pred_sets.items():
        for gid, g in gt_sets.items():
            pair_iou = iou(p, g)
            if pair_iou >= threshold:
                candidates.append((-pair_iou, pid, gid, pair_iou))
    candidates.sort()
    used_pred, used_gt, pairs = set(), set(), []
    for _, pid, gid, pair_iou in candidates:
        if pid in used_pred or gid in used_gt:
            continue
        used_pred.add(pid)
        used_gt.add(gid)
        pairs.append((pid, gid, pair_iou))
    tp = len(pairs)
    return tp, len(pred_sets) - tp, len(gt_sets) - tp, pairs


@st.composite
def matching_cases(draw):
    """Two random masks of one shape, and ascending IoU thresholds."""
    seed = draw(st.integers(0, 2**31))
    shape = draw(st.tuples(st.integers(1, 12), st.integers(1, 12)))
    rng = np.random.default_rng(seed)
    pred = rng.random(shape) < draw(st.sampled_from([0.0, 0.2, 0.4, 0.6, 1.0]))
    gt = rng.random(shape) < draw(st.sampled_from([0.0, 0.2, 0.4, 0.6, 1.0]))
    if draw(st.booleans()):
        gt = gt | pred  # nested objects: every prediction overlaps a truth
    thresholds = draw(
        st.lists(
            st.sampled_from([0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1e-9, 1 - 1e-9])
            | st.floats(0.01, 0.99),
            max_size=6,
        )
    )
    return grid(pred), grid(gt), sorted(thresholds)


class TestPixelConfusion:
    def test_identical_masks(self):
        m = np.zeros((5, 5), dtype=bool)
        m[1:3, 0:5] = True
        c = pixel_confusion(mask(m), mask(m))
        assert (c.tp, c.tn, c.fp, c.fn) == (10, 15, 0, 0)

    def test_disjoint_masks(self):
        c = pixel_confusion(mask(np.ones((2, 5))), mask(np.zeros((2, 5))))
        assert (c.tp, c.tn, c.fp, c.fn) == (0, 0, 10, 0)

    def test_shifted_blocks(self):
        pred = np.zeros((4, 4), dtype=bool)
        gt = np.zeros((4, 4), dtype=bool)
        pred[0:2, 0:2] = True
        gt[0:2, 1:3] = True
        c = pixel_confusion(mask(pred), mask(gt))
        assert (c.tp, c.fp, c.fn, c.tn) == (2, 2, 2, 10)

    def test_ignore_mask_excludes_pixels(self):
        pred = np.array([[1, 1, 0, 0]], dtype=bool)
        gt = np.array([[1, 0, 0, 0]], dtype=bool)
        ignore = np.array([[0, 1, 0, 0]], dtype=bool)
        c = pixel_confusion(mask(pred), mask(gt), mask(ignore))
        assert (c.tp, c.tn, c.fp, c.fn) == (1, 2, 0, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="pred/gt dimension mismatch"):
            pixel_confusion(mask(np.zeros((2, 2))), mask(np.zeros((3, 3))))
        with pytest.raises(ValueError, match="ignore mask dimension mismatch"):
            pixel_confusion(
                mask(np.zeros((2, 2))), mask(np.zeros((2, 2))), mask(np.zeros((4, 4)))
            )

    def test_counts_must_be_non_negative(self):
        with pytest.raises(ValueError, match="fp"):
            PixelConfusion(tp=1, tn=1, fp=-1, fn=0)

    def test_bool_is_not_a_count(self):
        for flag in (True, False, np.True_):
            with pytest.raises(ValueError, match="tp must be a non-negative integer"):
                PixelConfusion(tp=flag, tn=0, fp=0, fn=0)


class TestMetricValues:
    def test_shifted_blocks_exact_values(self):
        pred = np.zeros((4, 4), dtype=bool)
        gt = np.zeros((4, 4), dtype=bool)
        pred[0:2, 0:2] = True
        gt[0:2, 1:3] = True
        r = MetricsReport(pixel_confusion(mask(pred), mask(gt)))
        assert r.precision == 0.5
        assert r.recall == 0.5
        assert r.f1 == 0.5
        assert r.iou == 1 / 3
        assert r.accuracy == 0.75

    def test_perfect_prediction(self):
        r = MetricsReport(PixelConfusion(tp=7, tn=3, fp=0, fn=0))
        assert (r.accuracy, r.precision, r.recall, r.f1, r.iou) == (1.0,) * 5

    def test_both_empty_is_perfect(self):
        r = MetricsReport(PixelConfusion(tp=0, tn=16, fp=0, fn=0))
        assert (r.accuracy, r.precision, r.recall, r.f1, r.iou) == (1.0,) * 5

    def test_empty_prediction_against_nonempty_gt(self):
        r = MetricsReport(PixelConfusion(tp=0, tn=10, fp=0, fn=6))
        assert r.precision == 0.0
        assert r.recall == 0.0
        assert r.f1 == 0.0 and r.iou == 0.0

    def test_nonempty_prediction_against_empty_gt(self):
        r = MetricsReport(PixelConfusion(tp=0, tn=10, fp=6, fn=0))
        assert r.precision == 0.0
        assert r.recall == 0.0

    def test_zero_total_area(self):
        r = MetricsReport(PixelConfusion(tp=0, tn=0, fp=0, fn=0))
        assert r.accuracy == 1.0

    def test_f1_iou_identity_on_random_counts(self, rng):
        for _ in range(1000):
            tp, fp, fn = (int(v) for v in rng.integers(0, 500, size=3))
            r = MetricsReport(PixelConfusion(tp=tp, tn=5, fp=fp, fn=fn))
            assert math.isclose(r.f1, 2 * r.iou / (1 + r.iou), rel_tol=0, abs_tol=1e-12)

    def test_swapping_pred_and_gt_swaps_precision_and_recall(self, rng):
        for _ in range(20):
            a = mask(rng.random((12, 12)) > 0.6)
            b = mask(rng.random((12, 12)) > 0.6)
            fwd = MetricsReport(pixel_confusion(a, b))
            rev = MetricsReport(pixel_confusion(b, a))
            assert fwd.precision == rev.recall and fwd.recall == rev.precision
            assert fwd.f1 == rev.f1 and fwd.iou == rev.iou and fwd.accuracy == rev.accuracy


class TestObjectMatching:
    def test_component_iou(self):
        a = grid([[1, 1, 1, 0]])
        b = grid([[0, 1, 1, 1]])
        assert object_match(a, b, 0.5) == (1, 0, 0, [(1, 1, 0.5)])
        assert object_match(a, grid([[0, 0, 0, 1]]), 0.01) == (0, 1, 1, [])

    def test_identical_sets_match_fully(self):
        g = grid([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 1]])
        tp, fp, fn, pairs = object_match(g, g, 0.5)
        assert (tp, fp, fn) == (2, 0, 0)
        assert pairs == [(1, 1, 1.0), (2, 2, 1.0)]

    def test_one_prediction_cannot_match_two_truths(self):
        pred = grid([[1, 1, 1, 1, 1]])
        gts = grid([[1, 1, 0, 1, 1]])
        tp, fp, fn, pairs = object_match(pred, gts, 0.3)
        assert (tp, fp, fn) == (1, 0, 1)
        assert len(pairs) == 1

    def test_threshold_is_inclusive(self):
        a = grid([[1, 1, 1, 0]])
        b = grid([[0, 1, 1, 1]])  # IoU exactly 0.5
        assert object_match(a, b, 0.5)[0] == 1
        assert object_match(a, b, 0.51)[0] == 0

    def test_equal_iou_tie_broken_by_lower_id(self):
        gt = grid([[1, 1, 1, 1, 1]])
        preds = grid([[1, 0, 0, 0, 1]])  # two single pixels, each IoU 1/5
        tp, fp, fn, pairs = object_match(preds, gt, 0.2)
        assert (tp, fp, fn) == (1, 1, 0)
        assert pairs == [(1, 1, 0.2)]
        assert object_match(gt, preds, 0.2)[3] == [(1, 1, 0.2)]

    def test_invalid_threshold(self):
        empty = grid([[0]])
        with pytest.raises(ValueError, match="iou_threshold"):
            object_match(empty, empty, 0.0)
        with pytest.raises(ValueError, match="iou_threshold"):
            object_match(empty, empty, 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="pred/gt dimension mismatch"):
            object_match(grid([[1, 0]]), grid([[1], [0]]), 0.5)

    def make_separated_scene(self, rng, cells=4, cell=10):
        """One ground-truth blob per grid cell; prediction shifted within it."""
        pred = np.zeros((cells * cell, cells * cell), dtype=bool)
        gt = np.zeros_like(pred)
        for cy in range(cells):
            for cx in range(cells):
                if rng.random() < 0.25:
                    continue
                r0, c0 = cy * cell + 2, cx * cell + 2
                h, w = (int(v) for v in rng.integers(2, 5, size=2))
                dr, dc = (int(v) for v in rng.integers(0, 3, size=2))
                gt[r0 : r0 + h, c0 : c0 + w] = True
                pred[r0 + dr : r0 + dr + h, c0 + dc : c0 + dc + w] = True
        return grid(pred), grid(gt)

    def test_greedy_matches_maximum_matching_on_separated_scenes(self, rng):
        for _ in range(100):
            preds, gts = self.make_separated_scene(rng)
            for threshold in (0.1, 0.3, 0.5, 0.7):
                tp, fp, fn, _ = object_match(preds, gts, threshold)
                assert tp == max_matching_oracle(preds, gts, threshold)
                assert fp == len(preds) - tp and fn == len(gts) - tp

    def test_tp_monotone_non_increasing_in_threshold(self, rng):
        for _ in range(50):
            preds, gts = self.make_separated_scene(rng, cells=3)
            tps = [object_match(preds, gts, t)[0] for t in DEFAULT_THRESHOLDS]
            assert tps == sorted(tps, reverse=True)


class TestPairwiseOracle:
    @settings(max_examples=400, deadline=None)
    @given(case=matching_cases())
    def test_object_match_and_curve_equal_all_pairs_matching(self, case):
        preds, gts, thresholds = case
        expected = [pairwise_match(preds, gts, t) for t in thresholds]
        assert [object_match(preds, gts, t) for t in thresholds] == expected
        assert detection_curve(preds, gts, thresholds) == [
            (t, tp, fp, fn) for t, (tp, fp, fn, _) in zip(thresholds, expected)
        ]
        for t, (tp, *_) in zip(thresholds, expected):
            best = max_matching_oracle(preds, gts, t)
            # above IoU 1/2 each component has at most one partner, so greedy is optimal
            assert tp == best if t > 0.5 else tp <= best


class TestDetectionCurve:
    def test_perfect_detection_at_every_threshold(self):
        g = grid([[1, 1, 0, 0, 0], [0, 0, 0, 1, 1]])
        rows = detection_curve(g, g)
        assert [t for t, *_ in rows] == list(DEFAULT_THRESHOLDS)
        assert all((tp, fp, fn) == (2, 0, 0) for _, tp, fp, fn in rows)

    def test_partial_overlap_drops_at_its_iou(self):
        pred = grid([[1, 1], [0, 0]])
        gt = grid([[0, 1], [0, 1]])  # IoU = 1/3
        rows = detection_curve(pred, gt)
        for t, tp, fp, fn in rows:
            if t <= 0.3:
                assert (tp, fp, fn) == (1, 0, 0)
            else:
                assert (tp, fp, fn) == (0, 1, 1)

    def test_unsorted_thresholds_rejected(self):
        empty = grid([[0]])
        with pytest.raises(ValueError, match="sorted ascending"):
            detection_curve(empty, empty, thresholds=(0.5, 0.3))

    def test_threshold_range_and_empty_thresholds(self):
        g = grid([[1]])
        for bad in ((0.0, 0.5), (0.5, 1.0), (float("nan"),)):
            with pytest.raises(ValueError, match="iou_threshold"):
                detection_curve(g, g, thresholds=bad)
        assert detection_curve(g, g, thresholds=()) == []


class TestMaskObjectRows:
    """``evaluate_masks`` scores the objects of two masks."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        shape=st.one_of(
            st.tuples(st.integers(1, 24), st.integers(1, 24)),
            st.tuples(st.just(1), st.integers(1, 40)),
        ),
        pred_density=st.sampled_from([0.0, 0.2, 0.4, 0.7]),
        gt_density=st.sampled_from([0.0, 0.2, 0.4, 0.7]),
        ignore_density=st.sampled_from([0.0, 0.3, 1.0]),
        thresholds=st.sampled_from([DEFAULT_THRESHOLDS, (0.25, 0.5, 0.75), ()]),
    )
    def test_object_rows_equal_detection_curve_of_components(
        self, seed, shape, pred_density, gt_density, ignore_density, thresholds
    ):
        rng = np.random.default_rng(seed)
        pred = mask(rng.random(shape) < pred_density)
        gt = mask(rng.random(shape) < gt_density)
        ignore = mask(rng.random(shape) < ignore_density)
        expected = []
        for t in thresholds:
            tp, fp, fn, _ = pairwise_match(grid(pred.values), grid(gt.values), t)
            expected.append((t, tp, fp, fn))
        expected = tuple(expected)
        assert evaluate_masks(pred, gt, ignore, thresholds).object_rows == expected
        assert evaluate_masks(pred, gt, None, thresholds).object_rows == expected

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        shape=st.tuples(st.integers(1, 20), st.integers(1, 20)),
        pred_density=st.sampled_from([0.0, 0.2, 0.4, 0.7]),
        gt_density=st.sampled_from([0.0, 0.2, 0.4, 0.7]),
        ignore_density=st.sampled_from([0.0, 0.3]),
    )
    def test_report_is_the_same_under_the_symmetries_of_the_square(
        self, seed, shape, pred_density, gt_density, ignore_density
    ):
        """Turning or mirroring both masks (and the ignore mask) changes no
        count: components and their overlaps do not depend on scan order."""
        rng = np.random.default_rng(seed)
        pred, gt, ignore = (rng.random(shape) < density
                            for density in (pred_density, gt_density, ignore_density))
        want = evaluate_masks(mask(pred), mask(gt), mask(ignore))
        for turns in range(4):
            for flip in (False, True):
                turned = [np.rot90(m, turns) for m in (pred, gt, ignore)]
                moved = [m.T if flip else m for m in turned]
                assert evaluate_masks(*map(mask, moved)) == want, (turns, flip)

    def test_diagonal_touch_is_one_object(self):
        pred = np.eye(3, dtype=bool)  # one 8-connected chain
        gt = np.zeros((3, 3), dtype=bool)
        gt[0, 0] = gt[2, 2] = True  # two objects, each 1/3 of the chain
        rows = evaluate_masks(mask(pred), mask(gt), thresholds=(0.3, 0.4)).object_rows
        assert rows == ((0.3, 1, 0, 1), (0.4, 0, 1, 2))

    def test_thresholds_checked(self):
        empty = mask(np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError, match="sorted ascending"):
            evaluate_masks(empty, empty, thresholds=(0.5, 0.3))
        with pytest.raises(ValueError, match="iou_threshold"):
            evaluate_masks(empty, empty, thresholds=(1.0,))


class TestLosses:
    def test_bce_of_uniform_half_is_ln2(self):
        probs = np.full((10, 10), 0.5)
        gt = mask(np.zeros((10, 10)))
        assert math.isclose(bce_loss(probs, gt), math.log(2), rel_tol=0, abs_tol=1e-12)

    def test_bce_of_perfect_prediction_is_tiny(self):
        gt = np.zeros((8, 8), dtype=bool)
        gt[2:5, 2:5] = True
        loss = bce_loss(gt.astype(np.float64), mask(gt))
        assert 0.0 < loss < 1e-6

    def test_bce_single_pixel_value(self):
        loss = bce_loss(np.array([[0.25]]), mask([[1]]))
        assert math.isclose(loss, -math.log(0.25), rel_tol=0, abs_tol=1e-12)

    def test_bce_clamp_prevents_infinities(self):
        loss = bce_loss(np.zeros((3, 3)), mask(np.ones((3, 3))))
        assert math.isfinite(loss)
        assert math.isclose(loss, -math.log(1e-7), rel_tol=1e-9)

    def test_dice_of_exact_binary_prediction_is_zero(self):
        gt = np.zeros((6, 6), dtype=bool)
        gt[1:4, 1:4] = True
        assert dice_loss(gt.astype(np.float64), mask(gt)) == 0.0

    def test_dice_of_empty_prediction_approaches_one(self):
        gt = np.zeros((10, 10), dtype=bool)
        gt[:5, :] = True  # 50 positive pixels
        assert dice_loss(np.zeros((10, 10)), mask(gt)) == 1.0 - 1.0 / 51.0

    def test_dice_uniform_half_analytic(self):
        gt = np.zeros((10, 10), dtype=bool)
        gt[:5, :] = True
        probs = np.full((10, 10), 0.5)
        assert dice_loss(probs, mask(gt)) == 1.0 - 51.0 / 101.0

    def test_combined_total_is_exact_sum(self, rng):
        probs = rng.random((9, 9))
        gt = mask(rng.random((9, 9)) > 0.5)
        loss = combined_loss(probs, gt)
        assert loss.total == loss.bce + loss.dice
        assert loss.bce == bce_loss(probs, gt)
        assert loss.dice == dice_loss(probs, gt)

    def test_loss_value_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            LossValue(bce=-0.1, dice=0.5)

    def test_loss_shape_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            bce_loss(np.zeros((2, 3)), mask(np.zeros((3, 2))))

    @pytest.mark.parametrize("loss", [bce_loss, dice_loss, combined_loss],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5, -0.5], ids=repr)
    @pytest.mark.parametrize("where", [(1, 2), ...], ids=["one-cell", "every-cell"])
    def test_probabilities_outside_unit_interval_rejected(self, loss, bad, where):
        probs = np.full((3, 3), 0.5)
        probs[where] = bad
        with pytest.raises(ValueError, match=r"probabilities must be finite and in \[0, 1\]"):
            loss(probs, mask(np.ones((3, 3))))


class TestReports:
    def sample_report(self):
        return MetricsReport(
            PixelConfusion(tp=2, tn=10, fp=2, fn=2),
            ((0.1, 1, 0, 0), (0.5, 0, 1, 1)),
        )

    def test_report_files_are_pinned(self):
        report = self.sample_report()
        assert report_to_json(report) == (
            '{"accuracy":0.75,"detection":[{"fn":0,"fp":0,"iou_threshold":0.1,"tp":1},'
            '{"fn":1,"fp":1,"iou_threshold":0.5,"tp":0}],"f1":0.5,"iou":0.3333333333333333,'
            '"pixel_confusion":{"fn":2,"fp":2,"tn":10,"tp":2},"precision":0.5,"recall":0.5}\n'
        )
        assert report_to_csv([("run", report)]) == (
            "label,f1,iou,precision,recall,accuracy\n"
            "run,0.5,0.3333333333333333,0.5,0.5,0.75\n"
        )

    def test_record_holds_only_what_was_measured(self):
        assert [f.name for f in dataclasses.fields(MetricsReport)] == [
            "pixel_confusion", "object_rows",
        ]
        assert [f.name for f in dataclasses.fields(LossValue)] == ["bce", "dice"]

    def test_json_layout(self):
        doc = json.loads(report_to_json(self.sample_report()))
        assert set(doc) == {
            "f1", "iou", "precision", "recall", "accuracy", "pixel_confusion", "detection",
        }
        assert doc["pixel_confusion"] == {"tp": 2, "tn": 10, "fp": 2, "fn": 2}
        assert doc["detection"][0] == {"iou_threshold": 0.1, "tp": 1, "fp": 0, "fn": 0}

    def test_csv_layout(self):
        text = report_to_csv([("run", self.sample_report())])
        lines = text.splitlines()
        assert lines[0] == "label,f1,iou,precision,recall,accuracy"
        fields = lines[1].split(",")
        assert fields[0] == "run"
        assert float(fields[1]) == 0.5
        assert float(fields[2]) == 1 / 3  # repr round-trips exactly

    def test_csv_label_with_comma_rejected(self):
        with pytest.raises(ValueError, match="label"):
            report_to_csv([("a,b", self.sample_report())])

    @pytest.mark.parametrize("label", ["a\rb", "a\nb", '"a', 'a"b'])
    def test_csv_label_that_breaks_a_row_rejected(self, label):
        with pytest.raises(ValueError, match="label"):
            report_to_csv([(label, self.sample_report())])

    def test_evaluate_masks_combines_pixels_and_objects(self, rng):
        pred = np.zeros((20, 20), dtype=bool)
        gt = np.zeros((20, 20), dtype=bool)
        pred[2:6, 2:6] = True
        gt[2:6, 2:6] = True
        gt[10:14, 10:14] = True
        report = evaluate_masks(mask(pred), mask(gt))
        assert report.pixel_confusion == pixel_confusion(mask(pred), mask(gt))
        assert report.recall == 0.5
        assert report.object_rows == tuple(
            (t, 1, 0, 1) for t in DEFAULT_THRESHOLDS
        )
