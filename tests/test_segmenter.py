"""Segmentation backends, output validation, and mask fusion."""

import socket
import threading

import numpy as np
import pytest

from sinkseg.errors import BackendError, BackendUnreachableError, ProtocolError
from sinkseg.image import RGBImage, pgm_bytes, write_pgm
from sinkseg.labeling import PromptBox
from sinkseg.mock_server import MockSegmentServer
from sinkseg.raster import Raster, binarize
from sinkseg.segmenter import (
    EchoBackend,
    HttpBackend,
    ProbabilityMask,
    ReplayBackend,
    fuse_probabilities,
    segment_patch,
)


def gray_patch(height=16, width=16, value=128):
    return RGBImage(np.full((height, width, 3), value, dtype=np.uint8))


class StubBackend:
    """Returns whatever it was told to; lets tests violate the contract."""

    def __init__(self, masks, scores):
        self.masks = masks
        self.scores = scores

    def masks_for(self, patch, boxes, patch_id=""):
        return self.masks, self.scores


class TestProbabilityMask:
    def test_values_copied_and_frozen(self):
        src = np.zeros((2, 2))
        pm = ProbabilityMask(src)
        src[0, 0] = 1.0
        assert pm.probs[0, 0] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            pm.probs[0, 0] = 0.5

    def test_range_enforced(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ProbabilityMask(np.array([[1.5]]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ProbabilityMask(np.array([[np.nan]]))

    def test_requires_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            ProbabilityMask(np.zeros(4))


class TestEchoBackend:
    def make_depth(self):
        depth = np.zeros((16, 16))
        depth[4:8, 4:8] = 3.0
        depth[10:14, 2:6] = 5.0
        return Raster(depth)

    def test_mask_is_depth_support_inside_box(self):
        backend = EchoBackend(self.make_depth())
        out = segment_patch(backend, gray_patch(), [PromptBox(4, 4, 8, 8)])
        expected = np.zeros((16, 16))
        expected[4:8, 4:8] = 1.0
        assert np.array_equal(out.probs, expected)
        assert out.scores == (1.0,)

    def test_box_crops_the_component(self):
        backend = EchoBackend(self.make_depth())
        out = segment_patch(backend, gray_patch(), [PromptBox(4, 4, 6, 8)])
        expected = np.zeros((16, 16))
        expected[4:8, 4:6] = 1.0
        assert np.array_equal(out.probs, expected)

    def test_whole_patch_box_recovers_all_depressions(self):
        depth = self.make_depth()
        backend = EchoBackend(depth)
        out = segment_patch(backend, gray_patch(), [PromptBox(0, 0, 16, 16)])
        assert np.array_equal(out.probs, (depth.values > 0).astype(np.float64))

    def test_patch_shape_mismatch(self):
        backend = EchoBackend(self.make_depth())
        with pytest.raises(BackendError, match="patch"):
            segment_patch(backend, gray_patch(8, 8), [PromptBox(0, 0, 4, 4)])


class TestSegmentPatch:
    def test_no_boxes_yields_empty_outcome(self):
        out = segment_patch(StubBackend(None, None), gray_patch(4, 4), [])
        assert out.masks == () and out.scores == ()
        assert out.probs.shape == (4, 4) and out.probs.dtype == np.float64
        assert not out.probs.any()

    def test_fusion_takes_pixelwise_max(self):
        a = np.zeros((4, 4))
        b = np.zeros((4, 4))
        a[1, 1] = 0.4
        b[1, 1] = 0.9
        a[2, 2] = 0.6
        backend = StubBackend([a, b], [0.5, 0.25])
        boxes = [PromptBox(0, 0, 4, 4), PromptBox(0, 0, 4, 4)]
        out = segment_patch(backend, gray_patch(4, 4), boxes)
        assert np.array_equal(out.probs, np.maximum(a, b))
        assert out.probs[1, 1] == 0.9 and out.probs[2, 2] == 0.6
        assert np.count_nonzero(out.probs > 0.5) == 2
        assert out.scores == (0.5, 0.25)

    def test_threshold_is_strict(self):
        mask = np.full((2, 2), 0.5)
        backend = StubBackend([mask], [1.0])
        out = segment_patch(backend, gray_patch(2, 2), [PromptBox(0, 0, 2, 2)])
        assert np.array_equal(out.probs, mask)
        assert not binarize(Raster(out.probs), 0.5).values.any()

    def test_box_exceeding_patch_rejected(self):
        with pytest.raises(ValueError, match="exceeds patch"):
            segment_patch(StubBackend([], []), gray_patch(4, 4), [PromptBox(0, 0, 5, 4)])

    def test_mask_count_mismatch_named(self):
        backend = StubBackend([np.zeros((4, 4))], [1.0, 1.0])
        boxes = [PromptBox(0, 0, 2, 2), PromptBox(2, 2, 4, 4)]
        with pytest.raises(ProtocolError, match="mask count mismatch: 2 boxes but 1"):
            segment_patch(backend, gray_patch(4, 4), boxes)

    def test_score_count_mismatch_named(self):
        backend = StubBackend([np.zeros((4, 4))], [])
        with pytest.raises(ProtocolError, match="score count mismatch"):
            segment_patch(backend, gray_patch(4, 4), [PromptBox(0, 0, 2, 2)])

    def test_mask_shape_mismatch_named(self):
        backend = StubBackend([np.zeros((3, 4))], [1.0])
        with pytest.raises(ProtocolError, match=r"mask 0 has shape \(3, 4\)"):
            segment_patch(backend, gray_patch(4, 4), [PromptBox(0, 0, 2, 2)])

    def test_mask_range_violation_named(self):
        backend = StubBackend([np.full((4, 4), 1.25)], [1.0])
        with pytest.raises(ProtocolError, match=r"mask 0 has probabilities outside"):
            segment_patch(backend, gray_patch(4, 4), [PromptBox(0, 0, 2, 2)])

    def test_score_range_violation_named(self):
        backend = StubBackend([np.zeros((4, 4))], [1.5])
        with pytest.raises(ProtocolError, match=r"score 0 outside \[0, 1\]"):
            segment_patch(backend, gray_patch(4, 4), [PromptBox(0, 0, 2, 2)])


class TestFuseProbabilities:
    def test_empty_list_gives_zeros(self):
        assert not fuse_probabilities([], (3, 3)).any()

    def test_order_independent(self, rng):
        masks = [rng.random((6, 6)) for _ in range(5)]
        fused = fuse_probabilities(masks, (6, 6))
        assert np.array_equal(fuse_probabilities(masks[::-1], (6, 6)), fused)

    def test_monotone_in_mask_count(self, rng):
        masks = [rng.random((5, 5)) for _ in range(4)]
        prev = np.zeros((5, 5))
        for k in range(1, 5):
            fused = fuse_probabilities(masks[:k], (5, 5))
            assert np.all(fused >= prev)
            prev = fused

    def test_does_not_mutate_inputs(self):
        a = np.full((2, 2), 0.2)
        b = np.full((2, 2), 0.7)
        fuse_probabilities([a, b], (2, 2))
        assert np.all(a == 0.2) and np.all(b == 0.7)


class TestReplayBackend:
    def record(self, tmp_path, patch_id, masks):
        d = tmp_path / patch_id
        d.mkdir(parents=True)
        for i, m in enumerate(masks):
            write_pgm(m, d / f"{i}.pgm")
        return ReplayBackend(tmp_path)

    def test_replays_exact_probabilities(self, tmp_path):
        recorded = np.zeros((4, 4), dtype=np.uint8)
        recorded[0, 0] = 255
        recorded[1, 1] = 128
        backend = self.record(tmp_path, "r00000_c00000", [recorded])
        out = segment_patch(
            backend, gray_patch(4, 4), [PromptBox(0, 0, 4, 4)], patch_id="r00000_c00000"
        )
        probs = out.masks[0].probs
        assert probs[0, 0] == 1.0
        assert probs[1, 1] == 128 / 255
        assert probs[2, 2] == 0.0
        assert np.array_equal(out.probs, recorded / 255)
        assert np.array_equal(out.probs > 0.5, recorded > 127)

    def test_requires_patch_id(self, tmp_path):
        backend = ReplayBackend(tmp_path)
        with pytest.raises(BackendError, match="patch_id"):
            segment_patch(backend, gray_patch(4, 4), [PromptBox(0, 0, 2, 2)])

    def test_missing_mask_file(self, tmp_path):
        backend = self.record(tmp_path, "p0", [np.zeros((4, 4), dtype=np.uint8)])
        boxes = [PromptBox(0, 0, 2, 2), PromptBox(2, 2, 4, 4)]
        with pytest.raises(BackendError, match="replay mask missing.*1.pgm"):
            segment_patch(backend, gray_patch(4, 4), boxes, patch_id="p0")

    def test_wrong_maxval_rejected(self, tmp_path):
        d = tmp_path / "p0"
        d.mkdir()
        (d / "0.pgm").write_bytes(pgm_bytes(np.zeros((4, 4), dtype=np.uint8), maxval=100))
        backend = ReplayBackend(tmp_path)
        with pytest.raises(ProtocolError, match="maxval must be 255, got 100"):
            segment_patch(backend, gray_patch(4, 4), [PromptBox(0, 0, 2, 2)], patch_id="p0")


class TestHttpBackend:
    def test_boxfill_round_trip(self):
        with MockSegmentServer(mode="boxfill", value=255) as server:
            backend = HttpBackend(server.endpoint)
            out = segment_patch(backend, gray_patch(8, 8), [PromptBox(2, 1, 5, 4)])
            expected = np.zeros((8, 8))
            expected[1:4, 2:5] = 1.0
            assert np.array_equal(out.probs, expected)
            assert server.request_count == 1

    def test_constant_probabilities_bit_exact(self):
        with MockSegmentServer(mode="constant", value=178) as server:
            backend = HttpBackend(server.endpoint)
            out = segment_patch(backend, gray_patch(6, 6), [PromptBox(0, 0, 3, 3)])
            assert np.all(out.masks[0].probs == 178 / 255)
            assert np.all(out.probs == 178 / 255)

    def test_unreachable_service(self):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            free_port = s.getsockname()[1]
        backend = HttpBackend(f"http://127.0.0.1:{free_port}", retries=0)
        with pytest.raises(BackendUnreachableError, match="after 1 attempts"):
            segment_patch(backend, gray_patch(4, 4), [PromptBox(0, 0, 2, 2)])

    def test_server_error_carries_detail(self):
        with MockSegmentServer(fault="http_500") as server:
            backend = HttpBackend(server.endpoint)
            with pytest.raises(BackendError, match="HTTP 500: induced server failure"):
                segment_patch(backend, gray_patch(4, 4), [PromptBox(0, 0, 2, 2)])

    @pytest.mark.parametrize(
        "fault, pattern",
        [
            ("count_mismatch", "mask count mismatch"),
            ("bad_dims", r"mask 0 has shape"),
            ("bad_maxval", "maxval must be 255, got 200"),
            ("bad_score", r"score 0 outside \[0, 1\]"),
        ],
    )
    def test_protocol_faults_rejected(self, fault, pattern):
        with MockSegmentServer(fault=fault) as server:
            backend = HttpBackend(server.endpoint)
            with pytest.raises(ProtocolError, match=pattern):
                segment_patch(backend, gray_patch(8, 8), [PromptBox(0, 0, 4, 4)])

    def test_concurrent_requests_all_served(self):
        with MockSegmentServer(mode="constant", value=255) as server:
            backend = HttpBackend(server.endpoint, max_inflight=2)
            results = [None] * 8
            errors = []

            def work(i):
                try:
                    results[i] = segment_patch(
                        backend, gray_patch(4, 4), [PromptBox(0, 0, 4, 4)]
                    )
                except Exception as exc:  # noqa: BLE001 - collected for the assert
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert server.request_count == 8
            assert all(np.all(r.probs == 1.0) for r in results)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="retries"):
            HttpBackend("http://127.0.0.1:1", retries=-1)
        with pytest.raises(ValueError, match="max_inflight"):
            HttpBackend("http://127.0.0.1:1", max_inflight=0)
