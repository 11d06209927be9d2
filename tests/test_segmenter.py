"""Segmentation backends, output validation, and mask fusion."""

import base64
import socket
import threading

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import canned, serving
from sinkseg.errors import BackendError, BackendUnreachableError, ProtocolError
from sinkseg.image import RGBImage, pgm_bytes, ppm_bytes, write_pgm
from sinkseg.labeling import PromptBox
from sinkseg.mock_server import MockSegmentServer
from sinkseg.raster import Raster, binarize
from sinkseg.segmenter import (
    EchoBackend,
    HttpBackend,
    ReplayBackend,
    fuse_probabilities,
    segment_patch,
)


def gray_patch(height=16, width=16, value=128):
    return RGBImage(np.full((height, width, 3), value, dtype=np.uint8))


def b64_pgm(values, maxval=255):
    return base64.b64encode(pgm_bytes(np.asarray(values, dtype=np.uint8), maxval)).decode("ascii")


def placed(shape, row0, col0, crop):
    """*crop* written into a zero grid of *shape* at (row0, col0)."""
    grid = np.zeros(shape)
    grid[row0 : row0 + crop.shape[0], col0 : col0 + crop.shape[1]] = crop
    return grid


class StubBackend:
    """Returns the ``(row0, col0, array)`` crops and scores it was told to;
    lets tests violate the contract."""

    def __init__(self, masks, scores):
        self.masks = masks
        self.scores = scores

    def masks_for(self, patch, boxes, patch_id=""):
        return self.masks, self.scores


class TestProbabilityMask:
    """The per-box probability-mask contract, as segment_patch enforces it."""

    def test_range_enforced(self):
        for value in (1.5, -0.25, np.nan, np.inf):
            backend = StubBackend([(0, 0, np.full((2, 2), value))], [1.0])
            with pytest.raises(ProtocolError, match=r"mask 0 has probabilities outside \[0, 1\]"):
                segment_patch(backend, gray_patch(4, 4), [PromptBox(0, 0, 2, 2)])

    @pytest.mark.parametrize("row0, col0", [(-1, 0), (0, -1), (3, 0), (0, 3)])
    def test_crop_must_lie_inside_the_grid(self, row0, col0):
        backend = StubBackend([(row0, col0, np.zeros((1, 2)))], [1.0])
        with pytest.raises(ProtocolError, match="outside the patch shape"):
            segment_patch(backend, gray_patch(3, 4), [PromptBox(0, 0, 2, 1)])

    @pytest.mark.parametrize("row0, col0", [("0", 0), (None, 0)])
    def test_offsets_must_be_integers(self, row0, col0):
        backend = StubBackend([(row0, col0, np.zeros((1, 2)))], [1.0])
        with pytest.raises(ProtocolError, match="they must be integers"):
            segment_patch(backend, gray_patch(3, 4), [PromptBox(0, 0, 2, 1)])


class TestEchoBackend:
    def make_depth(self):
        depth = np.zeros((16, 16))
        depth[4:8, 4:8] = 3.0
        depth[10:14, 2:6] = 5.0
        return Raster(depth)

    def test_mask_is_depth_support_inside_box(self):
        backend = EchoBackend(self.make_depth())
        probs = segment_patch(backend, gray_patch(), [PromptBox(4, 4, 8, 8)])
        expected = np.zeros((16, 16))
        expected[4:8, 4:8] = 1.0
        assert np.array_equal(probs, expected)

    def test_box_crops_the_component(self):
        backend = EchoBackend(self.make_depth())
        probs = segment_patch(backend, gray_patch(), [PromptBox(4, 4, 6, 8)])
        expected = np.zeros((16, 16))
        expected[4:8, 4:6] = 1.0
        assert np.array_equal(probs, expected)

    def test_whole_patch_box_recovers_all_depressions(self):
        depth = self.make_depth()
        backend = EchoBackend(depth)
        probs = segment_patch(backend, gray_patch(), [PromptBox(0, 0, 16, 16)])
        assert np.array_equal(probs, (depth.values > 0).astype(np.float64))

    def test_masks_are_box_sized_crops(self):
        backend = EchoBackend(self.make_depth())
        crops, scores = backend.masks_for(gray_patch(), [PromptBox(4, 4, 6, 8)])
        ((row0, col0, crop),) = crops
        assert (row0, col0) == (4, 4)
        assert crop.shape == (4, 2) and crop.dtype == np.float64
        assert np.all(crop == 1.0) and scores == [1.0]

    def test_patch_shape_mismatch(self):
        backend = EchoBackend(self.make_depth())
        with pytest.raises(BackendError, match="patch"):
            segment_patch(backend, gray_patch(8, 8), [PromptBox(0, 0, 4, 4)])


class TestSegmentPatch:
    def test_no_boxes_yields_empty_outcome(self):
        probs = segment_patch(StubBackend(None, None), gray_patch(4, 4), [])
        assert probs.shape == (4, 4) and probs.dtype == np.float64
        assert not probs.any()

    def test_backend_arrays_are_not_written(self):
        a = np.full((4, 4), 0.25)
        b = np.full((2, 3), 0.75)
        backend = StubBackend([(0, 0, a), (1, 1, b)], [1.0, 1.0])
        probs = segment_patch(backend, gray_patch(4, 4), [PromptBox(0, 0, 4, 4)] * 2)
        assert np.array_equal(probs, np.maximum(a, placed((4, 4), 1, 1, b)))
        assert np.all(a == 0.25) and np.all(b == 0.75)
        assert not np.shares_memory(probs, a)

    def test_fusion_takes_pixelwise_max(self):
        a = np.zeros((4, 4))
        b = np.zeros((4, 4))
        a[1, 1] = 0.4
        b[1, 1] = 0.9
        a[2, 2] = 0.6
        backend = StubBackend([(0, 0, a), (0, 0, b)], [0.5, 0.25])
        boxes = [PromptBox(0, 0, 4, 4), PromptBox(0, 0, 4, 4)]
        probs = segment_patch(backend, gray_patch(4, 4), boxes)
        assert np.array_equal(probs, np.maximum(a, b))
        assert probs[1, 1] == 0.9 and probs[2, 2] == 0.6
        assert np.count_nonzero(probs > 0.5) == 2

    def test_threshold_is_strict(self):
        mask = np.full((2, 2), 0.5)
        backend = StubBackend([(0, 0, mask)], [1.0])
        probs = segment_patch(backend, gray_patch(2, 2), [PromptBox(0, 0, 2, 2)])
        assert np.array_equal(probs, mask)
        assert not binarize(Raster(probs), 0.5).values.any()

    def test_box_exceeding_patch_rejected(self):
        with pytest.raises(ValueError, match="exceeds patch"):
            segment_patch(StubBackend([], []), gray_patch(4, 4), [PromptBox(0, 0, 5, 4)])

    def test_mask_count_mismatch_named(self):
        backend = StubBackend([(0, 0, np.zeros((4, 4)))], [1.0, 1.0])
        boxes = [PromptBox(0, 0, 2, 2), PromptBox(2, 2, 4, 4)]
        with pytest.raises(ProtocolError, match="mask count mismatch: 2 boxes but 1"):
            segment_patch(backend, gray_patch(4, 4), boxes)

    def test_score_count_mismatch_named(self):
        backend = StubBackend([(0, 0, np.zeros((4, 4)))], [])
        with pytest.raises(ProtocolError, match="score count mismatch"):
            segment_patch(backend, gray_patch(4, 4), [PromptBox(0, 0, 2, 2)])

    def test_mask_shape_mismatch_named(self):
        backend = StubBackend([(2, 0, np.zeros((3, 4)))], [1.0])
        pattern = r"mask 0 has shape \(3, 4\) at \[2, 0\], outside the patch shape \(4, 4\)"
        with pytest.raises(ProtocolError, match=pattern):
            segment_patch(backend, gray_patch(4, 4), [PromptBox(0, 0, 2, 2)])

    @pytest.mark.parametrize(
        "entry, pattern",
        [
            (np.zeros((4, 4)), "crop entry must be"),
            ((0, np.zeros((4, 4))), "crop entry must be"),
            ((True, 0, np.zeros((2, 2))), r"mask 0 has offsets \[True, 0\]; they must be integers"),
            ((0, 1.0, np.zeros((2, 2))), "they must be integers"),
            ((0, 0, "x"), "mask 0 is not a numeric grid"),
            ((0, 0, np.zeros(4)), r"mask 0 has shape \(4,\), expected a 2-D"),
        ],
        ids=["bare-array", "two-items", "bool-offset", "float-offset", "not-numeric", "1-d"],
    )
    def test_malformed_crop_entry_named(self, entry, pattern):
        backend = StubBackend([entry], [1.0])
        with pytest.raises(ProtocolError, match=pattern):
            segment_patch(backend, gray_patch(4, 4), [PromptBox(0, 0, 2, 2)])

    def test_mask_range_violation_named(self):
        backend = StubBackend([(0, 0, np.full((4, 4), 1.25))], [1.0])
        with pytest.raises(ProtocolError, match=r"mask 0 has probabilities outside"):
            segment_patch(backend, gray_patch(4, 4), [PromptBox(0, 0, 2, 2)])

    def test_score_range_violation_named(self):
        backend = StubBackend([(0, 0, np.zeros((4, 4)))], [1.5])
        with pytest.raises(ProtocolError, match=r"score 0 outside \[0, 1\]"):
            segment_patch(backend, gray_patch(4, 4), [PromptBox(0, 0, 2, 2)])

    @pytest.mark.parametrize("score", [1, np.float32(0.5), np.int64(1)], ids=repr)
    def test_integer_and_numpy_scalar_scores_accepted(self, score):
        backend = StubBackend([(0, 0, np.zeros((4, 4)))], [score])
        probs = segment_patch(backend, gray_patch(4, 4), [PromptBox(0, 0, 2, 2)])
        assert not probs.any()

    @pytest.mark.parametrize("score", ["0.5", None, [0.5], True], ids=repr)
    def test_score_that_is_not_a_number_named(self, score):
        backend = StubBackend([(0, 0, np.zeros((4, 4)))], [score])
        with pytest.raises(ProtocolError, match=r"score 0 is not a number: "):
            segment_patch(backend, gray_patch(4, 4), [PromptBox(0, 0, 2, 2)])


@st.composite
def patch_and_crops(draw):
    """A patch shape and up to six crops inside it: anywhere, on an edge or
    corner, 1x1 zero at [0, 0], or the whole patch; values drawn from a few
    levels so that overlaps tie."""
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    levels = st.sampled_from([0.0, 0.25, 128 / 255, 1.0]) | st.floats(0.0, 1.0)
    crops = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["anywhere", "edge", "zero", "full"]))
        if kind == "zero":
            crops.append((0, 0, np.zeros((1, 1))))
            continue
        ch, cw = (h, w) if kind == "full" else (draw(st.integers(1, h)), draw(st.integers(1, w)))
        if kind == "edge":
            row0 = draw(st.sampled_from([0, h - ch]))
            col0 = draw(st.sampled_from([0, w - cw]))
        else:
            row0 = draw(st.integers(0, h - ch))
            col0 = draw(st.integers(0, w - cw))
        crops.append((row0, col0, draw(hnp.arrays(np.float64, (ch, cw), elements=levels))))
    return (h, w), crops


class TestStreamingFold:
    @settings(max_examples=300, deadline=None)
    @given(patch_and_crops())
    def test_fold_equals_fuse_probabilities(self, case):
        shape, crops = case
        backend = StubBackend(crops, [1.0] * len(crops))
        expected = fuse_probabilities([placed(shape, *crop) for crop in crops], shape)
        probs = segment_patch(backend, gray_patch(*shape), [PromptBox(0, 0, 1, 1)] * len(crops))
        assert probs.shape == shape and probs.dtype == np.float64
        assert np.array_equal(probs, expected)


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
        probs = segment_patch(
            backend, gray_patch(4, 4), [PromptBox(0, 0, 4, 4)], patch_id="r00000_c00000"
        )
        assert probs[0, 0] == 1.0
        assert probs[1, 1] == 128 / 255
        assert probs[2, 2] == 0.0
        assert np.array_equal(probs, recorded / 255)
        assert np.array_equal(probs > 0.5, recorded > 127)

    def test_requires_patch_id(self, tmp_path):
        backend = ReplayBackend(tmp_path)
        with pytest.raises(BackendError, match="patch_id"):
            segment_patch(backend, gray_patch(4, 4), [PromptBox(0, 0, 2, 2)])

    def test_missing_mask_file(self, tmp_path):
        backend = self.record(tmp_path, "p0", [np.zeros((4, 4), dtype=np.uint8)])
        boxes = [PromptBox(0, 0, 2, 2), PromptBox(2, 2, 4, 4)]
        with pytest.raises(BackendError, match="replay mask missing.*1.pgm"):
            segment_patch(backend, gray_patch(4, 4), boxes, patch_id="p0")

    @pytest.mark.parametrize("shape", [(3, 4), (2, 2)], ids=["one-row-short", "quarter"])
    def test_wrong_size_rejected(self, tmp_path, shape):
        backend = self.record(tmp_path, "p0", [np.full(shape, 255, dtype=np.uint8)])
        with pytest.raises(ProtocolError, match=rf"mask 0 has shape \({shape[0]}, {shape[1]}\)"):
            segment_patch(backend, gray_patch(4, 4), [PromptBox(0, 0, 2, 2)], patch_id="p0")

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
            probs = segment_patch(backend, gray_patch(8, 8), [PromptBox(2, 1, 5, 4)])
            expected = np.zeros((8, 8))
            expected[1:4, 2:5] = 1.0
            assert np.array_equal(probs, expected)
            assert server.request_count == 1

    def test_constant_probabilities_bit_exact(self):
        with MockSegmentServer(mode="constant", value=178) as server:
            backend = HttpBackend(server.endpoint)
            probs = segment_patch(backend, gray_patch(6, 6), [PromptBox(0, 0, 3, 3)])
            assert np.all(probs == 178 / 255)

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

    def test_request_holds_only_image_and_boxes(self):
        seen = []
        reply = {"masks_crop": [[0, 0, b64_pgm(np.zeros((1, 1)))]], "scores": [1.0]}
        with serving(canned(200, reply, seen)) as endpoint:
            segment_patch(HttpBackend(endpoint), gray_patch(8, 8), [PromptBox(6, 5, 8, 7)])
        assert set(seen[0]) == {"image_ppm_b64", "boxes"}

    def test_crop_reply_is_placed_at_its_offset(self):
        crop = np.array([[0, 51], [255, 0]], dtype=np.uint8)
        seen = []
        reply = {"masks_crop": [[5, 6, b64_pgm(crop)]], "scores": [0.5]}
        with serving(canned(200, reply, seen)) as endpoint:
            probs = segment_patch(HttpBackend(endpoint), gray_patch(8, 8), [PromptBox(6, 5, 8, 7)])
        assert seen[0]["boxes"] == [[6, 5, 8, 7]]
        assert np.array_equal(probs, placed((8, 8), 5, 6, crop / 255.0))

    def test_patch_sized_crop_at_origin_bit_exact(self):
        full = np.arange(64, dtype=np.uint8).reshape(8, 8) * 4
        reply = {"masks_crop": [[0, 0, b64_pgm(full)]], "scores": [1.0]}
        with serving(canned(200, reply)) as endpoint:
            probs = segment_patch(HttpBackend(endpoint), gray_patch(8, 8), [PromptBox(0, 0, 4, 4)])
        assert np.array_equal(probs.view(np.int64), (full / 255.0).view(np.int64))

    def test_unreachable_service(self):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            free_port = s.getsockname()[1]
        backend = HttpBackend(f"http://127.0.0.1:{free_port}", retries=0)
        with pytest.raises(BackendUnreachableError, match="after 1 attempts"):
            segment_patch(backend, gray_patch(4, 4), [PromptBox(0, 0, 2, 2)])

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 0, -1.0])
    def test_unusable_timeout_rejected_before_a_session_opens(self, timeout, monkeypatch):
        import requests

        def refuse():
            raise AssertionError("a session was opened")

        monkeypatch.setattr(requests, "Session", refuse)
        with pytest.raises(ValueError, match=f"timeout must be finite and > 0, got {timeout}"):
            HttpBackend("http://127.0.0.1:9", timeout=timeout)

    @pytest.mark.parametrize("body", [["oops"], "oops", None, 3])
    def test_error_body_that_is_not_an_object(self, body):
        with serving(canned(503, body)) as endpoint:
            with pytest.raises(BackendError, match=r"HTTP 503$"):
                segment_patch(HttpBackend(endpoint), gray_patch(4, 4), [PromptBox(0, 0, 2, 2)])

    @pytest.mark.parametrize(
        "reply, pattern",
        [
            ({"masks_crop": [[-1, 0, b64_pgm(np.ones((4, 4)))]]},
             r"mask 0 has shape \(4, 4\) at \[-1, 0\], outside the patch shape \(8, 8\)"),
            ({"masks_crop": [[6, 0, b64_pgm(np.ones((4, 4)))]]},
             r"mask 0 has shape \(4, 4\) at \[6, 0\], outside the patch shape \(8, 8\)"),
            ({"masks_crop": [[0, 5, b64_pgm(np.ones((1, 4)))]]},
             r"mask 0 has shape \(1, 4\) at \[0, 5\], outside the patch shape \(8, 8\)"),
            ({"masks_crop": [[True, 0, b64_pgm(np.ones((4, 4)))]]},
             r"mask 0 has offsets \[True, 0\]; they must be integers"),
            ({"masks_crop": [[0, 1.0, b64_pgm(np.ones((4, 4)))]]},
             r"mask 0 has offsets \[0, 1.0\]; they must be integers"),
            ({"masks_crop": [[0, b64_pgm(np.ones((4, 4)))]]}, "crop entry must be"),
            ({"masks_crop": [b64_pgm(np.ones((8, 8)))]}, "crop entry must be"),
            ({"masks_crop": [[0, 0, "not base64!"]]}, "mask 0: invalid base64"),
            ({"masks_crop": [[0, 0, 7]]}, "mask 0: invalid base64"),
            ({"masks_crop": [[0, 0, base64.b64encode(b"P6 1 1 255 x").decode()]]},
             "mask 0: bad PGM"),
            ({"masks_crop": "x"}, "'masks_crop' missing or not a list"),
            # whole-patch masks under the old field are refused, well-formed or not
            ({"masks_pgm_b64": [b64_pgm(np.ones((8, 8)))]}, "'masks_crop' missing or not a list"),
            ({"masks_pgm_b64": [b64_pgm(np.ones((7, 8)))]}, "'masks_crop' missing or not a list"),
            ({"masks_pgm_b64": [b64_pgm(np.ones((4, 4)))]}, "'masks_crop' missing or not a list"),
            ({"masks_pgm_b64": [[0, 0, b64_pgm(np.ones((4, 4)))]]},
             "'masks_crop' missing or not a list"),
            ({}, "'masks_crop' missing or not a list"),
            ({"masks_crop": [[0, 0, b64_pgm(np.ones((4, 4)))]], "scores": "x"},
             "'scores' missing or not a list"),
        ],
        ids=["negative-row", "overhang-bottom", "overhang-right", "bool-offset",
             "float-offset", "two-items", "bare-string", "bad-base64", "int-payload",
             "ppm-not-pgm", "not-a-list", "full-patch-sized", "full-one-row-short",
             "full-quarter-patch", "full-given-a-crop", "no-masks", "scores-not-a-list"],
    )
    def test_malformed_reply_rejected(self, reply, pattern):
        with serving(canned(200, {"scores": [1.0], **reply})) as endpoint:
            with pytest.raises(ProtocolError, match=pattern):
                segment_patch(HttpBackend(endpoint), gray_patch(8, 8), [PromptBox(0, 0, 4, 4)])

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
            assert all(np.all(r == 1.0) for r in results)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="retries"):
            HttpBackend("http://127.0.0.1:1", retries=-1)
        with pytest.raises(ValueError, match="max_inflight"):
            HttpBackend("http://127.0.0.1:1", max_inflight=0)


def post_raw(endpoint, boxes):
    patch = RGBImage(np.zeros((8, 8, 3), dtype=np.uint8))
    doc = {"image_ppm_b64": base64.b64encode(ppm_bytes(patch)).decode("ascii"), "boxes": boxes}
    return requests.post(endpoint + "/segment", json=doc, timeout=10)


@pytest.fixture(scope="module")
def boxfill_server():
    with MockSegmentServer(mode="boxfill", value=255) as server:
        yield server


class TestMockServer:
    @pytest.mark.parametrize(
        "mode, value, box, expected",
        [
            ("boxfill", 255, [2, 1, 5, 4], [1, 2, np.full((3, 3), 255)]),
            ("constant", 178, [2, 1, 5, 4], [0, 0, np.full((8, 8), 178)]),
            ("boxfill", 0, [2, 1, 5, 4], [0, 0, np.zeros((1, 1))]),
        ],
        ids=["tight-box", "spills-outside-box", "all-zero"],
    )
    def test_crop_reply_is_the_tight_nonzero_rectangle(self, mode, value, box, expected):
        with MockSegmentServer(mode=mode, value=value) as server:
            reply = post_raw(server.endpoint, [box])
        assert reply.status_code == 200
        assert reply.json() == {"masks_crop": [[expected[0], expected[1], b64_pgm(expected[2])]],
                                "scores": [1.0]}

    def test_bad_dims_moves_the_crop_one_row_past_the_bottom(self):
        with MockSegmentServer(mode="boxfill", value=255, fault="bad_dims") as server:
            reply = post_raw(server.endpoint, [[2, 1, 5, 4]])
        assert reply.json() == {"masks_crop": [[6, 2, b64_pgm(np.full((3, 3), 255))]],
                                "scores": [1.0]}

    @pytest.mark.parametrize(
        "boxes",
        [[[0, 0, "a", 2]], [[0, 0, 2]], "x", [[0, 0, 2.5, 2]], [[True, 0, 2, 2]],
         [[0, 0, 9, 2]], [[-1, 0, 2, 2]], [[2, 0, 2, 2]], [None]],
        ids=["string-coord", "three-coords", "not-a-list", "float-coord", "bool-coord",
             "outside-image", "negative", "empty", "null-box"],
    )
    def test_malformed_boxes_get_a_400(self, boxfill_server, boxes):
        reply = post_raw(boxfill_server.endpoint, boxes)
        assert reply.status_code == 400
        assert "bad request" in reply.json()["error"]
