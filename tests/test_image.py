"""Binary PPM/PGM encoding and parsing."""

import base64
import re

import numpy as np
import pytest

from conftest import canned, serving
from sinkseg.image import (
    ImageFormatError,
    RGBImage,
    check_image,
    gray_from_pgm_bytes,
    image_from_ppm_bytes,
    pgm_bytes,
    ppm_bytes,
    read_ppm,
    write_ppm,
)
from sinkseg.labeling import PromptBox
from sinkseg.segmenter import HttpBackend, segment_patch


class TestRGBImage:
    def test_requires_three_channels(self):
        with pytest.raises(ValueError, match=r"\(h, w, 3\)"):
            RGBImage(np.zeros((4, 4), dtype=np.uint8))

    def test_pixels_coerced_to_uint8_copy(self):
        """Nothing is cast: an int64 image is refused, even one that fits
        uint8; a uint8 image is copied."""
        with pytest.raises(ValueError, match="uint8"):
            RGBImage(np.zeros((4, 4, 3), dtype=np.int64))
        source = np.zeros((4, 4, 3), dtype=np.uint8)
        img = RGBImage(source)
        source[0, 0, 0] = 9
        assert img.pixels[0, 0, 0] == 0

    def test_pixels_read_only(self):
        img = RGBImage(np.zeros((2, 2, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match="read-only"):
            img.pixels[0, 0, 0] = 1


class TestPpmRoundTrip:
    def test_bytes_round_trip(self, rng):
        pixels = rng.integers(0, 256, size=(7, 5, 3), dtype=np.uint8)
        back = image_from_ppm_bytes(ppm_bytes(pixels))
        assert np.array_equal(back, pixels)

    def test_file_round_trip(self, tmp_path, rng):
        pixels = rng.integers(0, 256, size=(3, 9, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(pixels, path)
        assert np.array_equal(read_ppm(path), pixels)

    def test_strided_view_encodes_its_own_pixels(self, rng):
        pixels = rng.integers(0, 256, size=(9, 9, 3), dtype=np.uint8)
        view = pixels[2:7, 1:6]
        assert ppm_bytes(view) == ppm_bytes(np.ascontiguousarray(view))

    def test_header_layout(self):
        data = ppm_bytes(np.zeros((2, 3, 3), dtype=np.uint8))
        assert data.startswith(b"P6\n3 2\n255\n")
        assert len(data) == len(b"P6\n3 2\n255\n") + 2 * 3 * 3


class TestDecodedImage:
    def test_readers_return_read_only_uint8_images(self, tmp_path, rng):
        pixels = rng.integers(0, 256, size=(3, 4, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(pixels, path)
        for image in (read_ppm(path), image_from_ppm_bytes(path.read_bytes())):
            assert type(image) is np.ndarray
            assert image.dtype == np.uint8 and image.shape == (3, 4, 3)
            with pytest.raises(ValueError, match="read-only"):
                image[0, 0, 0] = 1

    def test_bytes_after_the_pixel_data_are_refused(self, tmp_path):
        """One byte more, or a second image, names the file and both counts."""
        data = ppm_bytes(np.zeros((2, 2, 3), dtype=np.uint8))
        path = tmp_path / "long.ppm"
        for tail in (b"\0", data):
            path.write_bytes(data + tail)
            with pytest.raises(ImageFormatError, match=f"^{re.escape(str(path))}: trailing bytes "
                                                       f"after pixel data: expected 12 bytes, "
                                                       f"got {12 + len(tail)}$"):
                read_ppm(path)

    def test_pgm_with_bytes_after_the_pixel_data_is_refused(self):
        with pytest.raises(ImageFormatError, match="expected 4 bytes, got 8"):
            gray_from_pgm_bytes(pgm_bytes(np.zeros((2, 2), dtype=np.uint8)) + b"junk")


class TestPgmRoundTrip:
    def test_bytes_round_trip(self, rng):
        values = rng.integers(0, 256, size=(6, 4), dtype=np.uint8)
        arr, maxval = gray_from_pgm_bytes(pgm_bytes(values))
        assert maxval == 255
        assert np.array_equal(arr, values)

    def test_custom_maxval_reported(self):
        values = np.full((2, 2), 200, dtype=np.uint8)
        arr, maxval = gray_from_pgm_bytes(pgm_bytes(values, maxval=200))
        assert maxval == 200
        assert np.array_equal(arr, values)


class TestParsing:
    def test_comments_between_header_fields(self):
        raw = b"P5\n# made by hand\n2 1\n# another note\n255\n\x07\x09"
        arr, maxval = gray_from_pgm_bytes(raw)
        assert arr.tolist() == [[7, 9]]
        assert maxval == 255

    def test_bad_magic(self):
        with pytest.raises(ImageFormatError, match="magic"):
            gray_from_pgm_bytes(b"P2\n1 1\n255\n\x00")

    def test_ppm_magic_on_pgm_parser(self):
        data = ppm_bytes(np.zeros((1, 1, 3), dtype=np.uint8))
        with pytest.raises(ImageFormatError, match="magic"):
            gray_from_pgm_bytes(data)

    def test_truncated_header(self):
        with pytest.raises(ImageFormatError, match="truncated"):
            gray_from_pgm_bytes(b"P5\n2 ")

    def test_truncated_pixels(self):
        with pytest.raises(ImageFormatError, match="expected 4 bytes, got 3"):
            gray_from_pgm_bytes(b"P5\n2 2\n255\n\x01\x02\x03")

    def test_zero_dimension_rejected(self):
        with pytest.raises(ImageFormatError, match="dimensions"):
            gray_from_pgm_bytes(b"P5\n0 2\n255\n")

    def test_maxval_zero_rejected(self):
        with pytest.raises(ImageFormatError, match="maxval"):
            gray_from_pgm_bytes(b"P5\n1 1\n0\n\x00")

    def test_maxval_too_large_rejected(self):
        with pytest.raises(ImageFormatError, match="maxval"):
            gray_from_pgm_bytes(b"P5\n1 1\n256\n\x00\x00")

    def test_ppm_requires_full_range(self):
        with pytest.raises(ImageFormatError, match="must be 255"):
            image_from_ppm_bytes(b"P6\n1 1\n127\n\x00\x00\x00")

    def test_non_numeric_header_token(self):
        with pytest.raises(ImageFormatError, match="header"):
            gray_from_pgm_bytes(b"P5\nab 1\n255\n\x00")

    @pytest.mark.parametrize("read, data", [(read_ppm, b"P6\n2 2\n255\n")])
    def test_file_errors_name_the_path(self, tmp_path, read, data):
        path = tmp_path / "short.pnm"
        path.write_bytes(data)
        with pytest.raises(ImageFormatError, match=f"^{re.escape(str(path))}: truncated pixel data"):
            read(path)


class TestWriterValidation:
    def test_pgm_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            pgm_bytes(np.zeros((2, 2, 2), dtype=np.uint8))


GOOD_IMAGE = np.zeros((2, 2, 3), dtype=np.uint8)

NOT_IMAGES = {
    "float-0-1": np.full((2, 2, 3), 0.6),
    "int64-300": np.full((2, 2, 3), 300, dtype=np.int64),
    "int16-minus-1": np.full((2, 2, 3), -1, dtype=np.int16),
    "gray": np.zeros((2, 2), dtype=np.uint8),
    "rgba": np.zeros((2, 2, 4), dtype=np.uint8),
    "empty": np.zeros((0, 4, 3), dtype=np.uint8),
    "list": GOOD_IMAGE.tolist(),
    "RGBImage": RGBImage(GOOD_IMAGE),
}


@pytest.fixture(scope="module")
def seen_requests():
    """The request documents a canned service received, and its endpoint."""
    seen = []
    zero = base64.b64encode(pgm_bytes(np.zeros((1, 1), dtype=np.uint8))).decode("ascii")
    with serving(canned(200, {"masks_crop": [[0, 0, zero]], "scores": [1.0]}, seen)) as endpoint:
        yield seen, endpoint


IMAGE_CALLS = {  # each call of the library that takes an image, handed *image*
    "ppm_bytes": lambda image, path, http: path.write_bytes(ppm_bytes(image)),
    "write_ppm": lambda image, path, http: write_ppm(image, path),
    "segment_patch": lambda image, path, http: segment_patch(
        HttpBackend(http[1]), image, [PromptBox(0, 0, 1, 1)]),
    "RGBImage": lambda image, path, http: RGBImage(image),
}


@pytest.mark.parametrize("call, value", [
    pytest.param(call, value, id=f"{value_id}-{call_id}")
    for call_id, call in IMAGE_CALLS.items()
    for value_id, value in NOT_IMAGES.items()
    if (call_id, value_id) != ("RGBImage", "RGBImage")  # an RGBImage holds an image
])
def test_image_calls_take_only_a_uint8_rgb_array(tmp_path, seen_requests, call, value):
    """A float, wider-integer, gray, 4-channel, empty or listed image, or an
    :class:`RGBImage`, is refused, and converted to nothing, before a file is
    written or a request is sent; the same call takes the (h, w, 3) uint8 array."""
    seen, _ = seen_requests
    sent = len(seen)
    path = tmp_path / "img.ppm"
    with pytest.raises(ValueError, match=re.escape("must be an (h, w, 3) uint8 array")):
        call(value, path, seen_requests)
    assert not path.exists() and len(seen) == sent
    call(GOOD_IMAGE, path, seen_requests)


def test_check_image_returns_the_image_itself():
    assert check_image(GOOD_IMAGE) is GOOD_IMAGE
    with pytest.raises(ValueError, match=r"^patch must be .* got int64 \(2, 2, 3\)$"):
        check_image(NOT_IMAGES["int64-300"], "patch")
