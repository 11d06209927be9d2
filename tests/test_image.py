"""Binary PPM/PGM encoding and parsing."""

import re

import numpy as np
import pytest

from sinkseg.image import (
    ImageFormatError,
    RGBImage,
    gray_from_pgm_bytes,
    image_from_ppm_bytes,
    pgm_bytes,
    ppm_bytes,
    read_pgm,
    read_ppm,
    write_pgm,
    write_ppm,
)


class TestRGBImage:
    def test_requires_three_channels(self):
        with pytest.raises(ValueError, match=r"\(h, w, 3\)"):
            RGBImage(np.zeros((4, 4), dtype=np.uint8))

    def test_pixels_coerced_to_uint8_copy(self):
        source = np.zeros((4, 4, 3), dtype=np.int64)
        img = RGBImage(source)
        source[0, 0, 0] = 9
        assert img.pixels.dtype == np.uint8
        assert img.pixels[0, 0, 0] == 0

    def test_pixels_read_only(self):
        img = RGBImage(np.zeros((2, 2, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match="read-only"):
            img.pixels[0, 0, 0] = 1


class TestPpmRoundTrip:
    def test_bytes_round_trip(self, rng):
        pixels = rng.integers(0, 256, size=(7, 5, 3), dtype=np.uint8)
        back = image_from_ppm_bytes(ppm_bytes(RGBImage(pixels)))
        assert np.array_equal(back.pixels, pixels)

    def test_file_round_trip(self, tmp_path, rng):
        pixels = rng.integers(0, 256, size=(3, 9, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(RGBImage(pixels), path)
        assert np.array_equal(read_ppm(path).pixels, pixels)

    def test_header_layout(self):
        data = ppm_bytes(RGBImage(np.zeros((2, 3, 3), dtype=np.uint8)))
        assert data.startswith(b"P6\n3 2\n255\n")
        assert len(data) == len(b"P6\n3 2\n255\n") + 2 * 3 * 3


class TestPgmRoundTrip:
    def test_bytes_round_trip(self, rng):
        values = rng.integers(0, 256, size=(6, 4), dtype=np.uint8)
        arr, maxval = gray_from_pgm_bytes(pgm_bytes(values))
        assert maxval == 255
        assert np.array_equal(arr, values)

    def test_file_round_trip(self, tmp_path, rng):
        values = rng.integers(0, 256, size=(8, 2), dtype=np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(values, path)
        arr, maxval = read_pgm(path)
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
        data = ppm_bytes(RGBImage(np.zeros((1, 1, 3), dtype=np.uint8)))
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

    @pytest.mark.parametrize("read, data", [(read_ppm, b"P6\n2 2\n255\n"),
                                            (read_pgm, b"P5\n2 2\n255\n")])
    def test_file_errors_name_the_path(self, tmp_path, read, data):
        path = tmp_path / "short.pnm"
        path.write_bytes(data)
        with pytest.raises(ImageFormatError, match=f"^{re.escape(str(path))}: truncated pixel data"):
            read(path)


class TestWriterValidation:
    def test_pgm_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            pgm_bytes(np.zeros((2, 2, 2), dtype=np.uint8))
