"""Raster containers, ASCII grid I/O, and grid arithmetic."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinkseg import raster
from sinkseg.errors import GridFormatError
from sinkseg.raster import (
    BinaryMask,
    Raster,
    invert_depth,
    read_ascii_grid,
    read_ascii_mask,
    write_ascii_grid,
    write_ascii_mask,
)


def grid_text(rows, ncols=None, nrows=None, nodata="-9999.0"):
    ncols = ncols if ncols is not None else len(rows[0].split())
    nrows = nrows if nrows is not None else len(rows)
    header = [
        f"ncols {ncols}",
        f"nrows {nrows}",
        "xllcorner 0.0",
        "yllcorner 0.0",
        "cellsize 1.0",
        f"NODATA_value {nodata}",
    ]
    return "\n".join(header + list(rows)) + "\n"


class TestRasterType:
    def test_values_are_float64_and_read_only(self):
        r = Raster(np.array([[1, 2], [3, 4]], dtype=np.int32))
        assert r.values.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            r.values[0, 0] = 9.0

    @pytest.mark.parametrize("kind", [Raster, BinaryMask])
    def test_values_are_copied(self, kind):
        """The container copies the caller's float64 array: writing the
        caller's array afterwards leaves the stored values as they were, and
        the caller's array stays writable."""
        values = np.array([[0.0, 1.0], [1.0, 0.0]])
        grid = kind(values)
        values[:] = 1.0 - values
        assert values.flags.writeable
        assert np.array_equal(grid.values, [[0, 1], [1, 0]])
        assert not grid.values.flags.writeable
        assert not np.shares_memory(grid.values, values)

    def test_dimensions(self):
        r = Raster(np.zeros((3, 5)))
        assert (r.height, r.width) == (3, 5)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            Raster(np.zeros(4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least 1x1"):
            Raster(np.zeros((0, 3)))

    def test_rejects_nan_values(self):
        with pytest.raises(ValueError, match="non-finite"):
            Raster(np.array([[1.0, np.nan]]))

    @settings(max_examples=200, deadline=None)
    @given(
        cells=st.lists(
            st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -9999.0]),
            min_size=1,
            max_size=9,
        )
    )
    def test_accepted_iff_every_valid_cell_is_finite(self, cells):
        values = np.array(cells).reshape(1, -1)
        finite = bool(np.isfinite(values[values != -9999.0]).all())
        try:
            Raster(values)
        except ValueError as exc:
            assert "non-finite" in str(exc) and not finite
        else:
            assert finite

    def test_rejects_nonpositive_cellsize(self):
        with pytest.raises(ValueError, match="cellsize"):
            Raster(np.zeros((2, 2)), cellsize=0.0)

    def test_valid_mask(self):
        r = Raster(np.array([[1.0, -9999.0], [2.0, 3.0]]))
        assert r.valid_mask().tolist() == [[True, False], [True, True]]


class TestBinaryMask:
    def test_accepts_zero_one_ints(self):
        m = BinaryMask(np.array([[0, 1], [1, 0]]))
        assert m.values.dtype == np.bool_
        assert m.count() == 2

    def test_rejects_other_values(self):
        with pytest.raises(ValueError, match="0 or 1"):
            BinaryMask(np.array([[0, 2]]))


class TestAsciiGridRoundTrip:
    def test_known_grid(self, tmp_path):
        values = np.array([[1.5, 2.0, -3.25], [0.1, -9999.0, 7.0]])
        r = Raster(values, origin_x=100.25, origin_y=-7.5, cellsize=0.5)
        path = tmp_path / "g.asc"
        write_ascii_grid(r, path)
        back = read_ascii_grid(path)
        assert np.array_equal(back.values, r.values)
        assert back.geotransform == r.geotransform
        assert back.nodata == r.nodata

    def test_awkward_floats_survive_bit_exact(self, tmp_path):
        values = np.array([[1 / 3, 1e-17, 2.0**-40], [1e17 + 1, -0.1, 123456.789012345]])
        path = tmp_path / "g.asc"
        write_ascii_grid(Raster(values), path)
        assert np.array_equal(read_ascii_grid(path).values, values)

    @settings(max_examples=50, deadline=None)
    @given(
        cells=st.lists(
            st.floats(
                min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
            ),
            min_size=6,
            max_size=6,
        )
    )
    def test_round_trip_is_identity(self, cells, tmp_path_factory):
        values = np.array(cells).reshape(2, 3)
        r = Raster(values)
        path = tmp_path_factory.mktemp("grids") / "g.asc"
        write_ascii_grid(r, path)
        assert np.array_equal(read_ascii_grid(path).values, values)

    def test_random_grids_round_trip(self, tmp_path, rng):
        for i in range(20):
            h, w = rng.integers(1, 30, size=2)
            values = rng.normal(size=(h, w)) * 10.0 ** rng.integers(-6, 7)
            path = tmp_path / f"g{i}.asc"
            write_ascii_grid(Raster(values), path)
            assert np.array_equal(read_ascii_grid(path).values, values)

    def test_nodata_written_as_header_token(self, tmp_path):
        r = Raster(np.array([[1.0, -9999.0]]))
        path = tmp_path / "g.asc"
        write_ascii_grid(r, path)
        lines = path.read_text().splitlines()
        assert lines[5] == "NODATA_value -9999.0"
        assert lines[6].split() == ["1.0", "-9999.0"]


class TestAsciiGridParsing:
    def test_case_insensitive_header_keywords(self, tmp_path):
        text = "NCOLS 2\nNrows 1\nXLLCORNER 10\nyllcorner 20\nCellSize 2\nnodata_VALUE -1\n3 4\n"
        path = tmp_path / "g.asc"
        path.write_text(text)
        r = read_ascii_grid(path)
        assert r.values.tolist() == [[3.0, 4.0]]
        assert r.geotransform == (10.0, 20.0, 2.0)
        assert r.nodata == -1.0

    def test_nodata_token_matched_verbatim(self, tmp_path):
        # integer token in both header and data parses to the sentinel
        path = tmp_path / "g.asc"
        path.write_text(grid_text(["1.5 -9999"], nodata="-9999"))
        r = read_ascii_grid(path)
        assert r.values[0, 1] == -9999.0
        assert not r.valid_mask()[0, 1]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_ascii_grid(tmp_path / "absent.asc")

    def test_missing_header_line(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text("ncols 2\nnrows 1\n")
        with pytest.raises(GridFormatError, match="line 3"):
            read_ascii_grid(path)

    def test_wrong_header_keyword(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\npixelsize 1\nNODATA_value -9999\n1 2\n"
        )
        with pytest.raises(GridFormatError, match="line 5.*cellsize"):
            read_ascii_grid(path)

    def test_cell_count_mismatch_names_line(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(grid_text(["1 2", "3 4"], ncols=3))
        with pytest.raises(GridFormatError, match="line 7.*cell count mismatch"):
            read_ascii_grid(path)

    def test_non_numeric_token_names_line(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(grid_text(["1 2", "3 oops"]))
        with pytest.raises(GridFormatError, match="line 8.*'oops'"):
            read_ascii_grid(path)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(grid_text(["1 2"], nrows=3))
        with pytest.raises(GridFormatError, match="expected 3 data rows"):
            read_ascii_grid(path)

    @pytest.mark.parametrize(
        "ncols, nrows, message",
        [
            (10**6, 10**6, r"line 7: cell count mismatch \(expected 1000000 values, got 3\)"),
            (3, 10**9, "expected 1000000000 data rows, found 1"),
        ],
        ids=["wide-and-tall", "tall"],
    )
    def test_header_larger_than_the_file_fails_before_allocating(
        self, tmp_path, ncols, nrows, message
    ):
        path = tmp_path / "g.asc"
        path.write_text(grid_text(["1 2 3"], ncols=ncols, nrows=nrows))
        tracemalloc.start()
        try:
            with pytest.raises(GridFormatError, match=message):
                read_ascii_grid(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_extra_rows(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(grid_text(["1 2", "3 4", "5 6"], nrows=2))
        with pytest.raises(GridFormatError, match="extra data row"):
            read_ascii_grid(path)

    def test_bad_dimensions(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(grid_text(["1 2"], ncols=0, nrows=1))
        with pytest.raises(GridFormatError, match="ncols/nrows"):
            read_ascii_grid(path)

    def test_non_numeric_header_value(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "ncols 2\nnrows 1\nxllcorner zero\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n1 2\n"
        )
        with pytest.raises(GridFormatError, match="non-numeric"):
            read_ascii_grid(path)


GOOD_TOKENS = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["-0.0", "0.0", "-0", "+0", ".5", "5.", "1e5", "1E-5", "+1.5",
                     "nan", "-nan", "Infinity", "-inf", "-9999", "-9999.0", "-9.999e3"]),
)
BAD_TOKENS = st.sampled_from(
    ["#", "#1", "1_0", "abc", "1,5", "0x10", "1e", "--1", "1.2.3", "1d5", "'1'"]
)
NODATA_TOKENS = st.sampled_from(["-9999", "-9999.0", "-9.999e3", "-0.0", "0", "1_0"])


@st.composite
def grid_texts(draw):
    """ASCII grid text, sometimes malformed: ragged, short, long or non-numeric."""
    nodata = draw(NODATA_TOKENS)
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cell = st.one_of(GOOD_TOKENS, GOOD_TOKENS, GOOD_TOKENS, st.just(nodata), BAD_TOKENS)
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [f"ncols {ncols}", f"nrows {nrows}", "xllcorner 0.0", "yllcorner 0.0",
             "cellsize 1.0", f"NODATA_value {nodata}"]
    for _ in range(max(0, nrows + draw(st.sampled_from([0, 0, 0, -1, 1])))):
        lines.extend(draw(st.lists(st.sampled_from(["", "  ", "\t"]), max_size=1)))
        width = max(0, ncols + draw(st.sampled_from([0, 0, 0, 0, 0, -1, 1])))
        sep = draw(st.sampled_from([" ", "  ", "\t"]))
        row = sep.join(draw(st.lists(cell, min_size=width, max_size=width)))
        lines.append(draw(st.sampled_from(["", " "])) + row + draw(st.sampled_from(["", " ", "\t"])))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


def parse_outcome(parse, path):
    """A parser's result as comparable values: header and cell bits, or the error."""
    try:
        header, data = parse(path)
    except GridFormatError as exc:
        return str(exc)
    return repr(header), data.shape, data.view(np.int64).tolist()


class TestFastParserOracle:
    """``_parse_grid`` reads with numpy; the line-by-line parser is its oracle."""

    @settings(max_examples=300, deadline=None)
    @given(text=grid_texts())
    @example(text=grid_text([], 3, 1) + "-0.0 0.0 -0\n")  # signed zeros
    @example(text=grid_text([], 2, 1, "-9999") + "-9999.0 -9.999e3\n")  # nodata respelled
    @example(text=grid_text([], 2, 1, "1_0") + "1_0 10\n")  # nodata numpy cannot read
    @example(text=grid_text([], 4, 1) + "1 2 3 4\n")  # 1xN
    @example(text=grid_text([], 1, 3) + "1\n2\n3\n")  # Nx1
    @example(text=grid_text([], 2, 2) + "\n1 2\n  \n\n3 4\n\n")  # blank lines
    @example(text=grid_text([], 2, 2).replace("\n", "\r\n") + "1 2\r\n3 4\r\n")  # CRLF
    @example(text=grid_text([], 2, 2) + "1 2  \n3 4\t\n")  # trailing spaces
    @example(text=grid_text([], 2, 2) + "1 2\n3\n")  # ragged
    @example(text=grid_text([], 2, 3) + "1 2\n3 4\n")  # a row missing
    @example(text=grid_text([], 2, 1) + "1 2\n3 4\n")  # an extra row
    @example(text=grid_text([], 2, 1) + "1 oops\n")  # non-numeric
    @example(text=grid_text([], 2, 1) + "1 2 # x\n")  # '#' is a cell, not a comment
    @example(text=grid_text([], 2, 1) + "1_0 2\n")  # Python reads 1_0, numpy does not
    @example(text=grid_text([], 2, 2) + "1\x0c2\n3 4\n")  # form feed splits cells, not rows
    @example(text=grid_text([], 2, 1))  # no data rows at all
    def test_fast_path_equals_line_parser(self, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("grids") / "g.asc"
        path.write_bytes(text.encode())
        assert parse_outcome(raster._parse_grid, path) == parse_outcome(
            raster._parse_grid_lines, path
        )

    def test_well_formed_grid_skips_line_parser(self, tmp_path, monkeypatch, rng):
        values = rng.normal(size=(5, 7))
        values[2, 3] = -9999.0
        path = tmp_path / "g.asc"
        write_ascii_grid(Raster(values), path)
        monkeypatch.setattr(raster, "_parse_grid_lines", None)
        assert np.array_equal(read_ascii_grid(path).values, values)

    @pytest.mark.parametrize("body", ["", "\n  \n\t\n"])
    def test_no_data_rows_is_an_error_not_a_warning(self, tmp_path, body):
        path = tmp_path / "g.asc"
        path.write_text(grid_text([], 2, 1) + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridFormatError, match="expected 1 data rows, found 0"):
                read_ascii_grid(path)

    def test_token_numpy_rejects_falls_back(self, tmp_path, monkeypatch):
        path = tmp_path / "g.asc"
        path.write_text(grid_text([], 2, 1) + "1_0 2\n")
        calls = []
        original = raster._parse_grid_lines
        monkeypatch.setattr(raster, "_parse_grid_lines", lambda p: calls.append(p) or original(p))
        assert read_ascii_grid(path).values.tolist() == [[10.0, 2.0]]
        assert calls == [path]


def mask_bytes_by_join(mask):
    """``write_ascii_mask`` output as built before it was vectorised."""
    lines = [
        f"ncols {mask.width}",
        f"nrows {mask.height}",
        f"xllcorner {repr(mask.origin_x)}",
        f"yllcorner {repr(mask.origin_y)}",
        f"cellsize {repr(mask.cellsize)}",
        f"NODATA_value {repr(-9999.0)}",
    ]
    ints = mask.values.astype(np.int64)
    lines.extend(" ".join(str(v) for v in ints[r].tolist()) for r in range(mask.height))
    return ("\n".join(lines) + "\n").encode()


class TestMaskIO:
    @settings(max_examples=100, deadline=None)
    @given(
        cells=st.integers(1, 6).flatmap(
            lambda w: st.lists(st.lists(st.booleans(), min_size=w, max_size=w),
                               min_size=1, max_size=6)
        ),
        origin=st.tuples(st.floats(-1e9, 1e9), st.floats(-1e9, 1e9)),
        cellsize=st.floats(1e-6, 1e6),
    )
    def test_bytes_equal_joined_rows(self, cells, origin, cellsize, tmp_path_factory):
        mask = BinaryMask(np.array(cells), origin_x=origin[0], origin_y=origin[1],
                          cellsize=cellsize)
        path = tmp_path_factory.mktemp("masks") / "m.asc"
        write_ascii_mask(mask, path)
        assert path.read_bytes() == mask_bytes_by_join(mask)

    def test_round_trip(self, tmp_path, rng):
        m = BinaryMask(rng.random((7, 9)) > 0.5)
        path = tmp_path / "m.asc"
        write_ascii_mask(m, path)
        back = read_ascii_mask(path)
        assert np.array_equal(back.values, m.values)

    def test_writes_integer_tokens(self, tmp_path):
        path = tmp_path / "m.asc"
        write_ascii_mask(BinaryMask(np.array([[1, 0]])), path)
        assert path.read_text().splitlines()[6] == "1 0"

    def test_rejects_non_binary_values(self, tmp_path):
        path = tmp_path / "m.asc"
        path.write_text(grid_text(["0 0.5"]))
        with pytest.raises(GridFormatError, match=r"non-binary value 0\.5$"):
            read_ascii_mask(path)


def mask_outcome(path):
    """``read_ascii_mask``'s result as comparable values, or its error text."""
    try:
        mask = read_ascii_mask(path)
    except GridFormatError as exc:
        return str(exc)
    return mask.values.tolist(), mask.geotransform


def mask_outcome_by_parser(path):
    """:func:`mask_outcome` with the byte reader switched off: the grid parser's."""
    with mock.patch.object(raster, "_read_mask_bytes", lambda path: None):
        return mask_outcome(path)


class TestMaskBytesReader:
    """``read_ascii_mask`` reads ``write_ascii_mask``'s layout as one byte buffer;
    the grid parser it falls back to for any other layout is its oracle."""

    @settings(max_examples=100, deadline=None)
    @given(
        cells=st.integers(1, 9).flatmap(
            lambda w: st.lists(st.lists(st.booleans(), min_size=w, max_size=w),
                               min_size=1, max_size=9)
        ),
        origin=st.tuples(st.floats(-1e9, 1e9), st.floats(-1e9, 1e9)),
        cellsize=st.floats(1e-6, 1e6),
    )
    def test_equals_the_grid_parser(self, cells, origin, cellsize, tmp_path_factory):
        mask = BinaryMask(np.array(cells), origin_x=origin[0], origin_y=origin[1],
                          cellsize=cellsize)
        path = tmp_path_factory.mktemp("masks") / "m.asc"
        write_ascii_mask(mask, path)
        assert raster._read_mask_bytes(path) is not None  # the byte reader took it
        assert mask_outcome(path) == mask_outcome_by_parser(path)
        assert mask_outcome(path) == (cells, mask.geotransform)

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda b: b.replace(b"\n", b"\r\n"), None),
            (lambda b: b.replace(b" ", b"  "), None),
            (lambda b: b + b"\n", None),
            (lambda b: b.replace(b"xllcorner 0.0", b"xllcorner 0"), None),
            (lambda b: b.replace(b"NODATA_value -9999.0", b"NODATA_value 0"), None),
            (lambda b: b[:-8] + b"2" + b[-7:], "mask contains non-binary value"),
            (lambda b: b[:-3], "line 10: cell count mismatch (expected 4 values, got 3)"),
            (lambda b: b.replace(b"ncols 4", b"ncols 1000000"),
             "line 7: cell count mismatch (expected 1000000 values, got 4)"),
            (lambda b: b.replace(b"xllcorner", b"\xffllcorner"), "not a text grid"),
        ],
        ids=["crlf", "doubled-spaces", "trailing-blank-line", "respelled-header",
             "other-nodata", "digit-2", "truncated-body", "huge-header", "not-utf8"],
    )
    def test_any_other_layout_goes_to_the_grid_parser(self, tmp_path, edit, error):
        values = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1]])
        path = tmp_path / "m.asc"
        write_ascii_mask(BinaryMask(values), path)
        path.write_bytes(edit(path.read_bytes()))
        assert raster._read_mask_bytes(path) is None
        outcome = mask_outcome(path)
        assert outcome == mask_outcome_by_parser(path)
        if error is None:
            assert outcome == (values.astype(bool).tolist(), (0.0, 0.0, 1.0))
        else:
            assert error in outcome


class TestInvertDepth:
    def test_reflects_about_max(self):
        r = Raster(np.array([[0.0, 2.0, 5.0]]))
        assert invert_depth(r).values.tolist() == [[5.0, 3.0, 0.0]]

    def test_nodata_passes_through(self):
        r = Raster(np.array([[1.0, -9999.0, 3.0]]))
        assert invert_depth(r).values.tolist() == [[2.0, -9999.0, 0.0]]

    def test_all_nodata_rejected(self):
        r = Raster(np.full((2, 2), -9999.0))
        with pytest.raises(ValueError, match="all cells are nodata"):
            invert_depth(r)

    def test_double_inversion_shifts_to_zero_minimum(self, rng):
        values = rng.normal(size=(6, 6))
        r = Raster(values)
        twice = invert_depth(invert_depth(r))
        assert np.allclose(twice.values, values - values.min())

