import json

import numpy as np
import pytest

from minisphere import cloudio
from minisphere.cloudio import FORMATS, detect_format, load_points, save_points
from minisphere.errors import InvalidGeometryError, ParseError, UnknownFormatError


def test_format_detection(tmp_path):
    assert detect_format("a/b/cloud.csv") == "csv"
    assert detect_format("cloud.XYZ") == "xyz"
    assert detect_format("x.json") == "json"
    with pytest.raises(UnknownFormatError):
        detect_format("points.parquet")
    with pytest.raises(UnknownFormatError):
        detect_format("noextension")


@pytest.mark.parametrize("fmt", FORMATS)
def test_round_trip_bit_exact(fmt, tmp_path):
    rng = np.random.default_rng(3)
    P = rng.normal(size=(50, 3)) * np.array([1e-8, 1.0, 1e8])
    path = tmp_path / f"cloud.{fmt}"
    save_points(path, P, fmt=fmt)
    Q = load_points(path)
    assert np.array_equal(P, Q)  # repr round-trip keeps every bit


def test_csv_header_optional(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("x,y,z\n1,2,3\n4,5,6\n")
    assert np.array_equal(load_points(p), [[1, 2, 3], [4, 5, 6]])
    q = tmp_path / "nh.csv"
    q.write_text("1,2,3\n4,5,6\n")
    assert np.array_equal(load_points(q), [[1, 2, 3], [4, 5, 6]])


def test_xyz_comments_and_blanks(tmp_path):
    p = tmp_path / "c.xyz"
    p.write_text("# a comment\n1 2 3\n\n4 5 6  # trailing note\n")
    assert np.array_equal(load_points(p), [[1, 2, 3], [4, 5, 6]])


def test_parse_error_carries_line_number(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2,3\n4,oops,6\n")
    with pytest.raises(ParseError) as ei:
        load_points(p)
    assert ei.value.line == 2

    q = tmp_path / "short.xyz"
    q.write_text("1 2 3\n4 5\n")
    with pytest.raises(ParseError) as ei:
        load_points(q)
    assert ei.value.line == 2

    # a first row with one numeric field is data, not a header
    h = tmp_path / "half.csv"
    h.write_text("1.0,abc,3\n0,0,0\n1,1,1\n")
    with pytest.raises(ParseError) as ei:
        load_points(h)
    assert ei.value.line == 1


def test_json_structure_checks(tmp_path):
    p = tmp_path / "a.json"
    p.write_text(json.dumps({"points": [[1, 2, 3]]}))
    assert np.array_equal(load_points(p), [[1, 2, 3]])

    for bad in ('{"pts": []}', '{"points": [[1,2]]}', "[1,2,3]", "{not json"):
        p.write_text(bad)
        with pytest.raises(ParseError):
            load_points(p)

    # only JSON numbers are coordinates: not numeric strings, booleans or null
    for row in ('["1.5", true, 0]', '[1.5, true, 0]', '[1, 2, null]', '[1, 2, "3"]', "[1, 2, 1%s]" % ("0" * 400)):
        p.write_text('{"points": [[0, 0, 1], %s]}' % row)
        with pytest.raises(ParseError, match=r"points\[1\]"):
            load_points(p)


def test_fmt_override_beats_extension(tmp_path):
    p = tmp_path / "data.txt"
    p.write_text("7 8 9\n")
    assert np.array_equal(load_points(p, fmt="xyz"), [[7, 8, 9]])


def test_empty_file_loads_as_empty_cloud(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("")
    assert load_points(p).shape == (0, 3)


@pytest.mark.parametrize("fmt", FORMATS)
def test_save_writes_only_n_by_3_clouds(fmt, tmp_path):
    """A (2, 6) array is not four points, and a (5,) array is not a cloud."""
    p = tmp_path / f"bad.{fmt}"
    for bad in (np.arange(12.0).reshape(2, 6), np.arange(5.0)):
        with pytest.raises(InvalidGeometryError):
            save_points(p, bad)
    assert not p.exists()
    save_points(p, np.empty((0, 3)))
    assert load_points(p).shape == (0, 3)
    if fmt != "json":
        assert p.read_text() == ""


@pytest.mark.parametrize("bad", [[[0, "x", 1]], [[0.0, 1.0, 2.0], [3.0, 4.0]], np.array([[0, 1, 1 + 2j]])],
                         ids=["string", "ragged", "complex"])
def test_save_refuses_what_is_not_real_numbers(bad, tmp_path):
    """A string, ragged rows or a complex coordinate is invalid geometry,
    not NumPy's bare ValueError or a file written without the imaginary part."""
    p = tmp_path / "bad.xyz"
    with pytest.raises(InvalidGeometryError):
        save_points(p, bad)
    assert not p.exists()


# name -> (file text, whether the bulk call reads it; else the line parser decides)
_PARITY = {
    "crlf.xyz": ("1 2 3\r\n4 5 6\r\n", True),
    "vt-ff-breaks.xyz": ("1 2 3\x0b4 5 6\x0c7 8 9\n", True),
    "vt-inside-row.xyz": ("1\x0b2 3\n", False),
    "blank-comment-lines.xyz": ("# header\n\n1 2 3  # tail\n   \n# only\n4\t5\t6\n", True),
    "specials.xyz": ("nan infinity -0\n1e500 -inf 0\n", True),
    "underscore.xyz": ("1_0 2 3\n", False),
    "arabic-digit.xyz": ("١ 2 3\n", False),
    "one-point.xyz": ("1 2 3", True),
    "empty.xyz": ("", True),
    "comments-only.xyz": ("# a\n# b\n", True),
    "two-tokens.xyz": ("1 2 3\n4 5\n", False),
    "four-tokens.xyz": ("1 2 3 4\n", False),
    "bad-token.xyz": ("1 2 3\n1 2 x\n", False),
    "crlf-header.csv": ("x,y,z\r\n1,2,3\r\n4,5,6\r\n", True),
    "blank-then-header.csv": ("\n  \nx, y, z\n1, 2, 3\n", True),
    "header-only.csv": ("x,y,z\n", True),
    "tabs.csv": ("1,\t2,\t3\n", True),
    "whitespace-line.csv": ("1,2,3\n   \n4,5,6\n", False),
    "vt-breaks.csv": ("1,2,3\x0b4,5,6\x0c\n", True),
    "half-header.csv": ("1.0,abc,3\n0,0,0\n", False),
    "specials.csv": ("nan,infinity,-0\n1e500,-inf,0\n", True),
    "underscore-arabic.csv": ("1_0,١,3\n", False),
    "comment.csv": ("1,2,3 # c\n", False),
    "two-fields.csv": ("1,2\n", False),
    "four-fields.csv": ("1,2,3,4\n", False),
    "empty.csv": ("", True),
    "one-point.json": ('{"points": [[1, 2, 3]]}', True),
    "numbers.json": ('{"points": [[-0, 0.5, 1e500], [NaN, Infinity, -Infinity], [%d, %d, %d]]}'
                     % (2 ** 53 + 1, 2 ** 64 + 1, 10 ** 308), True),
    "no-points.json": ('{"points": []}', True),
    "bool.json": ('{"points": [[0, 0, 1], [1.5, true, 0]]}', False),
    "string.json": ('{"points": [[1, 2, "3"]]}', False),
    "nested.json": ('{"points": [[1, [2], 3]]}', False),
    "huge-int.json": ('{"points": [[0, 0, 1], [%d, 0, 0]]}' % 2 ** 1100, False),
    "short-row.json": ('{"points": [[1, 2, 3], [1, 2]]}', False),
    "top-level-list.json": ("[]", False),
}


def _outcome(path):
    try:
        P = load_points(path)
    except ParseError as exc:
        return "ParseError", str(exc), exc.line
    return P.dtype, P.shape, P.tobytes()


@pytest.mark.parametrize("name", sorted(_PARITY))
def test_bulk_read_matches_line_parser(name, tmp_path, monkeypatch):
    """The bulk call and the line parser give the same array bit for bit,
    or the same ParseError with the same line; the bulk call reads the
    files it should, and the rest fall to the line parser."""
    text, in_bulk = _PARITY[name]
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    read = []

    def spy(fn):
        def traced(*args):
            out = fn(*args)
            read.append(out is not None)
            return out
        return traced

    monkeypatch.setattr(cloudio, "_bulk", spy(cloudio._bulk))
    monkeypatch.setattr(cloudio, "_json_bulk", spy(cloudio._json_bulk))
    bulk = _outcome(path)
    assert any(read) == in_bulk
    monkeypatch.setattr(cloudio, "_bulk", lambda *args: None)
    monkeypatch.setattr(cloudio, "_json_bulk", lambda pts: None)
    assert _outcome(path) == bulk
