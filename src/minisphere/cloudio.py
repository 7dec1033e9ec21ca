"""Point-cloud file formats: CSV, XYZ, JSON.

CSV is ``x,y,z`` per line with an optional header row. XYZ is whitespace
separated triples with ``#`` comments. JSON is ``{"points": [[x, y, z],
...]}``. Floats are written as their shortest round-trip decimal, so a
write/read cycle reproduces coordinates bit-exactly in every format.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import InvalidGeometryError, ParseError, UnknownFormatError

FORMATS = ("csv", "xyz", "json")

_EXT = {".csv": "csv", ".xyz": "xyz", ".json": "json"}
_NUMBER = (int, float)  # the types json gives JSON numbers; bool, a subclass of int, is not one


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


def _load_csv(text: str) -> list:
    rows = []
    first_data = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = [t.strip() for t in line.split(",")]
        if first_data:
            first_data = False
            if not any(map(_is_float, tokens)):
                continue  # optional header row: no field is numeric
        rows.append(_triple(tokens, lineno))
    return rows


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _load_xyz(text: str) -> list:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rows.append(_triple(line.split(), lineno))
    return rows


def _load_json(text: str) -> list:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    if not isinstance(doc, dict) or "points" not in doc:
        raise ParseError('expected a JSON object with a "points" key')
    pts = doc["points"]
    if not isinstance(pts, list):
        raise ParseError('"points" must be a list of [x, y, z] triples')
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
    return rows


def load_points(path, fmt: str | None = None) -> np.ndarray:
    """Read a point cloud; returns an (N, 3) float64 array, N possibly 0.

    Format comes from ``fmt`` or, when omitted, the file extension.
    Malformed content raises ParseError carrying a line number where one
    makes sense. No geometric validation happens here.
    """
    fmt = _check_format(fmt) if fmt else detect_format(path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    loader = {"csv": _load_csv, "xyz": _load_xyz, "json": _load_json}[fmt]
    rows = loader(text)
    if not rows:
        return np.empty((0, 3), dtype=np.float64)
    return np.array(rows, dtype=np.float64)


def _fmt_float(x: float) -> str:
    return repr(float(x))


def save_points(path, points, fmt: str | None = None) -> None:
    """Write an (N, 3) point cloud, N possibly 0, in the chosen or
    extension-implied format; any other shape raises InvalidGeometryError."""
    fmt = _check_format(fmt) if fmt else detect_format(path)
    P = np.asarray(points, dtype=np.float64)
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
