"""Spans recorded from outside the program, and the per-layer figures built on them.

The recorder wraps public functions. Inside ``minisphere.projection`` it
rebinds the module-level names that ``solve`` resolves at call time
(``as_cloud``, ``tolerance_for``, ``reduce``, ``welzl_solve``). Spans stay
in memory until the run ends. A name that a later version no longer has
is listed as a missing hook instead of failing the run.
"""

from __future__ import annotations

import functools
import time

# rebound name in minisphere.projection -> span name
PROJECTION_HOOKS = {
    "as_cloud": "geom.as_cloud",
    "tolerance_for": "geom.tolerance_for",
    "reduce": "projection.reduce",
    "welzl_solve": "welzl.small",
}
_INGEST = ("geom.as_cloud", "geom.tolerance_for")


class Recorder:
    """Flat list of spans: [name, start, end, parent index, call id, size]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.call_id = 0
        self.missing: list[str] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = len(args[0]) if args and hasattr(args[0], "__len__") else None
            parent = self._stack[-1] if self._stack else -1
            if parent < 0:
                self.call_id += 1
            span = [name, time.perf_counter(), None, parent, self.call_id, size]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def rebind(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._undo.append((module, attr, fn))
        setattr(module, attr, self.wrap(name, fn))

    def install_projection_hooks(self, projection) -> None:
        for attr, name in PROJECTION_HOOKS.items():
            self.rebind(projection, attr, name)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def solve_layers(spans: list[list], reports: list[dict], hooks_complete: bool) -> dict:
    """Per-layer figures of the top-level ``solve`` spans, per call unless named a share.

    ``reports`` holds one SolveReport dict per ``solve`` span, in call order.
    A figure whose spans never occurred is left out, and so is the verify
    remainder unless every projection hook was installed.
    """
    own = self_times(spans)
    tops = [i for i, s in enumerate(spans) if s[0] == "solve"]
    out: dict[str, float] = {}
    if not tops:
        return out
    calls = len(tops)
    wall = sum(spans[i][2] - spans[i][1] for i in tops)
    under = {i: [] for i in tops}
    for j, s in enumerate(spans):
        root = j
        while spans[root][3] >= 0:
            root = spans[root][3]
        if root != j and root in under:
            under[root].append(j)

    def total(names, own_time=False):
        return sum((own[j] if own_time else spans[j][2] - spans[j][1])
                   for i in tops for j in under[i] if spans[j][0] in names)

    def seen(name):
        return any(spans[j][0] == name for i in tops for j in under[i])

    out["solve.wall_ms"] = wall * 1e3 / calls
    if any(seen(n) for n in _INGEST):
        out["geom.ingest_ms"] = total(_INGEST) * 1e3 / calls
    if seen("projection.reduce"):
        reduce_s = total(("projection.reduce",), own_time=True)
        out["projection.reduce_ms"] = reduce_s * 1e3 / calls
        out["projection.reduce_share"] = reduce_s / wall
        nbytes = sum(24 * spans[j][5] for i in tops for j in under[i]
                     if spans[j][0] == "projection.reduce" and spans[j][5])
        if reduce_s > 0 and nbytes:
            out["projection.reduce_gbs_computed"] = nbytes / reduce_s / 1e9
    if seen("welzl.small"):
        small_s = total(("welzl.small",))
        out["welzl.small_ms"] = small_s * 1e3 / calls
        out["welzl.small_share"] = small_s / wall
        sizes = [[spans[j][5] for j in under[i] if spans[j][0] == "welzl.small"] for i in tops]
        out["welzl.calls_per_solve"] = sum(len(s) for s in sizes) / calls
        out["welzl.subset_points"] = sum(sum(s) for s in sizes) / max(1, sum(len(s) for s in sizes))
        appended = 0
        for s, rep in zip(sizes, reports):
            if rep.get("fallback_full_solve"):
                s = s[:-1]  # the last call is the full-cloud fallback
            if s:
                appended += s[-1] - s[0]
        out["welzl.violators_appended"] = appended / calls
    if hooks_complete and seen("projection.reduce") and seen("welzl.small"):
        out["projection.verify_ms"] = sum(own[i] for i in tops) * 1e3 / calls
    if reports:
        for key in ("k", "reduced_size", "repair_rounds"):
            vals = [r.get(key) for r in reports]
            if all(isinstance(v, (int, float)) for v in vals):
                out[f"projection.{key}"] = sum(vals) / len(vals)
        out["projection.fallback_count"] = float(sum(bool(r.get("fallback_full_solve")) for r in reports))
    return out
