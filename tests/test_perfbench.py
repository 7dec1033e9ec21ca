"""The benchmark's hooks still name the program's functions.

``perfbench/spans.py`` traces a solve by rebinding names in
``minisphere.projection`` and lists a name it cannot find as a missing hook
instead of failing, so a rename in the program would silently drop the
traced per-layer figures. These tests only read ``perfbench/``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from minisphere import projection
from minisphere.datagen import generate

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_projection_hooks_name_callables():
    for attr in _spans_module().PROJECTION_HOOKS:
        assert callable(getattr(projection, attr, None)), attr


def test_traced_solve_records_reduce_and_small_solve():
    """On a whole cloud (2,000 points, stride 1) and on a sampled one
    (2e5 points), the hooks see one reduce and one small solve."""
    spans = _spans_module()
    for n in (2000, 200_000):
        rec = spans.Recorder()
        before = {attr: getattr(projection, attr) for attr in spans.PROJECTION_HOOKS}
        rec.install_projection_hooks(projection)
        try:
            rep = rec.wrap("solve", projection.solve)(generate("uniform-ball", n, seed=1))
        finally:
            rec.uninstall()
        assert (projection._stride(n) > 1) == (n > 2000)
        assert rec.missing == []
        names = [s[0] for s in rec.spans]
        assert {"solve", "projection.reduce", "welzl.small"} <= set(names), names
        assert names.count("projection.reduce") == names.count("welzl.small") == 1, names
        assert [s[5] for s in rec.spans if s[0] == "projection.reduce"] == [len(range(0, n, projection._stride(n)))]
        assert all(getattr(projection, attr) is fn for attr, fn in before.items())
        layers = spans.solve_layers(rec.spans, [rep.to_dict()], hooks_complete=True)
        assert {"projection.reduce_ms", "welzl.small_ms", "projection.verify_ms"} <= set(layers), layers
