"""Traced stand-in for ``python -m minisphere``: same arguments, same output.

Times ``import minisphere``, installs the span hooks, runs ``cli.main`` and
writes the spans as JSON to the path in ``PERFBENCH_SPANS``.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
import minisphere  # noqa: E402
from minisphere import cli, projection  # noqa: E402

import_s = time.perf_counter() - t0

from spans import Recorder  # noqa: E402

rec = Recorder()
rec.install_projection_hooks(projection)
rec.rebind(cli, "load_points", "cloudio.load")
rec.rebind(cli, "solve", "solve")
code = cli.main(sys.argv[1:])
sys.stdout.flush()
with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
    json.dump({"import_s": import_s, "minisphere": minisphere.__file__,
               "missing": rec.missing, "spans": rec.spans}, fh)
sys.exit(code)
