"""Benchmark of the checked-out ``src/minisphere``: three closed-loop workloads.

    python3 perfbench/run.py --workload bulk-1e6 --seed 1 --seconds 25 --trace 0

Run from the repository root. One caller in one process sends the next call
only when the previous one has returned. Every timed call is checked
outside its timed window. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; ``--trace 0`` gives the
end-to-end metrics, ``--trace 1`` the per-layer ones. A full record of the
run (provenance, input hashes, failures) is written under .perfbench-out/.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
# BLAS reads these once, when numpy loads it; children inherit them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from spans import Recorder, solve_layers  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("bulk-1e6", "repair-shell", "cli-1e4")
FORMATS = ("xyz", "csv", "json")
CHILD_TIMEOUT_S = 120
# SolveReport fields behind the exact counts; the CLI's JSON report has the same keys
REPORT_FIELDS = ("k", "reduced_size", "repair_rounds", "fallback_full_solve")
SETUP_REPS = 3  # set-ups per untraced run; setup_s takes their median
OVERHEAD_CALLS = 2  # calls timed both untraced and traced for trace.overhead_frac
PROBES = 3  # fresh interpreters per cli.interp_ms and cli.import_ms probe


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Config:
    bulk_n: int = 1_000_000
    shell_n: int = 20_000
    shells: int = 96
    cli_n: int = 10_000


TINY = Config(bulk_n=3000, shell_n=4000, shells=2, cli_n=200)


class Program:
    """The checked-out package, imported from ``src/`` and nowhere else."""

    def __init__(self):
        if not (SRC / "minisphere" / "__init__.py").is_file():
            raise BenchError(f"no minisphere package under {SRC}")
        sys.path.insert(0, str(SRC))
        t0 = time.perf_counter()
        import minisphere
        from minisphere import projection, welzl
        self.import_s = time.perf_counter() - t0
        path = Path(minisphere.__file__).resolve()
        if SRC.resolve() not in path.parents:
            raise BenchError(f"minisphere was imported from {path}, not from {SRC}")
        self.projection = projection
        self.path = str(path.parent)
        self.solve = projection.solve
        self.welzl_solve = welzl.welzl_solve
        # first calls pay lazy set-up (BLAS start, caches) once; users pay it once per process
        t0 = time.perf_counter()
        P = inputs.make_cloud("uniform-ball", 4096, inputs.rng_for(0, 0, 0))
        self.solve(P, seed=0)
        self.welzl_solve(P, seed=0)
        self.warmup_s = time.perf_counter() - t0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _item(label: str, P: np.ndarray, prog: Program, center=None, **extra) -> dict:
    """One input with its reference; ``center`` is a guess at the sphere's centre."""
    box_center, D = inputs.bbox(P)
    r, certified = inputs.reference(P, prog.welzl_solve, box_center if center is None else center, D)
    return {"label": label, "P": P, "n": len(P), "D": D, "ref_r": r, "certified": certified,
            "sha256": inputs.sha256(P), **extra}


def setup_bulk(cfg: Config, seed: int, prog: Program) -> list:
    return [_item(kind, inputs.make_cloud(kind, cfg.bulk_n, inputs.rng_for(seed, 1, k)), prog)
            for k, kind in enumerate(inputs.KINDS)]


def setup_repair(cfg: Config, seed: int, prog: Program) -> list:
    return [_item(f"shell-{j}", inputs.make_shell(cfg.shell_n, inputs.rng_for(seed, 2, j)), prog, np.zeros(3))
            for j in range(cfg.shells)]


def _write(path: Path, P: np.ndarray, fmt: str) -> None:
    """Shortest round-trip decimals, so the file holds P bit-exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        if fmt == "json":
            # dumps, not dump: only dumps takes the C encoder
            fh.write(json.dumps({"points": P.tolist()}) + "\n")
        else:
            sep = "," if fmt == "csv" else " "
            fh.write("".join(f"{x!r}{sep}{y!r}{sep}{z!r}\n" for x, y, z in P.tolist()))


def setup_cli(cfg: Config, seed: int, prog: Program) -> list:
    """Every kind at every transform, 28 files; formats rotate independently."""
    WORK.mkdir(exist_ok=True)
    items = []
    for k, kind in enumerate(inputs.KINDS):
        base = inputs.make_cloud(kind, cfg.cli_n, inputs.rng_for(seed, 3, k))
        for tname in inputs.TRANSFORMS:
            i = len(items)
            fmt = FORMATS[i % 3]
            P = inputs.transform(base, tname)
            path = WORK / f"cli-{i:02d}-{kind}-{tname}.{fmt}"
            _write(path, P, fmt)
            item = _item(f"{kind}/{tname}/{fmt}", P, prog, path=path, fmt=fmt)
            item["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
            items.append(item)
    return items


SETUP = {"bulk-1e6": setup_bulk, "repair-shell": setup_repair, "cli-1e4": setup_cli}


def warm_cli(item: dict, seed: int) -> None:
    """One untimed CLI call, so the first timed child finds the files it reads in the page cache."""
    subprocess.run([sys.executable, "-m", "minisphere", "solve", str(item["path"]), "--seed", str(seed)],
                   cwd=ROOT, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S)


class Runner:
    """Calls into the program for one workload; records times and failures."""

    def __init__(self, workload: str, items: list, seed: int, prog: Program):
        self.workload, self.items, self.seed, self.prog = workload, items, seed, prog
        self.calls: list[dict] = []  # one per timed call
        self.failures: list[dict] = []
        self.reports: list[dict] = []  # SolveReport dicts of traced solves
        self.rec: Recorder | None = None
        self.child_spans: list[dict] = []

    def _fail(self, call: dict, why: str | None) -> None:
        call["ok"] = why is None
        if why is not None:
            self.failures.append({"call": call["i"], "traced": self.rec is not None, "what": call["what"],
                                  "input": call["input"], "why": why})

    def _checked(self, i: int, what: str, item: dict, seconds: float, sphere, error: str = "") -> dict:
        call = {"i": i, "what": what, "input": item["label"], "n": item["n"], "s": seconds}
        if sphere is None:
            self._fail(call, error)
        else:
            c, r = sphere
            self._fail(call, inputs.check(item["P"], c, float(r), item["ref_r"], item["D"]))
        self.calls.append(call)
        return call

    def _timed(self, i: int, what: str, item: dict, fn, **kwargs):
        """One timed in-process call; an exception counts as a failed call."""
        t0 = time.perf_counter()
        try:
            out = fn(item["P"], **kwargs)
        except Exception as exc:  # the program's failure is counted, not fatal
            self._checked(i, what, item, time.perf_counter() - t0, None, f"raised {exc!r}")
            return None, self.calls[-1]["s"]
        seconds = time.perf_counter() - t0
        sphere = out.sphere if what == "solve" else out[0]
        self._checked(i, what, item, seconds, (sphere.center, sphere.radius))
        return out, seconds

    def step(self, i: int) -> float:
        """Run call i of the rotation; returns the timed wall seconds."""
        item = self.items[i % len(self.items)]
        s = self.seed + i
        if self.workload == "cli-1e4":
            return self._cli(i, item, s)
        solve, welzl_solve = self.prog.solve, self.prog.welzl_solve
        if self.rec is not None:
            solve, welzl_solve = self.rec.wrap("solve", solve), self.rec.wrap("welzl.full", welzl_solve)
        sel = 6 if self.workload == "repair-shell" else None
        rep, wall = self._timed(i, "solve", item, solve, sel=sel, seed=s)
        if self.rec is not None:
            self.reports.append({key: getattr(rep, key, None) for key in REPORT_FIELDS})
        if self.workload == "bulk-1e6":
            wall += self._timed(i, "welzl", item, welzl_solve, seed=s)[1]
        return wall

    def _cli(self, i: int, item: dict, s: int) -> float:
        env = child_env()
        if self.rec is not None:
            span_path = WORK / f"spans-{i}.json"
            env["PERFBENCH_SPANS"] = str(span_path)
            argv = [sys.executable, str(HERE / "cli_child.py")]
        else:
            argv = [sys.executable, "-m", "minisphere"]
        argv += ["solve", str(item["path"]), "--seed", str(s)]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - t0
        sphere, error = None, f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-200:]}"
        if proc.returncode == 0:
            try:
                doc = json.loads(proc.stdout)
                sphere = (np.array(doc["sphere"]["center"], dtype=np.float64), float(doc["sphere"]["radius"]))
            except (ValueError, KeyError, TypeError):
                error = "stdout is not a JSON report"
        self._checked(i, "cli", item, wall, sphere, error)
        if self.rec is not None and sphere is not None:
            child = json.loads(span_path.read_text())
            child["wall_s"], child["fmt"] = wall, item["fmt"]
            self.child_spans.append(child)
            self.reports.append(doc)
        return wall


def run_loop(runner: Runner, seconds: float, rotation: int) -> int:
    """Closed loop over whole rotations of the inputs.

    At least one rotation runs; another starts only if, at the mean
    rotation time so far, it ends within ``seconds``. Whole rotations keep
    the mix of inputs the same in every run.
    """
    t0 = time.perf_counter()
    i = 0
    while True:
        for _ in range(rotation):
            runner.step(i)
            i += 1
        elapsed = time.perf_counter() - t0
        if elapsed * (1 + rotation / i) > seconds:
            return i


def loop_in_child(runner: Runner, seconds: float, rotation: int) -> tuple[int, int, int]:
    """``run_loop`` in a forked child; returns the calls run and the child's RSS in KiB at start and peak.

    A forked child's peak RSS starts from its RSS at the fork. The growth
    above it is what the timed calls add to the set-up's inputs; it leaves
    out the interpreter, the imports and the set-up's freed temporaries.
    The child sends its calls and failures back; the parent waits for it.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(rfd)
            start_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            calls_run = run_loop(runner, seconds, rotation)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            with os.fdopen(wfd, "wb") as fh:
                pickle.dump((calls_run, runner.calls, runner.failures, start_kb, peak_kb), fh)
        except BaseException:
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    os.close(wfd)
    try:
        with os.fdopen(rfd, "rb") as fh:
            data = fh.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    if status != 0 or not data:
        raise RuntimeError(f"the timed loop's process ended with wait status {status}")
    calls_run, runner.calls, runner.failures, start_kb, peak_kb = pickle.loads(data)
    return calls_run, start_kb, peak_kb


def _probe(code: str) -> list[float]:
    """Wall seconds of fresh interpreters running ``code``; a printed float replaces the wall."""
    out = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                              capture_output=True, timeout=CHILD_TIMEOUT_S, check=True)
        wall = time.perf_counter() - t0
        text = proc.stdout.decode().strip()
        out.append(float(text) if text else wall)
    return out


def quantile_report(xs: list[float]) -> dict:
    xs = sorted(xs)
    p90 = statistics.quantiles(xs, n=10)[-1] if len(xs) >= 2 else xs[0]
    return {"n": len(xs), "p50": statistics.median(xs), "p90": p90,
            "beyond_p90": sum(x > p90 for x in xs)}


def end_to_end(runner: Runner, setup_s: float, peak_rss_kb: int) -> tuple[dict, dict]:
    """Gated metrics, and the call-time quantiles that are printed but not gated.

    Throughput is total points over total call time, so it averages every
    timed call. A run's median call time spreads more from run to run
    (README.md, "Run length and steadiness").
    """
    timed = [c for c in runner.calls if c["what"] in ("solve", "cli")]
    secs = [c["s"] for c in timed]
    q = quantile_report(secs)
    metrics = {
        "solve_mpts_s": (sum(c["n"] for c in timed) / sum(secs) / 1e6, "Mpts/s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    detail = {"solve_ms": {k: (v * 1e3 if k in ("p50", "p90") else v) for k, v in q.items()}}
    welzl = [c for c in runner.calls if c["what"] == "welzl"]
    if welzl:
        detail["welzl_mpts_s"] = sum(c["n"] for c in welzl) / sum(c["s"] for c in welzl) / 1e6
        detail["per_kind_ms"] = {
            item["label"]: {
                what: statistics.median(c["s"] * 1e3 for c in runner.calls
                                        if c["input"] == item["label"] and c["what"] == what)
                for what in ("solve", "welzl")}
            for item in runner.items}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def per_layer(runner: Runner, prefix_untraced: float, prefix_traced: float) -> tuple[dict, dict, list]:
    detail: dict = {}
    if runner.workload == "cli-1e4":
        spans, missing = [], set()
        for child in runner.child_spans:
            base = len(spans)
            spans += [[s[0], s[1], s[2], s[3] + base if s[3] >= 0 else -1, s[4], s[5]] for s in child["spans"]]
            missing.update(child["missing"])
        missing = sorted(missing)
        calls = len(runner.child_spans)
        if calls:
            per_fmt: dict = {}
            for child in runner.child_spans:
                load = sum(s[2] - s[1] for s in child["spans"] if s[0] == "cloudio.load")
                per_fmt.setdefault(child["fmt"], []).append(load)
            detail["cloudio.load_ms"] = {f: 1e3 * sum(v) / len(v) for f, v in sorted(per_fmt.items())}
            solve_s = sum(s[2] - s[1] for s in spans if s[0] == "solve" and s[3] < 0)
            load_s = sum(s[2] - s[1] for s in spans if s[0] == "cloudio.load" and s[3] < 0)
            imp_s = sum(c["import_s"] for c in runner.child_spans)
            wall_s = sum(c["wall_s"] for c in runner.child_spans)
            detail["cli.wall_ms"] = 1e3 * wall_s / calls
            detail["cli.child_import_ms"] = 1e3 * imp_s / calls
            detail["cli.solve_ms"] = 1e3 * solve_s / calls
            detail["cli.load_ms"] = 1e3 * load_s / calls
    else:
        spans, missing = runner.rec.spans, list(runner.rec.missing)
        full = [s for s in spans if s[0] == "welzl.full"]
        if full:
            detail["welzl.full_ms"] = 1e3 * sum(s[2] - s[1] for s in full) / len(full)
    metrics = solve_layers(spans, runner.reports, hooks_complete=not missing)
    interp = _probe("pass")
    imp = _probe("import time; t = time.perf_counter(); import minisphere; print(time.perf_counter() - t)")
    metrics["cli.interp_ms"] = 1e3 * statistics.median(interp)
    metrics["cli.import_ms"] = 1e3 * statistics.median(imp)
    if "cli.wall_ms" in detail:
        detail["cli.other_ms"] = (detail["cli.wall_ms"] - metrics["cli.interp_ms"] - detail["cli.child_import_ms"]
                                  - detail["cli.load_ms"] - detail["cli.solve_ms"])
    metrics["trace.overhead_frac"] = prefix_traced / prefix_untraced - 1.0
    units = {"_ms": "ms", "_share": "fraction", "_frac": "fraction", "_gbs_computed": "GB/s"}
    out = {}
    for name, value in metrics.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        out[name] = {"value": value, "unit": unit}
    return out, detail, missing


def provenance(prog: Program) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    blas: dict = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (TypeError, KeyError):
        pass
    blas["threads_env"] = os.environ.get("OPENBLAS_NUM_THREADS")
    blas["threads"] = _blas_threads()
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in src_files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": NPROC, "cpu_model": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy_version, "blas": blas,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "minisphere_path": prog.path, "src_lines": lines,
    }


def _blas_threads():
    """Thread count OpenBLAS reports, when its library can be found."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run(workload: str, seed: int, seconds: float, trace: bool, cfg: Config = Config()) -> dict:
    prog = Program()
    setup = SETUP[workload]
    t_setup = []
    for _ in range(1 if trace else SETUP_REPS):
        items = None  # free the previous set before building the next
        t0 = time.perf_counter()
        items = setup(cfg, seed, prog)
        t_setup.append(time.perf_counter() - t0)
    setup_s = prog.import_s + prog.warmup_s + statistics.median(t_setup)
    runner = Runner(workload, items, seed, prog)
    rotation = len(items)
    if workload == "cli-1e4":
        warm_cli(items[0], seed)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "setup": {"import_s": prog.import_s, "warmup_s": prog.warmup_s, "reps_s": t_setup},
              "inputs": [{"label": it["label"], "n": it["n"], "sha256": it["sha256"], "ref_radius": it["ref_r"],
                          "ref_certified": it["certified"]} for it in items]}
    if not trace:
        if workload == "cli-1e4":
            # each call is a whole process: its peak RSS is the program's
            record["calls_run"] = run_loop(runner, seconds, rotation)
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            record["calls_run"], start_kb, loop_kb = loop_in_child(runner, seconds, rotation)
            peak_kb = loop_kb - start_kb
            record["rss_kib"] = {"loop_start": start_kb, "loop_peak": loop_kb}
        metrics, detail = end_to_end(runner, setup_s, peak_kb)
    else:
        m = min(OVERHEAD_CALLS, rotation)
        untraced = sum(runner.step(i) for i in range(m))
        runner.rec = Recorder()
        if workload != "cli-1e4":
            runner.rec.install_projection_hooks(prog.projection)
        try:
            traced = [runner.step(i) for i in range(rotation)]
        finally:
            runner.rec.uninstall()
        metrics, detail, missing = per_layer(runner, untraced, sum(traced[:m]))
        record["missing_hooks"] = missing
        record["calls_run"] = m + rotation
    attempted = len(runner.calls)
    failed = len(runner.failures)
    detail["fail_frac"] = failed / attempted
    record.update(metrics=metrics, detail=detail, failures=runner.failures, calls=runner.calls,
                  provenance=provenance(prog))
    # a wrong answer is a counted failure; an uncertified reference means the check itself is unsound
    correct = all(it["certified"] for it in items)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics, "record": record}


def _summary(result: dict) -> str:
    rec = result["record"]
    lines = [f"# {rec['workload']} seed={rec['seed']} trace={rec['trace']} calls={rec['calls_run']} "
             f"attempted={result['attempted']} failed={result['failed']} fail_frac={rec['detail']['fail_frac']:.4f}"]
    lines.append(f"  program correct on every call: {result['failed'] == 0} (failed={result['failed']}); "
                 f"correct={str(result['correct']).lower()} means every reference was certified, so the check is sound")
    for name, m in result["metrics"].items():
        lines.append(f"{name:34s} {m['value']:.6g} {m['unit']}")
    for name, value in rec["detail"].items():
        if name != "fail_frac":
            lines.append(f"  {name}: {json.dumps(value)}")
    uncertified = [it["label"] for it in rec["inputs"] if not it["ref_certified"]]
    if uncertified:
        lines.append(f"  UNCERTIFIED reference (correct=false): {', '.join(uncertified)}")
    if rec.get("missing_hooks"):
        lines.append(f"  absent (missing hooks): {', '.join(rec['missing_hooks'])}")
    for f in rec["failures"][:10]:
        lines.append(f"  FAILED call {f['call']}{' (traced)' if f['traced'] else ''} {f['what']} {f['input']}: "
                     f"{f['why']}")
    prov = rec["provenance"]
    lines.append(f"  env: nproc={prov['nproc']} cpu={prov['cpu_model']!r} python={prov['python']} "
                 f"numpy={prov['numpy']} scipy={prov['scipy']} blas={prov['blas']} src_lines={prov['src_lines']} "
                 f"minisphere={prov['minisphere_path']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result["record"], indent=1) + "\n")
    print(_summary(result))
    print(f"  record: {out_path.relative_to(ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
