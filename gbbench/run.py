"""gbtwin benchmark: one workload per run, as a closed loop of library calls.

Usage, from the root of a checkout:

    python3 gbbench/run.py --workload fit-raw --seed 0 --seconds 15 --trace 0

Each operation is issued after the previous one returns. With ``--trace 0``
the run times operations for ``--seconds`` with nothing wrapped and prints the
end-to-end metrics. With ``--trace 1`` it alternates untraced and traced
passes and prints the per-layer metrics; spans go to ``gbbench/out/``. The
last line of standard output is the JSON result. ``gbtwin`` is imported from
this checkout's ``src/``; the run refuses any other copy.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
ACC_TOL = 1e-12
# One BLAS thread. On 2 cores a second OpenBLAS thread made the grid search
# 1.6x slower (its ridge systems are at most 237 x 237) and sped predict up by
# only 9%; the dual sweeps and Lloyd steps barely use BLAS.
BLAS_THREADS = 1

END_TO_END = {
    "op_s": "s",
    "op_tail_s": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "test_acc": "frac",
    "setup_s": "s",
}


class Refused(Exception):
    """The run cannot measure what it claims to; nothing is reported."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> None:
    """Set the BLAS thread count; must run before numpy loads its BLAS."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args) -> dict:
    import gbtwin
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = blas_threads()
    if threads is not None and threads > BLAS_THREADS:
        raise Refused(f"BLAS runs {threads} threads, not {BLAS_THREADS}")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_digest": src_digest(),
        "gbtwin_file": gbtwin.__file__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
        "nproc": nproc(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def import_gbtwin() -> float:
    """Import numpy, scipy and gbtwin from ``src/``; return the seconds taken."""
    if not (SRC / "gbtwin" / "__init__.py").is_file():
        raise Refused(f"no gbtwin sources under {SRC}")
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import gbtwin  # noqa: F401
    import gbtwin.cli  # noqa: F401  (loads every module, as a user's import does)

    elapsed = time.perf_counter() - start
    found = Path(gbtwin.__file__).resolve()
    if SRC.resolve() not in found.parents:
        raise Refused(f"gbtwin imported from {found}, not from {SRC}")
    return elapsed


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(samples: list[float]) -> float:
    """p90, or the highest percentile with at least 10 samples beyond it.

    With 20 samples or fewer no percentile from p50 up has 10 beyond it;
    the median is reported then.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for q in range(90, 49, -1):
        idx = min(n - 1, int(q / 100 * n))
        if n - idx - 1 >= 10:
            return ordered[idx]
    return statistics.median(ordered)


class Recorder:
    """Counts attempted and failed operations; compares outputs with the reference.

    An operation fails when it raises, when a dual it solved stopped short of
    the tolerance, or when a check of its output fails. ``problems`` holds
    failures of the run as a whole, such as counts that did not repeat.
    """

    def __init__(self, wl, state, reference):
        self.wl, self.state, self.reference = wl, state, reference
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.messages: list[str] = []
        self.problems: list[str] = []
        self.test_acc = None

    def run(self, i):
        """Issue operation ``i``; return (seconds, output or None)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = self.wl.op(self.state, i)
        except Exception as exc:  # a raise is a failed operation, not a crash
            self.fail(i, f"raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - start, None
        return time.perf_counter() - start, out

    def check(self, i, out):
        if out is None:
            return
        failures, observed = self.wl.check(self.state, i, out)
        for key, value in observed.items():
            want = self.reference.get(key)
            if key == "test_acc":
                self.test_acc = value
            if want is None:
                failures.append(f"no reference {key}")
            elif value != want and not (key == "test_acc" and abs(value - want) <= ACC_TOL):
                failures.append(f"{key} {value} != reference {want}")
        if failures:
            self.fail(i, "; ".join(failures))

    def fail(self, i, msg):
        self.failed_ops.add(i)
        if len(self.messages) < 20:
            self.messages.append(f"op {i}: {msg}")

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


def run_timed(wl, state, rec, seconds) -> dict:
    times = []
    start = time.perf_counter()
    i = 0
    while i < wl.min_ops or time.perf_counter() - start < seconds:
        dt, out = rec.run(i)
        times.append(dt)
        rec.check(i, out)
        i += 1
    return {
        "op_s": statistics.median(times),
        "op_tail_s": tail(times),
        "rows_per_s": wl.rows(state) * len(times) / sum(times),
        "peak_rss_mb": peak_rss_mb(),
    }, times


def run_traced(wl, state, rec, seconds, setup_spans):
    import spans as sp

    untraced, traced_walls, units = [], [], []
    i = 0
    start = time.perf_counter()
    while len(units) < 2 or time.perf_counter() - start < seconds:
        wall = 0.0
        for _ in range(wl.pass_ops):
            dt, out = rec.run(i)
            wall += dt
            rec.check(i, out)
            i += 1
        untraced.append(wall)

        tracer = sp.Tracer()
        outs = []
        with sp.traced(tracer):
            t0 = time.perf_counter()
            for _ in range(wl.pass_ops):
                outs.append((i, rec.run(i)[1]))
                i += 1
            traced_walls.append(time.perf_counter() - t0)
        for j, out in outs:
            rec.check(j, out)
        bad = sp.unconverged_duals(tracer.spans)
        if bad:
            for j, _ in outs:
                rec.fail(j, f"{bad} duals in this traced pass did not converge")
        units.append(tracer)

    per_unit = [sp.layer_metrics(t.spans) for t in units]
    for name in sp.REPEATABLE:
        values = {m[name] for m in per_unit}
        if len(values) > 1:
            rec.problems.append(f"{name} differs between traced passes: {sorted(values)}")
    metrics = {}
    for name in sp.PER_LAYER:
        values = [m[name] for m in per_unit]
        metrics[name] = statistics.median(values) if sp.PER_LAYER[name] in ("s", "frac") else values[0]
    metrics["dataset.setup_self_s"] = sp.layer_metrics(setup_spans)["dataset.self_s"]
    metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(untraced) - 1.0
    layer_self = sp.layer_self_times(units[0].spans)
    return metrics, units, layer_self


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        pin_blas_threads()
        import_s = import_gbtwin()
        import spans as sp
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise Refused(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        wl = workloads.WORKLOADS[args.workload]
        prov = provenance(args)
        with open(Path(__file__).resolve().parent / "reference.json", encoding="utf-8") as fh:
            reference = json.load(fh).get(wl.name, {})
    except (Refused, ImportError, OSError) as exc:
        print(f"gbbench: refused: {exc}", file=sys.stderr)
        return 2

    print(f"gbbench {wl.name} seed={args.seed} trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        tracer = sp.Tracer()
        with sp.traced(tracer):
            state = wl.setup(args.seed)
        rec = Recorder(wl, state, reference)
        metrics, units, layer_self = run_traced(wl, state, rec, args.seconds, tracer.spans)
        units_out = {"setup": tracer.as_records(), "passes": [t.as_records() for t in units]}
        with open(OUT / f"spans-{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(units_out, fh)
        units_of = sp.PER_LAYER
        top = max(layer_self, key=layer_self.get)
        print("layer self s " + json.dumps({k: round(v, 4) for k, v in layer_self.items()}) + f" largest={top}")
        samples = setups = None
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = wl.setup(args.seed)
            setups.append(time.perf_counter() - t0)
        rec = Recorder(wl, state, reference)
        metrics, samples = run_timed(wl, state, rec, args.seconds)
        metrics["test_acc"] = rec.test_acc if rec.test_acc is not None else 0.0
        metrics["setup_s"] = import_s + statistics.median(setups)
        metrics = {name: metrics[name] for name in END_TO_END}
        units_of = END_TO_END

    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units_of[name]}")
    print(f"ops {rec.attempted} failed {rec.failed} failed_frac {rec.failed / rec.attempted:.4g}")
    for msg in rec.messages + rec.problems:
        print(f"failure: {msg}")

    result = {
        "correct": rec.failed == 0 and not rec.problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": float(v), "unit": units_of[name]} for name, v in metrics.items()},
    }
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "provenance": prov, "import_s": import_s, "setup_seconds": setups, "op_seconds": samples, "failures": rec.messages + rec.problems}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
