"""Benchmark of the shockbeta command-line program.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact_table --seed 3 --seconds 20 --trace 0

Runs one workload of :mod:`workloads` in-process through
``shockbeta.cli.main(argv)`` (BLAS and OpenMP capped at one thread), checks
its outputs, and prints one line per metric followed by a last line of JSON
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: median warm invocation time,
fresh-interpreter set-up time and peak memory, the share of operations that
succeeded, and the accuracy of beta.  Both times are rescaled by a
calibration kernel timed next to each sample (see :mod:`calibrate`), so
that they read in seconds of a quiet machine; the measured times are
printed above the result.  ``--trace 1`` alternates untraced and
traced invocations and reports per-layer self times and solver counters
(see :mod:`tracing`); the untraced ones give the tracing overhead.

The seed fixes the transverse wavenumbers: seed 0 runs the paper's xi0 = 1
only; any other seed draws one xi0 from each of four equal log-width strata
of [0.5, 2], and the invocations cycle through them.  The coupled solver's
mesh, and so its work, depends on xi0; covering every stratum in every run
keeps that from spreading the timings across seeds.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Must precede the first numpy import, here and in the fresh children.
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

from calibrate import REFERENCE_S, kernel  # noqa: E402  (imports numpy)
from tracing import COUNTERS, SPAN_METRICS, Tracer  # noqa: E402
from workloads import REL_FLOOR, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

XI0_STRATA = 4
FRESH_SETUPS = 7
FRESH_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "beta_relerr": "rel",
    "xmethod_relgap": "rel",
}
# per-layer metrics derived from the traced invocation, beyond the span self
# times and raw counters of tracing.py
DERIVED = {
    "ivp.rhs_per_step": "ratio",
    "coupled.calls_per_point": "ratio",
    "warnings.quadrature_degraded": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def pin_to_one_cpu() -> int | None:
    """Keep this process and its children on the CPU it is running on, so the
    calibration kernel sees the same core as the samples it rescales."""
    try:
        stat = Path("/proc/self/stat").read_text()
        cpu = int(stat.rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, ValueError, IndexError):
        return None
    return cpu


def xi0_values(seed: int) -> list[float]:
    if seed == 0:
        return [1.0]
    rng = random.Random(seed)
    return [0.5 * 4.0 ** ((k + rng.random()) / XI0_STRATA) for k in range(XI0_STRATA)]


@dataclass
class Invocation:
    code: object
    error: str | None
    wall: float
    quad_warnings: int


def invoke(main, argv, warning_type) -> Invocation:
    """Call ``main(argv)``; never raises, warnings captured per call."""
    sink = io.StringIO()
    error = None
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
        except Exception as exc:  # counted as a failed invocation
            code = None
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    if code != 0 and error is None:
        error = f"exit code {code}: {sink.getvalue().strip()[-300:]}"
    nq = sum(issubclass(w.category, warning_type) for w in caught)
    return Invocation(code, error, wall, nq)


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(out).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class Bench:
    """One workload run: invocations, operation accounting and checks."""

    def __init__(self, workload, seed: int, work: Path):
        from shockbeta import cli
        from shockbeta.errors import QuadratureDegraded

        self.cli = cli
        self.warning_type = QuadratureDegraded
        self.wl = workload
        self.xi0s = xi0_values(seed)
        self.work = work
        self.cfg = work / "workload.cfg"
        self.cfg.write_text(workload.config)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first: dict[float, tuple[str, Path]] = {}  # xi0 -> (digest, kept dir)
        self.ops_same: dict[float, int] = {}  # xi0 -> ops bit-identical to first
        self.n = 0

    def next_argv(self):
        xi0 = self.xi0s[self.n % len(self.xi0s)]
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        self.n += 1
        return xi0, out, self.wl.argv(self.cfg, xi0, out)

    def run(self, main=None):
        """One invocation plus its accounting; returns (Invocation, Outcome)."""
        xi0, out, argv = self.next_argv()
        gc.collect()
        inv = invoke(main or self.cli.main, argv, self.warning_type)
        return inv, self.account(xi0, out, inv)

    def account(self, xi0: float, out: Path, inv: Invocation):
        oc = self.wl.outcome(out)
        failed = oc.failed
        if inv.error is not None:
            failed = oc.attempted
            self.errors.append(f"xi0={xi0!r}: {inv.error}")
        else:
            d = digest(out)
            if xi0 not in self.first:
                kept = self.work / f"first_{len(self.first)}"
                out.rename(kept)
                self.first[xi0] = (d, kept)
                self.ops_same[xi0] = oc.attempted
            elif d != self.first[xi0][0]:
                failed = oc.attempted
                self.errors.append(f"xi0={xi0!r}: outputs differ from the first repeat")
            else:
                self.ops_same[xi0] += oc.attempted
        self.attempted += oc.attempted
        self.failed += failed
        return oc

    def check(self):
        """Check each xi0's first outputs; failures also fail their repeats."""
        checks = []
        for xi0, (_, kept) in self.first.items():
            try:
                c = self.wl.check(kept, xi0)
            except Exception as exc:  # a crash in a check is a failed check
                self.errors.append(f"xi0={xi0!r}: check raised {type(exc).__name__}: {exc}")
                self.failed += self.ops_same[xi0]
                continue
            if c.errors:
                self.errors.extend(f"xi0={xi0!r}: {e}" for e in c.errors)
                self.failed += self.ops_same[xi0]
            checks.append(c)
        return checks

    @property
    def correct(self) -> bool:
        return not self.errors and bool(self.first)


def fresh_samples(bench: Bench, setups: int, kernel):
    """Set-up times of ``setups`` fresh interpreters, each divided by the mean
    calibration time before and after it, and the peak RSS of the last one,
    which also runs one invocation."""
    raw, ratios = [], []
    rss_mb = float("nan")
    xi0 = bench.xi0s[0]
    out = bench.work / "fresh_out"
    cal_prev = kernel()
    for k in range(setups):
        cmd = [sys.executable, str(HERE / "fresh.py"), str(SRC), str(bench.cfg),
               repr(xi0), str(out)]
        last = k == setups - 1
        if last:
            cmd += bench.wl.argv(bench.cfg, xi0, out)
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=FRESH_TIMEOUT_S, cwd=ROOT)
        cal = kernel()
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"fresh interpreter failed: {proc.stderr.strip()[-500:]}")
        sample = json.loads(lines[-1])
        raw.append(sample["setup_s"])
        ratios.append(sample["setup_s"] / (0.5 * (cal_prev + cal)))
        cal_prev = cal
        if last:
            rss_mb = sample["maxrss_kib"] / 1024.0
            if sample["code"] != 0:
                bench.errors.append(f"fresh invocation failed: {sample['code']}")
        shutil.rmtree(out, ignore_errors=True)
    return raw, ratios, rss_mb


def high_percentile(values):
    """(q, value): the highest percentile with at least ten samples above it,
    or None when that is not above the median."""
    n = len(values)
    k = n - 11
    if k < 0 or (k + 1) / n <= 0.5:
        return None
    return 100.0 * (k + 1) / n, sorted(values)[k]


def describe(name, samples, unit):
    line = (f"{name}: median {statistics.median(samples):.6g} {unit}, "
            f"min {min(samples):.6g}, max {max(samples):.6g}, n = {len(samples)}")
    hp = high_percentile(samples)
    if hp is not None:
        line += f", p{hp[0]:.0f} {hp[1]:.6g}"
    return line


def measure_end_to_end(bench: Bench, seconds: float):
    kernel()  # warm-up of the kernel's own lazy set-up
    setups, setup_ratios, rss_mb = fresh_samples(bench, FRESH_SETUPS, kernel)
    bench.run()  # warm-up: lazy imports and caches; first repeat of xi0[0]
    walls, ratios, cals = [], [], [kernel()]
    t_end = time.perf_counter() + seconds
    while not walls or time.perf_counter() < t_end:
        inv, _ = bench.run()
        cals.append(kernel())
        walls.append(inv.wall)
        ratios.append(inv.wall / (0.5 * (cals[-2] + cals[-1])))
    checks = bench.check()
    relerr = max((c.relerr for c in checks), default=1.0)
    gap = max((c.xmethod_gap for c in checks), default=1.0)
    print(describe("measured wall_s", walls, "s"))
    print(describe("measured setup_s", setups, "s"))
    print(describe("calibration kernel", cals, "s"))
    for key in sorted({k for c in checks for k in c.notes}):
        print(f"{key}: {max(c.notes.get(key, 0.0) for c in checks):.6e} (max over xi0)")
    return {
        "wall_s": statistics.median(ratios) * REFERENCE_S,
        "setup_s": statistics.median(setup_ratios) * REFERENCE_S,
        "peak_rss_mb": rss_mb,
        "ok_frac": (bench.attempted - bench.failed) / bench.attempted,
        "beta_relerr": max(relerr, REL_FLOOR),
        "xmethod_relgap": max(gap, REL_FLOOR),
    }, {"wall_samples": len(walls), "setup_samples": len(setups), "rss_samples": 1,
        "calibration_samples": len(cals)}


def layer_sample(tracer, inv: Invocation, coupled_points: int) -> dict:
    c = tracer.counts
    s = {metric: tracer.self_s.get(span, 0.0) for span, metric in SPAN_METRICS.items()}
    s.update({key: c.get(key, 0.0) for key in COUNTERS})
    s["ivp.rhs_per_step"] = c["ivp.rhs_evals"] / c["ivp.steps"] if c["ivp.steps"] else 0.0
    s["coupled.calls_per_point"] = (
        c["coupled.calls"] / coupled_points if coupled_points else 0.0
    )
    s["warnings.quadrature_degraded"] = inv.quad_warnings
    s["trace.wall_s"] = inv.wall
    return s


def measure_per_layer(bench: Bench, seconds: float):
    bench.run()  # warm-up
    plain, samples = [], []
    t_end = time.perf_counter() + seconds
    while not samples or time.perf_counter() < t_end:
        inv, _ = bench.run()
        plain.append(inv.wall)
        tracer = Tracer()
        with tracer.installed():
            inv, oc = bench.run(tracer.span("cli.main", bench.cli.main))
        samples.append(layer_sample(tracer, inv, oc.coupled_points))
    bench.check()
    metrics = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain)
    print(describe("untraced wall_s", plain, "s"))
    print(describe("traced wall_s", [s["trace.wall_s"] for s in samples], "s"))
    shares = [sum(s[m] for m in SPAN_METRICS.values()) / s["trace.wall_s"] for s in samples]
    print(f"span self times account for {min(shares):.6f}-{max(shares):.6f} "
          f"of each traced wall time")
    return metrics, {"traced_samples": len(samples), "untraced_samples": len(plain)}


def per_layer_units() -> dict:
    return {**{m: "s" for m in SPAN_METRICS.values()}, **COUNTERS, **DERIVED}


def environment(args, xi0s) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "thread_caps": {v: os.environ[v] for v in _THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "xi0": xi0s,
    }


def import_package():
    """Import shockbeta from this checkout's ``src``; None if it is absent."""
    if not (SRC / "shockbeta" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import shockbeta

    if Path(shockbeta.__file__).resolve().parent != SRC / "shockbeta":
        return None
    return shockbeta


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if import_package() is None:
        print(f"error: no shockbeta package under {SRC}", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, work)
        if args.trace:
            metrics, shape = measure_per_layer(bench, args.seconds)
            units = per_layer_units()
        else:
            metrics, shape = measure_end_to_end(bench, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for err in bench.errors[:20]:
        print(f"failure: {err}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    shape.update(invocations=bench.n, attempted=bench.attempted, failed=bench.failed)
    shape["cpu"] = cpu
    print(json.dumps({"env": environment(args, bench.xi0s), "run": shape}))
    print(json.dumps({
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
