"""Fast self-test of the benchmark harness on tiny inputs.

Usage, from the root of a checkout: python3 perfbench/selftest.py

Checks that both modes emit exactly the metrics named in BENCHMARK.json,
that traced self times add up to the traced wall time, that the tracer
restores the package's functions, and that a raised exception, a failing
exit code, a repeat whose outputs differ from the first, and a wrong answer
are each counted as failed operations.
"""

import contextlib
import copy
import io
import json
import shutil
import sys

import run  # sets the thread caps before numpy is imported
import workloads

TINY_SECONDS = 0.5


def tiny_workloads() -> dict:
    exact = copy.copy(workloads.WORKLOADS["exact_table"])
    exact.config = workloads.EXACT_CFG.replace("L = 10,20,30", "L = 20")
    exact.L_VALUES = (20.0,)
    scan = copy.copy(workloads.WORKLOADS["sine_scan"])
    scan.config = workloads.SINE_CFG.replace("1.0,1.1,1.2,1.3,1.4,1.5", "1.0,1.1")
    scan.u_minus = (1.0, 1.1)
    aux = copy.copy(workloads.WORKLOADS["fine_aux"])
    aux.n_out = 4000
    aux.extra_args = ("--N", "4000")
    return {w.name: w for w in (exact, scan, aux)}


def run_main(argv) -> dict:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        assert run.main(argv) == 0
    return json.loads(sink.getvalue().strip().splitlines()[-1])


def check_metric_names(spec: dict) -> None:
    for name in ("exact_table", "fine_aux", "sine_scan"):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_main(["--workload", name, "--seed", "3",
                               "--seconds", str(TINY_SECONDS), "--trace", str(trace)])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, (name, trace)
            assert result["failed"] == 0 and result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, (name, trace, set(got) ^ set(expected))
            print(f"ok  {name} --trace {trace}: {len(got)} metrics")


def check_tracing(work) -> None:
    import shockbeta.beta
    import shockbeta.profile
    from tracing import SPAN_METRICS, Tracer

    bench = run.Bench(tiny_workloads()["fine_aux"], 0, work)
    bench.run()
    tracer = Tracer()
    with tracer.installed():
        assert shockbeta.beta.solve_profile is not shockbeta.profile.solve_profile
        inv, _ = bench.run(tracer.span("cli.main", bench.cli.main))
    assert shockbeta.beta.solve_profile is shockbeta.profile.solve_profile
    assert inv.error is None, inv.error
    assert set(tracer.self_s) <= set(SPAN_METRICS)
    total = sum(tracer.self_s.values())
    assert abs(total - inv.wall) <= 1e-3 + 0.01 * inv.wall, (total, inv.wall)
    assert tracer.counts["ivp.rhs_evals"] > 0 and tracer.counts["bvp.splu_calls"] > 0
    print(f"ok  traced self times sum to {total:.4f} s of {inv.wall:.4f} s wall")


def check_failures(work) -> None:
    bench = run.Bench(tiny_workloads()["exact_table"], 0, work)
    inv, oc = bench.run()
    assert inv.error is None and bench.failed == 0, bench.errors
    ops = oc.attempted

    def raises(argv):
        raise RuntimeError("internal error: fold duplicate mismatch")

    bench.run(raises)
    assert bench.failed == ops, "an exception must fail every operation"
    bench.run(lambda argv: 3)
    assert bench.failed == 2 * ops, "exit code 3 must fail every operation"

    xi0, out, argv = bench.next_argv()
    inv = run.invoke(bench.cli.main, argv, bench.warning_type)
    table = out / "beta_table.csv"
    text = table.read_text()
    table.write_text(text.replace("9", "8", 1))
    assert table.read_text() != text
    bench.account(xi0, out, inv)
    assert bench.failed == 3 * ops, "a repeat differing from the first must fail"

    bench.run()
    assert bench.failed == 3 * ops
    _, kept = bench.first[xi0]
    manifest = kept / "beta_manifest.json"
    data = json.loads(manifest.read_text())
    data["entries"][0]["beta"][0] *= 1.0 + 1e-6
    manifest.write_text(json.dumps(data))
    bench.check()
    assert bench.failed == 5 * ops, "a wrong beta must fail its invocations"
    assert not bench.correct
    print(f"ok  failures counted: {bench.failed} of {bench.attempted} operations")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if run.import_package() is None:
        print(f"error: no shockbeta package under {run.SRC}", file=sys.stderr)
        return 2
    saved = dict(workloads.WORKLOADS)
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workloads.WORKLOADS.update(tiny_workloads())
        check_metric_names(spec)
        for name, test in (("tracing", check_tracing), ("failures", check_failures)):
            (work / name).mkdir(parents=True)
            test(work / name)
    finally:
        workloads.WORKLOADS.clear()
        workloads.WORKLOADS.update(saved)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
