"""psvsim benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or ``all``) as a closed loop with one client: one op in
flight, the next sent when the previous one has finished and been checked.
A CLI op is a ``python -m psvsim.cli`` child process; a surface-queries op
is one library call inside a worker process.  With ``--trace 0`` it prints
the end-to-end metrics; with ``--trace 1`` it makes the separate traced run
and prints the per-layer metrics.  Times are wall times scaled to a
reference host speed (see ``hostspeed``).  The last line of output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

The program under test is ``src/psvsim`` of the checkout that holds this
file.  Byte-code and span files go to ``.bench_build/perfbench``; generated
inputs live in a temporary directory there for the length of a run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
import inputs
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"

#: End-to-end metrics and their units (bounds live in BENCHMARK.json).
END_TO_END = (("setup_s", "s"), ("op_s.p50", "s"), ("op_s.p90", "s"),
              ("ops_per_s", "1/s"), ("results_per_s", "1/s"), ("peak_rss_mb", "MB"))
#: What one result unit is on each workload (results_per_s).
RESULT_UNIT = {"cli-mix": "checked answers (entries, draws, runs, diagrams)",
               "ghz-ladder": "distribution entries (branches_per_s)",
               "sample-mc": "draws (samples_per_s)",
               "surface-queries": "answered queries"}
#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
#: Timeout in seconds for one CLI op or one set-up.
OP_TIMEOUT = 120.0
#: Interval of the host-speed calibration while a child runs.
TICK_S = 0.5


class _Timeout(Exception):
    pass


def child_env() -> dict:
    """Environment of every child: the checkout's ``src`` first on the path,
    byte-code cached under the work directory, one BLAS thread."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONPYCACHEPREFIX=str(WORKDIR / "pycache"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(argv: list[str], env: dict, timeout: float):
    """Run a child to completion; returns (exit code, stdout, stderr, wall
    seconds, peak RSS in KiB, host-speed scale).  The harness shares the
    child's CPU and times the calibration loop before, every TICK_S during,
    and after the child.  The child is killed after ``timeout``."""
    samples = [hostspeed.calibrate()]
    deadline = time.perf_counter() + timeout

    def tick(signum, frame):
        samples.append(hostspeed.calibrate())
        if time.perf_counter() > deadline:
            raise _Timeout

    with tempfile.TemporaryFile(dir=WORKDIR) as out, tempfile.TemporaryFile(dir=WORKDIR) as err:
        previous = signal.signal(signal.SIGALRM, tick)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - t0
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = timeout
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        samples.append(hostspeed.calibrate())
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (code, out.read().decode("utf-8", "replace"), err.read().decode("utf-8", "replace"),
                elapsed, usage.ru_maxrss, hostspeed.scale(samples))


def _worker(mode: str, args: list[str], env: dict, timeout: float) -> tuple[dict, float]:
    """Run a worker mode; returns its result object and the host scale."""
    code, out, err, _, _, scale = run_child(
        [sys.executable, str(HERE / "worker.py"), mode, *args], env, timeout)
    if code != 0:
        raise RuntimeError(f"worker {mode} exited with {code}:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1]), scale


def _pickled(workload, scratch: Path) -> str:
    path = scratch / f"workload-{workload.name}.pkl"
    with open(path, "wb") as fh:
        pickle.dump(workload, fh)
    return str(path)


def measure_setup(workload, scratch: Path, env: dict, repeats: int) -> list[dict]:
    """Fresh-interpreter set-ups; each result also carries the host-speed
    scale measured just before it."""
    spec = scratch / f"setup-{workload.name}.json"
    spec.write_text(json.dumps(workload.setup_spec()))
    out = []
    for _ in range(repeats):
        result, scale = _worker("setup", ["--spec", str(spec)], env, OP_TIMEOUT)
        out.append(dict(result, scale=scale))
    return out


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile as the ceil(q n)-th smallest value.  A workload's op
    times cluster by op kind, and this picks a measured op instead of
    interpolating across the gap between two kinds."""
    return sorted(values)[math.ceil(q * len(values)) - 1]


def cli_op(op, env: dict) -> tuple[bool, int, float, int, float, str]:
    """One CLI op: (ok, result units, seconds, peak RSS KiB, host scale, error)."""
    code, out, err, elapsed, rss, scale = run_child(
        [sys.executable, "-m", "psvsim.cli", *op.argv], env, OP_TIMEOUT)
    try:
        reference.require(code == 0, f"exit code {code}: {err.strip()[-300:]}")
        return True, reference.check_output(op.expect, out), elapsed, rss, scale, ""
    except Exception as exc:  # any output the checks cannot read is a failed op
        return (False, 0, elapsed, rss, scale,
                f"{' '.join(op.argv)}: {type(exc).__name__}: {exc}")


def untraced(workload, scratch: Path, seconds: float, env: dict) -> dict:
    """End-to-end metrics of one workload, tracing off.  Every timed op
    yields (wall seconds, host-speed scale, client loop seconds)."""
    setups = measure_setup(workload, scratch, env, SETUP_REPEATS)
    if workload.ops[0].query is not None:
        res, _ = _worker("loop", ["--workload", _pickled(workload, scratch),
                                  "--seconds", str(seconds)],
                         env, seconds + OP_TIMEOUT)
        timed, units, rss = res["timed"], res["units"], [res["max_rss_kb"]]
        attempted, failed, errors = res["attempted"], res["failed"], res["errors"]
    else:
        attempted = failed = units = 0
        timed, rss, errors = [], [], []

        def do(op, measure: bool) -> None:
            nonlocal attempted, failed, units
            t0 = time.perf_counter()
            ok, n, dt, kb, scale, error = cli_op(op, env)
            loop_s = time.perf_counter() - t0
            attempted += 1
            rss.append(kb)
            if not ok:
                failed += 1
                errors.append(error)
            elif measure:
                timed.append((dt, scale, loop_s))
                units += n

        do(workload.ops[0], measure=False)  # warm the byte-code and page caches
        start = time.perf_counter()
        while True:
            for op in workload.ops:
                do(op, measure=True)
            if time.perf_counter() - start >= seconds:
                break
    op_s = [dt * scale for dt, scale, _ in timed]
    metrics = {
        "setup_s": statistics.median(s["setup_s"] * s["scale"] for s in setups),
        "op_s.p50": nearest_rank(op_s, 0.5) if op_s else math.nan,
        "op_s.p90": nearest_rank(op_s, 0.9) if op_s else math.nan,
        "ops_per_s": (len(timed) / sum(loop_s * scale for _, scale, loop_s in timed)
                      if timed else 0.0),
        "results_per_s": units / sum(op_s) if op_s else 0.0,
        "peak_rss_mb": max(rss) / 1024.0,
    }
    wall = [dt for dt, _, _ in timed]
    raw = (f"raw wall op_s.p50 {nearest_rank(wall, 0.5):.6g} s, op_s.p90 "
           f"{nearest_rank(wall, 0.9):.6g} s, median host scale "
           f"{statistics.median(scale for _, scale, _ in timed):.4g}") if timed else "no timed ops"
    return {"attempted": attempted, "failed": failed, "errors": errors, "ops": len(timed),
            "metrics": metrics, "note": raw}


def traced(workload, scratch: Path, seed: int, seconds: float, env: dict) -> dict:
    """Per-layer metrics of one workload from the separate traced run."""
    setups = measure_setup(workload, scratch, env, 3)
    spans = WORKDIR / f"spans-{workload.name}-seed{seed}.jsonl"
    res, _ = _worker("trace", ["--workload", _pickled(workload, scratch),
                               "--seconds", str(seconds), "--spans", str(spans)],
                     env, seconds + 4 * OP_TIMEOUT)
    errors = list(res["errors"])
    if res["unwrapped"]:
        errors.append(f"bindings left unwrapped: {res['unwrapped']}")
    if res["missing_calls"]:
        errors.append(f"no calls recorded for {res['missing_calls']}")
    metrics = dict(res["layers"])
    metrics["psvsim.import_s"] = statistics.median(s["import_s"] for s in setups)
    metrics["trace.overhead_frac"] = res["overhead_frac"]
    self_check = not (res["unwrapped"] or res["missing_calls"])
    return {"attempted": res["attempted"], "failed": res["failed"] + (not self_check),
            "errors": errors, "ops": res["attempted"], "metrics": metrics}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_branch"):
        return "calls/branch"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "psvsim" / "__init__.py").is_file():
        print(f"error: no psvsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(parents=True, exist_ok=True)
    # One CPU for the harness and every child it starts, so that the
    # host-speed calibration measures the CPU the op runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = child_env()
    # Also compiles the byte-code once, so that no timed child pays for it.
    code, out, err, *_ = run_child(
        [sys.executable, "-c", "import psvsim, psvsim.cli; print(psvsim.__file__)"],
        env, OP_TIMEOUT)
    if code != 0 or not Path(out.strip()).is_relative_to(ROOT / "src"):
        print(f"error: cannot import psvsim from {ROOT / 'src'}: {err.strip()}", file=sys.stderr)
        return 2

    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    total_attempted = total_failed = 0
    all_metrics: dict[str, dict] = {}
    for name in names:
        with tempfile.TemporaryDirectory(dir=WORKDIR) as scratch:
            workload = inputs.make_workload(name, args.seed, scratch)
            if args.trace:
                res = traced(workload, Path(scratch), args.seed, args.seconds, env)
            else:
                res = untraced(workload, Path(scratch), args.seconds, env)
        total_attempted += res["attempted"]
        total_failed += res["failed"]
        print(f"# {name} seed={args.seed} trace={args.trace}: {res['ops']} timed ops, "
              f"{res['attempted']} attempted, {res['failed']} failed")
        for error in res["errors"][:5]:
            print(f"#   FAILED {error}")
        if "note" in res:
            print(f"# {name} {res['note']}")
        units = dict(END_TO_END) if not args.trace else {}
        for metric, value in res["metrics"].items():
            unit = units.get(metric) or layer_unit(metric)
            note = f"  [{RESULT_UNIT[name]}]" if metric == "results_per_s" else ""
            print(f"{name:16s} {metric:44s} {value:14.6g} {unit}{note}")
            key = metric if len(names) == 1 else f"{name}/{metric}"
            all_metrics[key] = {"value": value, "unit": unit}
        if not args.trace:
            # Zero on a correct program, so it is reported through the
            # result's "attempted" and "failed" rather than as a metric.
            print(f"{name:16s} {'error_rate':44s} {res['failed'] / res['attempted']:14.6g} fraction")
    print(json.dumps({"correct": total_failed == 0, "attempted": total_attempted,
                      "failed": total_failed, "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
