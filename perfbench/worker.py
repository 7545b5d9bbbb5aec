"""Child-process side of the benchmark; run with ``src`` on PYTHONPATH.

    worker.py setup --spec SPEC.json
        Fresh-interpreter set-up: import psvsim, then build or load (and so
        validate) every scenario in the spec and produce its run records.
        Prints {"import_s", "setup_s"}.  Nothing but the standard library
        is imported before the clock starts.
    worker.py loop  --workload W.pkl --seconds S
        Closed loop of in-process library ops (surface-queries).
    worker.py trace --workload W.pkl --seconds S --spans SPANS.jsonl
        Traced run: every op runs in-process once untraced and once traced.

W.pkl is the pickled ``inputs.Workload`` that the harness generated.

Each mode prints one JSON object as its last line of output.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402


def build(spec: dict):
    """Build or load every scenario of the spec, then run its records."""
    import psvsim

    scenarios = []
    for entry in spec["scenarios"]:
        if "file" in entry:
            from psvsim import serialization
            with open(entry["file"], encoding="utf-8") as fh:
                scenarios.append(serialization.scenario_from_dict(json.load(fh)))
        elif entry["builtin"] == "split":
            scenarios.append(psvsim.split_particle())
        else:
            axes = [psvsim.Axis(theta=t, phi=p) for t, p in entry["axes"]]
            if entry["builtin"] == "ghz":
                scenarios.append(psvsim.ghz(axes=tuple(axes)))
            elif entry.get("with_copies"):
                k = psvsim.Axis(*entry["copy_basis"])
                scenarios.append(psvsim.singlet(*axes, with_copies=True, copy_basis=k))
            else:
                scenarios.append(psvsim.singlet(*axes))
    records = [psvsim.run(scenarios[r["scenario"]], tuple(r["order"]), outcomes=tuple(r["outcomes"]))
               for r in spec.get("records", [])]
    return scenarios, records


def _setup(args) -> dict:
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    import psvsim  # noqa: F401
    t_import = time.perf_counter()
    build(spec)
    t_end = time.perf_counter()
    return {"import_s": t_import - _T0, "setup_s": t_end - _T0}


def _query(op, records):
    """One surface-query library call; returns the raw result."""
    from psvsim import engine, geometry

    q = op.query
    rec = records[q["record"]]
    if q["kind"] == "flat":
        return engine.state_on_hyperplane(rec, q["t"])
    if q["kind"] == "step":
        return engine.state_on_hyperplane(rec, rec.steps[q["step"]].surface_after)
    return geometry.is_future_of(rec.steps[q["later"]].surface_after,
                                 rec.steps[q["earlier"]].surface_after)


def _plain(result):
    """A query result as the reference checks it: "undefined", a bool, or
    (subsystem labels, amplitudes)."""
    from psvsim import engine

    if isinstance(result, engine.UndefinedState):
        return "undefined"
    if isinstance(result, bool):
        return result
    return (list(result.labels), result.amplitudes)


def _cli(op):
    """One CLI call in-process; returns (exit code, stdout, stderr)."""
    from psvsim import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(op.argv))
    return code, out.getvalue(), err.getvalue()


def _check(op, result, reference) -> int:
    """Reference check of one op's result; returns its result units."""
    if op.query is not None:
        return reference.check_query(op.expect, _plain(result))
    code, out, err = result
    reference.require(code == 0, f"exit code {code}: {err.strip()}")
    return reference.check_output(op.expect, out)


def _same(op, a, b) -> bool:
    """Traced and untraced results of ``op`` are identical."""
    import numpy as np

    if op.query is None:
        return a == b
    pa, pb = _plain(a), _plain(b)
    if isinstance(pa, tuple) and isinstance(pb, tuple):
        return pa[0] == pb[0] and np.array_equal(pa[1], pb[1])
    return pa == pb


def _loop(args, workload, reference) -> dict:
    """Untraced closed loop over library ops: one warm-up cycle, then whole
    cycles until ``seconds`` have passed.  Each timed op yields (wall
    seconds, host-speed scale, client loop seconds)."""
    import hostspeed

    _, records = build(workload.setup_spec())
    attempted = failed = units = 0
    errors, timed = [], []
    # Most library ops take milliseconds, so the scale comes from the last
    # few calibrations rather than from the two around one op.
    samples = collections.deque(maxlen=8)

    def cycle(measure: bool) -> None:
        nonlocal attempted, failed, units
        for op in workload.ops:
            attempted += 1
            samples.append(hostspeed.calibrate())
            try:
                t0 = time.perf_counter()
                result = _query(op, records)
                dt = time.perf_counter() - t0
                n = _check(op, result, reference)
                loop_s = time.perf_counter() - t0
                samples.append(hostspeed.calibrate())
                scale = hostspeed.scale(samples)
            except Exception as exc:  # a raising call is a failed op, not a crash
                failed += 1
                errors.append(f"{op.query}: {type(exc).__name__}: {exc}")
                continue
            if measure:
                timed.append((dt, scale, loop_s))
                units += n

    cycle(measure=False)
    start = time.perf_counter()
    while True:
        cycle(measure=True)
        if time.perf_counter() - start >= args.seconds:
            break
    return {"attempted": attempted, "failed": failed, "errors": errors[:5],
            "timed": timed, "units": units,
            "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def _trace(args, workload, reference, tracing) -> dict:
    """Run every op once untraced and once traced (alternating which goes
    first), compare the two results and check them; whole cycle first, then
    op by op until ``seconds`` have passed."""
    if workload.ops[0].query is not None:
        _, records = build(workload.setup_spec())
        run = lambda op: _query(op, records)  # noqa: E731
    else:
        run = _cli
    tracer = tracing.Tracer()
    attempted = failed = 0
    errors: list[str] = []
    untraced_s = traced_s = 0.0
    unwrapped: list[str] = []
    start = time.perf_counter()
    i = 0
    while i < len(workload.ops) or time.perf_counter() - start < args.seconds:
        op = workload.ops[i % len(workload.ops)]
        tracer.op = i
        results, times = {}, {}
        attempted += 1
        try:
            # Alternate which pass goes first, and flip the pattern every
            # cycle so that an op kind is not always first or always second.
            first_traced = (i + i // len(workload.ops)) % 2 == 1
            for traced in (first_traced, not first_traced):
                if traced:
                    tracer.install()
                    if i == 0:
                        unwrapped = tracer.unwrapped_bindings()
                t0 = time.perf_counter()
                try:
                    results[traced] = run(op)
                finally:
                    times[traced] = time.perf_counter() - t0
                    tracer.uninstall()
            reference.require(_same(op, results[False], results[True]),
                              "traced output differs from the untraced output")
            _check(op, results[False], reference)
        except Exception as exc:  # a raising call is a failed op, not a crash
            failed += 1
            errors.append(f"{op.argv or op.query}: {type(exc).__name__}: {exc}")
        else:
            untraced_s += times[False]
            traced_s += times[True]
        i += 1
    layers = tracer.summary()
    missing = sorted(n for n in tracing.EXERCISED[workload.name] if not layers[f"{n}.calls"])
    tracer.write(args.spans)
    return {"attempted": attempted, "failed": failed, "errors": errors[:5], "layers": layers,
            "overhead_frac": traced_s / untraced_s - 1.0 if untraced_s else math.nan,
            "unwrapped": unwrapped, "missing_calls": missing}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=("setup", "loop", "trace"))
    parser.add_argument("--spec")
    parser.add_argument("--workload")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = _setup(args)
    else:
        import reference
        import tracing

        with open(args.workload, "rb") as fh:
            workload = pickle.load(fh)
        if args.mode == "loop":
            result = _loop(args, workload, reference)
        else:
            result = _trace(args, workload, reference, tracing)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
