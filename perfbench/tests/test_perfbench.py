"""Tests of the benchmark itself (not of psvsim).

    python3 -m pytest perfbench/tests -q

Workloads run here at a tiny size: small GHZ ladders and few draws, one
set-up per run and a near-zero measuring window.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(inputs, "LADDER_NS", (2, 3))
    monkeypatch.setattr(inputs, "SAMPLE_DRAWS", 500)
    monkeypatch.setattr(inputs, "MIX_SAMPLE_DRAWS", 200)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _bench(*args) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(args))
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_runs_at_tiny_size(tiny, workload, trace):
    code, result = _bench("--workload", workload, "--seed", "5", "--seconds", "0.01",
                          "--trace", trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[section]}
    units = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_answer_fails_the_run(tiny, monkeypatch):
    make = inputs.make_workload

    def perturbed(name, seed, workdir):
        workload = make(name, seed, workdir)
        dist = workload.ops[0].expect["dist"]
        key = next(iter(dist))
        dist[key] += 1e-6
        return workload

    monkeypatch.setattr(inputs, "make_workload", perturbed)
    code, result = _bench("--workload", "ghz-ladder", "--seed", "5", "--seconds", "0.01",
                          "--trace", "0")
    assert code == 0
    assert not result["correct"] and result["failed"] >= 1


def test_perturbed_probability_fails_the_check(tmp_path):
    workload = inputs.make_workload("cli-mix", 1, str(tmp_path))
    op = next(op for op in workload.ops if op.expect["kind"] == "dist" and op.expect.get("json"))
    entries = [{"outcomes": list(k), "probability": p} for k, p in op.expect["dist"].items()]
    good = json.dumps({"entries": entries})
    assert reference.check_output(op.expect, good) == len(entries)
    entries[0]["probability"] += 1e-6
    with pytest.raises(reference.CheckError):
        reference.check_output(op.expect, json.dumps({"entries": entries}))


def test_sampled_counts_far_from_the_law_fail():
    expected = {("+",): 0.25, ("-",): 0.75}
    assert reference.check_counts({("+",): 250, ("-",): 750}, 1000, expected) == 1000
    with pytest.raises(reference.CheckError):
        reference.check_counts({("+",): 400, ("-",): 600}, 1000, expected)


def test_wrong_query_state_fails_the_check():
    model = reference.ghz_model([(0.3, 0.1)] * 3, inputs.ghz_events(np.random.default_rng(0), 3, 2))
    order, outcomes = ["D0", "D1", "D2"], ["+", "-", "+"]
    final = model.query_state(order, outcomes, 100.0, {0, 1, 2})
    expect = {"kind": "state", "state": final, "labels": model.labels}
    assert reference.check_query(expect, (model.labels, final)) == 1
    before = model.query_state(order, outcomes, -100.0, set())
    with pytest.raises(reference.CheckError):
        reference.check_query(expect, (model.labels, before))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_two_seeds_give_different_valid_inputs(tmp_path, workload):
    import psvsim.serialization as ser

    a = inputs.make_workload(workload, 1, str(tmp_path / "a"))
    b = inputs.make_workload(workload, 2, str(tmp_path / "b"))
    assert [op.argv or op.query for op in a.ops] != [op.argv or op.query for op in b.ops]
    for w in (a, b):
        for op in w.ops:
            dist = op.expect.get("dist")
            if dist:
                assert math.isclose(sum(dist.values()), 1.0, abs_tol=1e-12)
                assert min(dist.values()) >= 0.0
        for entry in w.scenarios:
            if "file" in entry:
                ser.scenario_from_dict(json.loads(Path(entry["file"]).read_text()))


def test_every_traced_function_is_exercised_by_some_workload():
    exercised = set().union(*tracing.EXERCISED.values())
    assert exercised == set(tracing.traced_names())


def test_tracer_wraps_every_binding_and_restores_them():
    import psvsim
    from psvsim import engine, hellwig_kraus

    original = engine.joint_distribution
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_bindings() == []
        assert hellwig_kraus.joint_distribution is engine.joint_distribution is not original
        assert psvsim.joint_distribution is engine.joint_distribution
        hellwig_kraus.hk_copy_inconsistency(psvsim.X_AXIS, psvsim.Z_AXIS)
    finally:
        tracer.uninstall()
    assert engine.joint_distribution is original and hellwig_kraus.joint_distribution is original
    layers = tracer.summary()
    assert layers["hellwig_kraus.hk_copy_inconsistency.calls"] == 1
    assert layers["engine.joint_distribution.calls"] == 1
    total = layers["hellwig_kraus.hk_copy_inconsistency.total_s"]
    children = sum(layers[f"{n}.self_s"] for n in tracing.traced_names())
    assert math.isclose(children, total, rel_tol=1e-9)


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans[:] = [(0, "engine.run", 0.0, 10.0, -1), (0, "engine.step", 1.0, 4.0, 0),
                       (0, "hilbert.apply_unitary", 2.0, 3.0, 1), (0, "engine.step", 5.0, 6.0, 0)]
    layers = tracer.summary()
    assert layers["engine.run.self_s"] == 6.0
    assert layers["engine.step.self_s"] == 3.0
    assert layers["engine.run.total_s"] == 10.0
    assert layers["engine.step.calls"] == 2


def test_missing_sources_fail_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "cli-mix", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_percentiles_pick_a_measured_op():
    times = [0.2, 0.2, 0.3, 0.3, 5.0, 5.0]
    assert run.nearest_rank(times, 0.5) == 0.3
    assert run.nearest_rank(times, 0.9) == 5.0


def test_host_scale_is_reference_over_median_loop_time():
    import hostspeed

    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale([ref, 2 * ref, ref]) == 1.0
    assert hostspeed.scale([2 * ref, 2 * ref]) == 0.5
    assert hostspeed.calibrate() > 0.0
