"""The scenario-file contract under mutation.  Any edit of a valid file
either loads and gives a distribution that sums to 1, or is a validation
error (exit 1) reported as one JSON object on stderr: never a traceback,
a warning (pytest turns warnings into errors) or another exit code."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from copy import deepcopy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psvsim import cli, hilbert, scenarios, serialization
from psvsim.engine import BranchState, DetectorEvent, InteractionEvent, Scenario
from psvsim.geometry import Event
from psvsim.hilbert import Axis, StateVector, SubsystemKind, SubsystemSpec, X_AXIS, Z_AXIS


def _ghz3() -> Scenario:
    """GHZ-3 as a generated file holds it (spins s0..s2, one register each,
    detectors 6 apart), plus one interaction given as an explicit unitary
    before the detectors and one after them, so matrix mutations reach a
    unitary the engine applies and one it never does."""
    spins = tuple(SubsystemSpec(f"s{k}", 2, SubsystemKind.SPIN) for k in range(3))
    regs = tuple(SubsystemSpec(f"R{k}", 3, SubsystemKind.REGISTER) for k in range(3))
    core = np.zeros(8, dtype=complex)
    core[0], core[7] = 1 / math.sqrt(2.0), -1 / math.sqrt(2.0)
    rng = np.random.default_rng(3)
    u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    return Scenario(
        dim=1, c=1.0,
        initial=BranchState.split(hilbert.tensor(StateVector(spins, core),
                                                 hilbert.basis_state(regs))),
        initial_t0=-math.inf,
        interactions=(InteractionEvent("early", Event(0.5, (0.0,)), ("s0", "s1"), u),
                      InteractionEvent("late", Event(10.0, (6.0,)), ("s1", "s2"), u)),
        detectors=tuple(DetectorEvent(f"D{k}", Event(3.0, (6.0 * k,)),
                                      hilbert.spin_outcome_set(f"s{k}", Axis(0.4 * k, 0.3)),
                                      f"R{k}")
                        for k in range(3)),
    )


VALID = [serialization.scenario_to_dict(s) for s in (
    scenarios.split_particle(),
    scenarios.singlet(Z_AXIS, X_AXIS),
    scenarios.singlet(Z_AXIS, X_AXIS, with_copies=True),
    scenarios.ghz(),
    _ghz3(),
)]

_NUMBERS = (st.integers(-3, 3) | st.just(2**40) | st.just(10**9)
            | st.floats(allow_nan=True, allow_infinity=True))
_SCALARS = st.none() | st.booleans() | _NUMBERS | st.text(max_size=3) | st.just("1.5")


def _is_matrix(v) -> bool:
    """A list of rows of [re, im] pairs, as projectors and unitaries are written."""
    return (isinstance(v, list) and bool(v) and all(isinstance(row, list) for row in v)
            and all(isinstance(e, list) and len(e) == 2 for row in v for e in row))


def _mutated(data, value):
    """One edit of ``value``: a type swap, a number as a string or
    non-finite, a huge number, deep nesting, a label-list or matrix-shape
    edit, or a mangled list."""
    edits = ["scalar", "container", "nest"]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        edits += ["string", "non-finite", "huge"]
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        edits += ["labels"]
    if _is_matrix(value):
        edits += ["matrix"]
    if isinstance(value, list) and value:
        edits += ["ragged"]
    edit = data.draw(st.sampled_from(edits))
    if edit == "scalar":
        return data.draw(_SCALARS)
    if edit == "container":
        return data.draw(st.sampled_from([[], {}, [value], {"value": value}, [[value]]]))
    if edit == "nest":
        for _ in range(data.draw(st.integers(1, 80))):
            value = [value]
        return value
    if edit == "string":
        return str(value)
    if edit == "non-finite":
        return data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    if edit == "huge":
        return data.draw(st.sampled_from([10**6, 2**40, 10**300, 10**400, 1e300, -1e308]))
    if edit == "labels":
        first = value[0] if value else "a"
        return data.draw(st.sampled_from([[], [first, first], "".join(value), ["zz"],
                                          value + ["zz"], value[::-1]]))
    if edit == "matrix":
        n = data.draw(st.sampled_from([1, len(value) - 1, len(value) + 1, 2 * len(value)]))
        if n < 1:
            return []
        return np.stack([np.eye(n), np.zeros((n, n))], axis=-1).tolist()
    # ragged: drop, duplicate or shorten one element
    k = data.draw(st.integers(0, len(value) - 1))
    value = list(value)
    how = data.draw(st.sampled_from(["drop", "duplicate", "shorten"]))
    if how == "drop":
        del value[k]
    elif how == "duplicate":
        value.insert(k, deepcopy(value[k]))
    elif isinstance(value[k], list) and value[k]:
        value[k] = value[k][:-1]
    return value


def _paths(node, path=()):
    """The path to ``node`` and to every node under it.  Of a list longer
    than four (amplitudes, deep lists) only the first two and the last
    element are entered, so every kind of field is about as likely a
    target as an amplitude."""
    yield path
    if isinstance(node, dict):
        keys = sorted(node)
    elif isinstance(node, list):
        keys = range(len(node)) if len(node) <= 4 else (0, 1, len(node) - 1)
    else:
        return
    for key in keys:
        yield from _paths(node[key], path + (key,))


def _mutate(data, blob):
    """At a drawn node: drop it, copy another key's value onto it, or edit
    its value (the root itself included)."""
    holder = {"root": blob}
    *parents, key = ("root",) + data.draw(st.sampled_from(list(_paths(blob))))
    parent = holder
    for k in parents:
        parent = parent[k]
    action = data.draw(st.sampled_from(["drop", "copy", "edit"]))
    if action == "drop":
        del parent[key]
    elif action == "copy" and isinstance(parent, dict) and len(parent) > 1:
        parent[key] = deepcopy(parent[data.draw(st.sampled_from(sorted(parent)))])
    else:
        parent[key] = _mutated(data, parent[key])
    return holder.get("root")


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "scenario.json"


@settings(max_examples=150, deadline=None)
@given(which=st.sampled_from(range(len(VALID))), edits=st.integers(1, 3), data=st.data())
def test_a_mutated_scenario_file_gives_a_distribution_or_one_json_error(path, which, edits, data):
    blob = deepcopy(VALID[which])
    for _ in range(edits):
        blob = _mutate(data, blob)
    path.write_text(json.dumps(blob))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["dist", "--scenario", str(path), "--json"])
    if code == 1:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "validation"
    else:
        assert code == 0 and err.getvalue() == ""
        total = math.fsum(e["probability"] for e in json.loads(out.getvalue())["entries"])
        assert abs(total - 1.0) <= 1e-12
