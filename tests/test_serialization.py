import json
import math
from unittest import mock

import numpy as np
import pytest

from _oracles import states_close
from psvsim import cli, hilbert, scenarios, serialization as ser
from psvsim.engine import BranchState, DetectorEvent, Scenario, joint_distribution, run
from psvsim.errors import ConfigurationError
from psvsim.geometry import Event, Lcsh
from psvsim.hilbert import Axis, StateVector, SubsystemKind, SubsystemSpec, X_AXIS, Z_AXIS


def roundtrip(obj, to_dict, from_dict):
    return from_dict(json.loads(json.dumps(to_dict(obj))))


def test_event_roundtrip():
    e = Event(1.5, (-2.0, 3.0))
    assert roundtrip(e, ser.event_to_dict, ser.event_from_dict) == e


def test_axis_roundtrip():
    a = Axis(1.2, -0.7)
    b = roundtrip(a, ser.axis_to_dict, ser.axis_from_dict)
    assert b == a


def test_surface_roundtrip_with_minus_infinity():
    s = Lcsh(t0=-math.inf, apexes=(Event(3.0, (0.0,)),), c=2.0)
    assert json.loads(json.dumps(ser.surface_to_dict(s))) == {
        "t0": "minus_infinity", "apexes": [{"t": 3.0, "x": [0.0]}], "c": 2.0}
    assert ser.surface_to_dict(Lcsh(t0=1.5)) == {"t0": 1.5, "apexes": [], "c": 1.0}


def test_state_roundtrip_preserves_complex_amplitudes():
    s = scenarios.singlet(Z_AXIS, Axis(1.0, 0.8))
    st = s.initial.materialize()
    d = json.loads(json.dumps(ser.state_to_dict(st)))
    assert tuple(ser.subsystem_from_dict(sub) for sub in d["subsystems"]) == st.subsystems
    amplitudes = ser._complex(ser._float_pairs(d["amplitudes"], "amplitude"))
    assert np.abs(amplitudes - st.amplitudes).max() < 1e-15


@pytest.mark.parametrize("build", [
    lambda: scenarios.split_particle(),
    lambda: scenarios.singlet(Z_AXIS, X_AXIS),
    lambda: scenarios.singlet(Z_AXIS, X_AXIS, with_copies=True),
    lambda: scenarios.ghz(),
])
def test_scenario_roundtrip_preserves_distribution(build):
    s = build()
    s2 = roundtrip(s, ser.scenario_to_dict, ser.scenario_from_dict)
    assert s2.detector_labels == s.detector_labels
    assert states_close(s2.initial.materialize(), s.initial.materialize(), tol=1e-12)
    d1 = joint_distribution(s, s.detector_labels)
    d2 = joint_distribution(s2, s2.detector_labels)
    assert d1.max_deviation(d2) < 1e-12


def test_gate_reconstruction():
    s = scenarios.singlet(Z_AXIS, X_AXIS, with_copies=True, copy_basis=Axis(0.9))
    s2 = roundtrip(s, ser.scenario_to_dict, ser.scenario_from_dict)
    for ev1, ev2 in zip(s.interactions, s2.interactions):
        assert np.abs(ev1.unitary - ev2.unitary).max() < 1e-12
        assert ev2.gate["kind"] == "copy_spin"


def test_unknown_gate_kind_rejected():
    with pytest.raises(ConfigurationError):
        ser.interaction_from_dict({
            "name": "x", "at": {"t": 0, "x": [0]},
            "gate": {"kind": "teleport", "source": "a", "target": "b"},
        })


def test_scenario_from_dict_validates():
    s = scenarios.ghz()
    d = ser.scenario_to_dict(s)
    d["detectors"][0]["register"] = "nope"
    with pytest.raises(ConfigurationError):
        ser.scenario_from_dict(d)


def _ghz5() -> Scenario:
    """GHZ-5 as a dense file holds it: spins in a random state with a third
    of its amplitudes -0.0, one register each, 6^5 amplitudes."""
    rng = np.random.default_rng(5)
    spins = tuple(SubsystemSpec(f"s{k}", 2, SubsystemKind.SPIN) for k in range(5))
    regs = tuple(SubsystemSpec(f"R{k}", 3, SubsystemKind.REGISTER) for k in range(5))
    core = rng.normal(size=32) + 1j * rng.normal(size=32)
    core[::3] = -0.0
    return Scenario(
        dim=1, c=1.0,
        initial=BranchState(spins + regs, StateVector(spins, core / np.linalg.norm(core)),
                            {r.label: hilbert.basis_state((r,)) for r in regs}),
        initial_t0=-math.inf, interactions=(),
        detectors=tuple(DetectorEvent(f"D{k}", Event(3.0, (6.0 * k,)),
                                      hilbert.spin_outcome_set(f"s{k}", X_AXIS), f"R{k}")
                        for k in range(5)),
    )


def test_dense_ghz5_file_amplitudes_match_the_float_of_each_number():
    """The converter reads a dense GHZ-5 list to the bits ``float`` gives
    each of its numbers, sign of zero included, and so does the dense pass
    on each layout ``json.dumps`` writes; a scenario built from the list,
    or through ``scenario_from_json``, holds the amplitudes of those bits."""
    blob = ser.scenario_to_dict(_ghz5())
    pairs = blob["initial_state"]["amplitudes"]
    pairs[1], pairs[2] = [-0.0, 0.0], [0.0, -0.0]  # zeros whose sign only the bits show
    floats = np.array([[float(v) for v in pair] for pair in pairs])
    assert floats.shape == (6**5, 2)
    assert ser._float_pairs(pairs, "amplitude").tobytes() == floats.tobytes()
    amplitudes = ser._complex(floats).tobytes()
    assert ser.scenario_from_dict(blob).initial.materialize().amplitudes.tobytes() == amplitudes
    for layout in ({}, {"indent": 2}, {"separators": (",", ":")}):
        data = json.dumps(blob, **layout).encode()
        runs = ser._with_dense_amplitudes(data)["initial_state"]["amplitudes"]
        assert np.repeat(runs.pairs, runs.counts, axis=0).tobytes() == floats.tobytes()
        s = ser.scenario_from_json(data)
        assert s.initial.materialize().amplitudes.tobytes() == amplitudes


def test_dist_on_a_written_ghz5_file_takes_the_dense_pass(tmp_path, capsys):
    """``dist`` reads a GHZ-5 file psvsim wrote through the dense pass: no
    JSON decoder sees more than a tenth of the file (``json.loads`` and
    the folded list both decode through ``JSONDecoder.raw_decode``), and
    the scenario is built by one ``scenario_from_dict`` call, the one the
    benchmark's tracer counts."""
    path = tmp_path / "ghz5.json"
    path.write_text(json.dumps(ser.scenario_to_dict(_ghz5())))
    size = path.stat().st_size
    with mock.patch.object(ser, "_with_dense_amplitudes", wraps=ser._with_dense_amplitudes) as fast, \
            mock.patch.object(ser, "scenario_from_dict", wraps=ser.scenario_from_dict) as build, \
            mock.patch.object(json.JSONDecoder, "raw_decode", autospec=True,
                              side_effect=json.JSONDecoder.raw_decode) as decode:
        assert cli.main(["dist", "--scenario", str(path), "--json"]) == 0
    assert fast.call_count == 1 and build.call_count == 1
    assert decode.call_count == 2 and max(len(c.args[1]) for c in decode.call_args_list) < size / 10
    assert json.loads(capsys.readouterr().out)["detectors"] == [f"D{k}" for k in range(5)]


def test_run_record_and_distribution_roundtrip():
    s = scenarios.split_particle()
    rec = run(s, ("C", "B", "A"), outcomes=("c1", "none", "hit"))
    blob = json.loads(json.dumps(ser.run_record_to_dict(rec)))
    assert blob["order"] == ["C", "B", "A"]
    assert blob["outcomes"] == ["hit", "none", "c1"]
    assert blob["total_probability"] == pytest.approx(0.5, abs=1e-12)
    assert [st["reduction"] for st in blob["steps"]] == [True, False, False]

    dist = joint_distribution(s, ("A", "B", "C"))
    blob = json.loads(json.dumps(ser.distribution_to_dict(dist)))
    assert blob["detectors"] == ["A", "B", "C"]
    keys = [tuple(e["outcomes"]) for e in blob["entries"]]
    assert keys == sorted(dist.probabilities)
    assert {k: e["probability"] for k, e in zip(keys, blob["entries"])} == dist.probabilities


def test_empirical_to_dict():
    from psvsim.engine import sample
    emp = sample(scenarios.ghz(), ("A", "B", "C"), 50, seed=1)
    blob = ser.empirical_to_dict(emp)
    assert blob["n"] == 50
    assert sum(e["count"] for e in blob["entries"]) == 50
