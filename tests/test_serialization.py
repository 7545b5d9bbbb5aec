import json
import math

import numpy as np
import pytest

from psvsim import hilbert, scenarios, serialization as ser
from psvsim.engine import DetectorEvent, Scenario, joint_distribution, run
from psvsim.errors import ConfigurationError
from psvsim.geometry import Event, Lcsh
from psvsim.hilbert import Axis, StateVector, SubsystemKind, SubsystemSpec, X_AXIS, Z_AXIS, \
    states_close


def roundtrip(obj, to_dict, from_dict):
    return from_dict(json.loads(json.dumps(to_dict(obj))))


def test_event_roundtrip():
    e = Event(1.5, (-2.0, 3.0))
    assert roundtrip(e, ser.event_to_dict, ser.event_from_dict) == e


def test_axis_roundtrip_and_xyz_form():
    a = Axis(1.2, -0.7)
    b = roundtrip(a, ser.axis_to_dict, ser.axis_from_dict)
    assert b == a
    c = ser.axis_from_dict({"xyz": [0.0, 0.0, 1.0]})
    assert c.theta == pytest.approx(0.0)


def test_surface_roundtrip_with_minus_infinity():
    s = Lcsh(t0=-math.inf, apexes=(Event(3.0, (0.0,)),), c=2.0)
    assert json.loads(json.dumps(ser.surface_to_dict(s))) == {
        "t0": "minus_infinity", "apexes": [{"t": 3.0, "x": [0.0]}], "c": 2.0}
    assert ser.surface_to_dict(Lcsh(t0=1.5)) == {"t0": 1.5, "apexes": [], "c": 1.0}


def test_state_roundtrip_preserves_complex_amplitudes():
    s = scenarios.singlet(Z_AXIS, Axis(1.0, 0.8))
    st = s.initial_state
    st2 = roundtrip(st, ser.state_to_dict, ser.state_from_dict)
    assert st2.labels == st.labels
    assert np.abs(st2.amplitudes - st.amplitudes).max() < 1e-15


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
    assert states_close(s2.initial_state, s.initial_state, tol=1e-12)
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


def test_detector_axis_form():
    det = ser.detector_from_dict({
        "label": "A", "at": {"t": 3, "x": [-4]},
        "axis": {"theta": 0.0, "phi": 0.0},
        "targets": ["a"], "register": "RA",
    })
    assert det.outcomes.labels == ("+", "-")
    assert det.pointers == (1, 2)


def test_scenario_from_dict_validates():
    s = scenarios.ghz()
    d = ser.scenario_to_dict(s)
    d["detectors"][0]["register"] = "nope"
    with pytest.raises(ConfigurationError):
        ser.scenario_from_dict(d)


def test_dense_ghz5_file_amplitudes_match_the_nested_conversion(tmp_path):
    """A dense GHZ-5 file (spins in a random state, one register each, 6^5
    amplitudes) loads to the same bits through the flat conversion as
    through ``_pairs_to_complex``."""
    rng = np.random.default_rng(5)
    spins = tuple(SubsystemSpec(f"s{k}", 2, SubsystemKind.SPIN) for k in range(5))
    regs = tuple(SubsystemSpec(f"R{k}", 3, SubsystemKind.REGISTER) for k in range(5))
    core = rng.normal(size=32) + 1j * rng.normal(size=32)
    core[::3] = -0.0
    s = Scenario(
        dim=1, c=1.0, subsystems=spins + regs,
        initial_state=hilbert.tensor(StateVector(spins, core / np.linalg.norm(core)),
                                     hilbert.basis_state(regs)),
        initial_t0=-math.inf, interactions=(),
        detectors=tuple(DetectorEvent(f"D{k}", Event(3.0, (6.0 * k,)),
                                      hilbert.spin_outcome_set(f"s{k}", X_AXIS), f"R{k}")
                        for k in range(5)),
    )
    path = tmp_path / "ghz5.json"
    path.write_text(json.dumps(ser.scenario_to_dict(s)))
    blob = json.loads(path.read_text())
    pairs = blob["initial_state"]["amplitudes"]
    nested = ser._pairs_to_complex(pairs)
    assert len(pairs) == 6**5
    assert ser._amplitudes_to_complex(pairs).tobytes() == nested.tobytes()
    assert ser.scenario_from_dict(blob).initial_state.amplitudes.tobytes() == nested.tobytes()


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
