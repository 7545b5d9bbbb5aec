import gc
import json
import math
import os
import subprocess
import sys
from copy import deepcopy
from unittest import mock

import numpy as np
import pytest

from psvsim import cli, engine, hilbert, scenarios, serialization
from psvsim.cli import main, parse_axis
from psvsim.engine import BranchState, DetectorEvent, Scenario
from psvsim.errors import ConfigurationError
from psvsim.geometry import Event
from psvsim.hilbert import SubsystemKind, SubsystemSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_axis_forms():
    assert parse_axis("x").theta == pytest.approx(math.pi / 2)
    assert parse_axis("z").theta == 0.0
    assert parse_axis("-z").theta == pytest.approx(math.pi)
    assert parse_axis("1.25").theta == 1.25
    assert parse_axis("1.25:0.5").phi == 0.5
    with pytest.raises(ConfigurationError):
        parse_axis("w")
    with pytest.raises(ConfigurationError):
        parse_axis("1:2:3")


def test_dist_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "dist", "--scenario", "ghz")
    assert code == 0
    assert "A  B  C  probability" in out
    code, out, _ = run_cli(capsys, "dist", "--scenario", "ghz", "--json")
    blob = json.loads(out)
    assert blob["detectors"] == ["A", "B", "C"]
    assert sum(e["probability"] for e in blob["entries"]) == pytest.approx(1.0)


def test_run_with_fixed_outcomes(capsys):
    code, out, _ = run_cli(capsys, "run", "--scenario", "split",
                           "--order", "C,B,A",
                           "--outcomes", "A=hit,B=none,C=c1", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["order"] == ["C", "B", "A"]
    assert blob["total_probability"] == pytest.approx(0.5)


def test_orders_reports_deviation(capsys):
    code, out, _ = run_cli(capsys, "orders", "--scenario", "split", "--json")
    blob = json.loads(out)
    assert len(blob["orders"]) == 6
    assert ["C", "B", "A"] in blob["orders"]
    assert blob["max_deviation"] < 1e-10


@pytest.mark.parametrize("skew, code", [(2e-12, 2), (5e-13, 0)], ids=["above-limit", "within-limit"])
def test_orders_exits_2_when_valid_orders_disagree(skew, code, capsys):
    """Under the causal rule, valid orders that give distributions more than
    1e-12 apart are an engine fault; here C,B,A's first entry is skewed."""
    joint = engine.joint_distribution

    def skewed(s, order):
        dist = joint(s, order)
        if order != ("C", "B", "A"):
            return dist
        key = sorted(dist.probabilities)[0]
        return engine.JointDistribution(dist.detectors,
                                        {**dist.probabilities, key: dist.probabilities[key] + skew})

    with mock.patch.object(cli.engine, "joint_distribution", skewed):
        results = [run_cli(capsys, "orders", "--scenario", "split", *json_flag)
                   for json_flag in ((), ("--json",))]
    message = "valid orders A,B,C and C,B,A give distributions 2e-12 apart (limit 1e-12)"
    if code:
        assert results == [(2, "", f"error (physics): {message}\n"),
                           (2, "", json.dumps({"error": "physics", "message": message}) + "\n")]
    else:
        assert [r[0] for r in results] == [0, 0]
        assert json.loads(results[1][1])["max_deviation"] == pytest.approx(skew, rel=1e-3)


def test_sample_seed_reproducible(capsys):
    args = ("sample", "--scenario", "singlet", "--axes", "i=z,j=x",
            "--samples", "500", "--seed", "9")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_compare_hk(capsys):
    code, out, _ = run_cli(capsys, "compare-hk", "--axes", "i=x,j=z,k=z")
    blob = json.loads(out)
    assert code == 0
    assert blob["hk"] == 1.0
    assert blob["psv"] == pytest.approx(0.5, abs=1e-12)


def test_diagram_to_file(tmp_path, capsys):
    out_path = tmp_path / "run.svg"
    code, _, _ = run_cli(capsys, "diagram", "--scenario", "split",
                         "--order", "C,B,A",
                         "--outcomes", "A=hit,B=none,C=c1",
                         "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith('<?xml')
    code, out, _ = run_cli(capsys, "diagram", "--scenario", "ghz", "--ascii")
    assert code == 0 and "~" not in out.splitlines()[0]


def test_scenario_file_loading(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(
        serialization.scenario_to_dict(scenarios.ghz())))
    code, out, _ = run_cli(capsys, "dist", "--scenario", str(path), "--json")
    assert code == 0
    assert json.loads(out)["detectors"] == ["A", "B", "C"]


def test_exit_code_validation_errors(capsys):
    assert run_cli(capsys, "run", "--scenario", "missing.json")[0] == 1
    assert run_cli(capsys, "run", "--scenario", "split", "--order", "A,B")[0] == 1
    assert run_cli(capsys, "frobnicate")[0] == 1
    code, _, err = run_cli(capsys, "run", "--scenario", "missing.json", "--json")
    assert code == 1
    assert json.loads(err)["error"] == "validation"


def test_exit_code_physics_errors(capsys):
    code, _, err = run_cli(capsys, "run", "--scenario", "singlet",
                           "--axes", "i=z,j=z", "--outcomes", "A=+,B=+")
    assert code == 2
    assert "physics" in err


def test_exit_code_io_errors(capsys):
    code, _, _ = run_cli(capsys, "dist", "--scenario", "ghz",
                         "--out", "/nonexistent-dir/x.txt")
    assert code == 3


def test_malformed_json_scenario(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run_cli(capsys, "dist", "--scenario", str(path))[0] == 1


def _pairs(a) -> list:
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _malformed_scenarios():
    """name -> (scenario JSON, start of the expected error message)."""
    ghz = serialization.scenario_to_dict(scenarios.ghz())
    # two histories of one subsystem: B also measures a, spacelike to A and to a's copy
    b_measures_a = serialization.scenario_to_dict(scenarios.split_particle())
    b_measures_a["detectors"][1]["targets"] = ["a"]
    half_light_speed = serialization.scenario_to_dict(scenarios.split_particle())
    half_light_speed["c"] = 0.5  # a's copy gate leaves A's past cone
    # an axis where a detector's targets and projectors belong
    no_projectors = deepcopy(ghz)
    no_projectors["detectors"][0] = {"label": "A", "at": {"t": 3, "x": [-4]},
                                     "register": "RA", "axis": {"theta": 0.0}}
    bogus_kind = deepcopy(ghz)
    bogus_kind["subsystems"][0]["kind"] = "bogus"
    kicks_register = deepcopy(ghz)
    kicks_register["interactions"] = [{"name": "kick", "at": {"t": 1, "x": [0]},
                                       "subsystems": ["a", "RA"], "unitary": _pairs(np.eye(6))}]
    reads_register = deepcopy(ghz)
    det_b = reads_register["detectors"][1]
    det_b["targets"] = ["b", "RA"]
    for entry in det_b["projectors"]:
        p = np.asarray(entry["matrix"])
        entry["matrix"] = _pairs(np.kron(p[..., 0] + 1j * p[..., 1], np.eye(3)))
    # spins a, b, c then registers RA, RB, RC (dim 3 each)
    amps = np.zeros((2, 2, 2, 3, 3, 3), dtype=complex)
    amps[0, 0, 0, 0, 0, 0] = amps[0, 0, 0, 1, 0, 0] = 1 / math.sqrt(2.0)
    superposed = deepcopy(ghz)
    superposed["initial_state"]["amplitudes"] = _pairs(amps.reshape(-1))
    amps[0, 0, 0, 1, 0, 0], amps[1, 1, 1, 1, 0, 0] = 0.0, -1 / math.sqrt(2.0)
    entangled = deepcopy(ghz)
    entangled["initial_state"]["amplitudes"] = _pairs(amps.reshape(-1))
    nan = float("nan")
    nan_amplitude = deepcopy(ghz)
    nan_amplitude["initial_state"]["amplitudes"][0][0] = nan
    # off the slice through the largest amplitude, at register RA = 1
    nan_off_peak = deepcopy(ghz)
    nan_off_peak["initial_state"]["amplitudes"][
        np.ravel_multi_index((0, 0, 0, 1, 0, 0), amps.shape)][0] = nan
    non_finite_projectors = {case: deepcopy(ghz) for case in ("nan", "inf")}
    for case, value in (("nan", nan), ("inf", math.inf)):
        non_finite_projectors[case]["detectors"][0]["projectors"][0]["matrix"][0][0][0] = value
    nan_time = deepcopy(ghz)
    nan_time["detectors"][1]["at"]["t"] = nan
    nan_speed = dict(ghz, c=nan)
    norm_sqrt_2 = deepcopy(ghz)
    for pair in norm_sqrt_2["initial_state"]["amplitudes"]:
        pair[:] = [math.sqrt(2.0) * v for v in pair]
    # accepted within a norm slack of 1e-9, its distribution would sum to 1 + 8e-10
    norm_off_by_4e_10 = deepcopy(ghz)
    for pair in norm_off_by_4e_10["initial_state"]["amplitudes"]:
        pair[:] = [(1 + 4e-10) * v for v in pair]
    nan_floor = dict(ghz, initial_surface={"t0": nan})
    absorbing = deepcopy(ghz)
    absorbing["detectors"][0]["absorbing"] = True
    triples = {case: deepcopy(ghz) for case in ("amplitudes", "projector", "unitary")}
    for pair in triples["amplitudes"]["initial_state"]["amplitudes"]:
        pair.append(123.0)
    for entry in triples["projector"]["detectors"][0]["projectors"]:
        entry["matrix"] = [[pair + [123.0] for pair in row] for row in entry["matrix"]]
    triples["unitary"]["interactions"] = [
        {"name": "kick", "at": {"t": 1, "x": [0]}, "subsystems": ["a"],
         "unitary": [[pair + [123.0] for pair in row] for row in _pairs(np.eye(2))]}]
    amplitude_cases = {}
    for case, edit in [("ragged-pair", lambda a: a[3].pop()),
                       ("3-element-pair", lambda a: a[3].append(0.0)),
                       ("pair-holding-a-list", lambda a: a[3].__setitem__(0, [0.0]))]:
        amplitude_cases[case] = deepcopy(ghz)
        edit(amplitude_cases[case]["initial_state"]["amplitudes"])
    amplitude_cases["not-a-list"] = deepcopy(ghz)
    amplitude_cases["not-a-list"]["initial_state"]["amplitudes"] = {"re": 1.0, "im": 0.0}
    amplitude_cases["empty-list"] = deepcopy(ghz)
    amplitude_cases["empty-list"]["initial_state"]["amplitudes"] = []
    pointers = {case: deepcopy(ghz) for case in ("negative", "fractional")}
    pointers["negative"]["detectors"][0]["projectors"][1]["pointer"] = -1
    pointers["fractional"]["detectors"][0]["projectors"][1]["pointer"] = 1.5
    detector_labels = {case: deepcopy(ghz) for case in ("not-a-string", "empty")}
    detector_labels["not-a-string"]["detectors"][0]["label"] = 5
    detector_labels["empty"]["detectors"][0]["label"] = ""
    # the singlet's copy gates, both at t = 0.8: a sort by (time, name) compares their names
    copies = serialization.scenario_to_dict(
        scenarios.singlet(hilbert.Z_AXIS, hilbert.X_AXIS, with_copies=True))
    interaction_names = {case: deepcopy(copies) for case in ("not-a-string", "empty", "repeated")}
    interaction_names["not-a-string"]["interactions"][0]["name"] = 5
    interaction_names["empty"]["interactions"][0]["name"] = ""
    interaction_names["repeated"]["interactions"][0]["name"] = "AA2 copy"
    copy_theta = deepcopy(copies)
    copy_theta["interactions"][0]["gate"]["basis"]["theta"] = True
    copy_source = deepcopy(copies)
    copy_source["interactions"][0]["gate"]["source"] = 5
    gate_and_unitary = deepcopy(copies)
    gate_and_unitary["interactions"][0]["unitary"] = _pairs(np.eye(4))
    # the gate copies a into c1
    gate_subsystems = deepcopy(copies)
    gate_subsystems["interactions"][0]["subsystems"] = ["b", "c2"]
    # RA at index 2, the pointer A's "-" outcome writes
    not_ready = deepcopy(ghz)
    psi = np.array(ghz["initial_state"]["amplitudes"]).reshape(2, 2, 2, 3, 3, 3, 2)
    not_ready["initial_state"]["amplitudes"] = np.roll(psi, 2, axis=3).reshape(-1, 2).tolist()
    int_outcome_label = deepcopy(ghz)
    int_outcome_label["detectors"][0]["projectors"][0]["label"] = 7
    # the top-level list disagrees with the initial state's on RA's dim or a's kind
    mismatched = {case: deepcopy(ghz) for case in ("dim", "kind")}
    mismatched["dim"]["subsystems"][3]["dim"] = 10**6
    mismatched["kind"]["subsystems"][0]["kind"] = "mode"

    def edited(edit):
        blob = deepcopy(ghz)
        edit(blob)
        return blob

    def interaction(subsystems, unitary, t=1.0):
        return lambda blob: blob.__setitem__("interactions", [
            {"name": "kick", "at": {"t": t, "x": [0]}, "subsystems": subsystems,
             "unitary": _pairs(unitary)}])

    def detector_a(key, value):
        return lambda blob: blob["detectors"][0].__setitem__(key, value)

    def detector_b(key, value):
        return lambda blob: blob["detectors"][1].__setitem__(key, value)

    def projector_entry(row, col, part, value):  # of A's "+" projector
        return lambda blob: blob["detectors"][0]["projectors"][0]["matrix"][row][col].__setitem__(
            part, value)

    def register_7(blob):  # RA, and the detector that writes it
        for subsystems in (blob["subsystems"], blob["initial_state"]["subsystems"]):
            subsystems[3]["label"] = 7
        blob["detectors"][0]["register"] = 7

    shapes = {
        # after the detectors (t = 3), where dist, orders and sample never apply it
        "late-interaction-wrong-shape": (
            interaction(["a", "b"], np.eye(2), t=10.0),
            "interaction 'kick' unitary has shape (2, 2), expected (4, 4) for targets ('a', 'b')"),
        "detector-projector-wrong-side": (  # A's 2x2 projectors on spins a and b
            detector_a("targets", ["a", "b"]),
            "detector 'A' projector has shape (2, 2), expected (4, 4) for targets ('a', 'b')"),
    }
    references = {
        "detector-label-repeated": (detector_b("label", "A"), "duplicate detector label 'A'"),
        "interaction-on-unknown-subsystem": (interaction(["z"], np.eye(2)),
                                             "interaction 'kick' targets unknown subsystem 'z'"),
        "register-a-spin": (detector_a("register", "b"),
                            "detector 'A' register 'b' is not a register"),
        "pointer-at-register-dim": (
            lambda blob: blob["detectors"][0]["projectors"][1].__setitem__("pointer", 3),
            "detector 'A' pointer 3 exceeds register dim 3"),
        "charged-mode-unknown": (lambda blob: blob.__setitem__("charged_modes", ["z"]),
                                 "unknown subsystem label 'z'"),
        "outcome-labels-repeated": (
            lambda blob: blob["detectors"][0]["projectors"][1].__setitem__("label", "+"),
            "duplicate outcome labels ['+', '+']"),
        "projector-entry-above-1": (projector_entry(0, 0, 0, 1.5),
                                    "projector '+' has an entry of modulus above 1"),
        # B would shift A's pointer: RA's final index would depend on the order
        "register-shared": (detector_b("register", "RA"),
                            "detectors 'A' and 'B' share register 'RA'"),
        # RA would read 1 after either outcome
        "detector-pointer-shared": (
            lambda blob: blob["detectors"][0]["projectors"][1].__setitem__("pointer", 1),
            "detector 'A' outcomes '+' and '-' share pointer 1"),
    }
    interaction_targets = "interaction 'kick' targets must be a non-empty tuple of distinct labels"
    outcome_targets = "outcome set targets must be a non-empty tuple of distinct labels"
    targets = {
        "interaction-duplicate-target": (interaction(["a", "a"], np.eye(4)), interaction_targets),
        "interaction-empty-targets": (interaction([], np.eye(1)), interaction_targets),
        "detector-duplicate-target": (detector_a("targets", ["a", "a"]), outcome_targets),
        "detector-empty-targets": (detector_a("targets", []), outcome_targets),
    }
    type_error = "malformed scenario: TypeError: "
    field_types = {
        "absorbing-a-string": (detector_a("absorbing", "no"),
                               "detector absorbing must be true or false, got 'no'"),
        "detector-time-a-string": (detector_a("at", {"t": "3", "x": [-6]}),
                                   "event t must be a number, got '3'"),
        "x-entry-a-string": (detector_a("at", {"t": 3, "x": ["-6"]}),
                             "event x entry must be a number, got '-6'"),
        "x-a-string": (detector_a("at", {"t": 3, "x": "6"}),
                       "event x must be a list, got '6'"),
        "c-a-string": (lambda blob: blob.__setitem__("c", "1"), "c must be a number, got '1'"),
        "c-a-bool": (lambda blob: blob.__setitem__("c", True), "c must be a number, got True"),
        "t0-a-string": (lambda blob: blob.__setitem__("initial_surface", {"t0": "-1e9"}),
                        "initial_surface t0 must be a number, got '-1e9'"),
        "dim-a-bool": (lambda blob: blob.__setitem__("dim", True),
                       "dim must be an integer, got True"),
        "dim-a-float": (lambda blob: blob.__setitem__("dim", 1.0),
                        "dim must be an integer, got 1.0"),
        "subsystem-dim-a-float": (lambda blob: blob["subsystems"][0].__setitem__("dim", 2.0),
                                  "subsystem dim must be an integer, got 2.0"),
        "detector-targets-a-string": (detector_a("targets", "a"),
                                      "detector targets must be a list, got 'a'"),
        "detector-target-not-a-string": (detector_a("targets", [0]),
                                         "detector targets entry must be a string, got 0"),
        "interaction-subsystems-a-string": (
            interaction("ab", np.eye(4)),
            "interaction subsystems must be a list, got 'ab'"),
        "charged-modes-a-string": (lambda blob: blob.__setitem__("charged_modes", "a"),
                                   "charged_modes must be a list, got 'a'"),
        "worldline-label-not-a-string": (lambda blob: blob["worldlines"][0].__setitem__("label", 5),
                                         "worldline label must be a string, got 5"),
        # each of these loads if a bool is read as 0 or 1, a numeric string as its number
        "amplitude-true": (
            lambda blob: blob["initial_state"].__setitem__("amplitudes", [[True, 0.0]] + [[0.0, 0.0]] * 215),
            "initial amplitude entry must be a number, got True"),
        "amplitude-numeric-string": (
            lambda blob: blob["initial_state"]["amplitudes"].__setitem__(0, ["0.7071067811865475", 0]),
            "initial amplitude entry must be a number, got '0.7071067811865475'"),
        "projector-entry-a-string": (projector_entry(1, 0, 0, "0.5"),
                                     "projector matrix entry must be a number, got '0.5'"),
        "projector-entry-false": (projector_entry(0, 1, 1, False),
                                  "projector matrix entry must be a number, got False"),
        "unitary-entry-false": (
            lambda blob: blob.__setitem__("interactions", [
                {"name": "kick", "at": {"t": 1, "x": [0]}, "subsystems": ["a"],
                 "unitary": [[[1.0, 0.0], [False, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}]),
            "unitary entry must be a number, got False"),
        "register-label-an-integer": (register_7, "subsystem label must be a string, got 7"),
        "detector-register-not-a-string": (detector_a("register", 7),
                                           "detector register must be a string, got 7"),
    }
    worldlines = {"without-points": lambda blob: blob["worldlines"][0].__setitem__("points", []),
                  "point-of-another-dimension":
                      lambda blob: blob["worldlines"][0]["points"][1].__setitem__("x", [-4.0, 0.0])}
    malformed = "malformed scenario"
    return {"missing-keys": ({"dim": 1}, malformed),
            "detector-without-projectors": (no_projectors, malformed),
            **{name: (edited(edit), message) for name, (edit, message) in shapes.items()},
            **{name: (edited(edit), message) for name, (edit, message) in targets.items()},
            **{name: (edited(edit), message) for name, (edit, message) in references.items()},
            **{f"worldline-{case}": (edited(edit), "worldline 'a' must have points of dimension 1")
               for case, edit in worldlines.items()},
            **{name: (edited(edit), type_error + message)
               for name, (edit, message) in field_types.items()},
            "top-level-list": ([1, 2], malformed),
            "split-b-measures-a": (
                b_measures_a, "interaction 'AA1 copy' at Event(t=1.0, x=(-2.0,)) and detector 'B' "
                              "at Event(t=3.0, x=(4.0,)) both act on subsystem 'a' but are spacelike"),
            "split-at-half-light-speed": (
                half_light_speed, "interaction 'AA1 copy' at Event(t=1.0, x=(-2.0,)) and detector "
                                  "'A' at Event(t=3.0, x=(-4.0,)) both act on subsystem 'a' but are "
                                  "spacelike"),
            "bogus-kind": (bogus_kind, malformed),
            "interaction-on-register": (kicks_register, "interaction 'kick' targets register"),
            "detector-measures-other-register": (reads_register, "detector 'B' measures register"),
            "register-in-superposition": (superposed, "register 'RA' is not in a single basis"),
            "register-entangled-with-spin": (entangled, "register 'RA' is not in a single basis"),
            "nan-amplitude": (nan_amplitude, "initial state has a non-finite amplitude"),
            "nan-amplitude-off-the-peak-slice": (
                nan_off_peak, "initial state has a non-finite amplitude"),
            **{f"{case}-projector": (blob, "projector '+' has a non-finite entry")
               for case, blob in non_finite_projectors.items()},
            "nan-detector-time": (nan_time, "event Event(t=nan, x=(0.0,)) has a non-finite"),
            "nan-speed-of-light": (nan_speed, "speed of light must be positive and finite, got nan"),
            "initial-norm-sqrt-2": (norm_sqrt_2, "initial state norm"),
            "initial-norm-off-by-4e-10": (norm_off_by_4e_10, "initial state norm"),
            "nan-initial-t0": (nan_floor, "surface floor t0 must be finite or -inf, got nan"),
            "absorbing-detector-not-rank-1": (
                absorbing, "absorbing detector 'A' requires rank-1 basis projectors"),
            **{f"{case}-3-element-entries": (
                blob, "malformed scenario: ValueError: complex entries must be [re, im] pairs")
               for case, blob in triples.items()},
            **{f"amplitudes-{case}": (blob, malformed) for case, blob in amplitude_cases.items()},
            **{f"pointer-{case}": (blob, "detector 'A' pointers must be integers >= 0")
               for case, blob in pointers.items()},
            **{f"detector-label-{case}": (blob, "detector label must be a non-empty string")
               for case, blob in detector_labels.items()},
            **{f"interaction-name-{case}": (interaction_names[case],
                                             "interaction name must be a non-empty string")
               for case in ("not-a-string", "empty")},
            "interaction-name-repeated": (interaction_names["repeated"],
                                          "duplicate interaction name 'AA2 copy'"),
            "copy-basis-theta-a-bool": (copy_theta,
                                        type_error + "axis theta must be a number, got True"),
            "copy-gate-source-not-a-string": (copy_source,
                                              type_error + "copy gate source must be a string, got 5"),
            "interaction-gate-and-unitary": (
                gate_and_unitary, "interaction 'AA1 copy' has both a gate and a unitary"),
            "gate-subsystems-disagree": (
                gate_subsystems, "interaction 'AA1 copy' subsystems ['b', 'c2'] are not "
                                 "its gate's source and target ['a', 'c1']"),
            "register-not-ready": (
                not_ready, "detector 'A' register 'RA' starts at index 2, not its ready index 0"),
            "outcome-label-not-a-string": (int_outcome_label, "outcome labels must be strings"),
            **{f"subsystem-{case}-mismatch": (
                blob, "initial state subsystems do not match scenario subsystems")
               for case, blob in mismatched.items()}}


@pytest.mark.parametrize("name", sorted(_malformed_scenarios()))
def test_malformed_scenario_file_is_a_validation_error(name, tmp_path, capsys):
    scenario, message = _malformed_scenarios()[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(scenario))
    for command in ("dist", "run", "orders", "sample", "diagram"):
        code, out, err = run_cli(capsys, command, "--scenario", str(path), "--json")
        assert (code, out) == (1, "")
        blob = json.loads(err)
        assert blob["error"] == "validation"
        assert blob["message"].startswith(message)


@pytest.mark.parametrize("far", ["x", "t"])
def test_a_scenario_too_large_to_draw_fails_diagram_only(far, tmp_path, capsys):
    """Coordinates near the float limit that every subcommand but
    ``diagram`` runs: a drawn range or span would overflow."""
    ghz = serialization.scenario_to_dict(scenarios.ghz())
    if far == "x":  # A and C at opposite ends of the float range
        ghz["detectors"][0]["at"]["x"] = [-1.7e308]
        ghz["detectors"][2]["at"]["x"] = [1.7e308]
        order = "A,B,C"
    else:  # B far in C's future
        ghz["detectors"][1]["at"]["t"] = 1.7e308
        order = "A,C,B"
    path = tmp_path / "far.json"
    path.write_text(json.dumps(ghz))
    argv = ("--scenario", str(path), "--order", order, "--json")
    for command in ("dist", "run"):
        assert run_cli(capsys, command, *argv)[0] == 0
    for extra in ((), ("--ascii",)):
        code, out, err = run_cli(capsys, "diagram", *argv, *extra)
        assert (code, out) == (1, "")
        blob = json.loads(err)
        assert blob["error"] == "validation"
        assert blob["message"].startswith("scenario too large to draw: ")


@pytest.mark.parametrize("command", ["run", "sample", "diagram"])
def test_negative_seed_is_a_validation_error(command, capsys):
    code, _, err = run_cli(capsys, command, "--scenario", "singlet", "--seed", "-1")
    assert code == 1
    assert err.startswith("error (validation): seed must be >= 0")
    code, _, err = run_cli(capsys, command, "--scenario", "singlet", "--seed", "-1", "--json")
    assert code == 1
    assert json.loads(err) == {"error": "validation", "message": "seed must be >= 0, got -1"}


@pytest.mark.parametrize("args, message", [
    (("--axes", "i=nan"), "axis angles must be finite, got theta=nan, phi=0.0"),
    (("--axes", "i=inf:0"), "axis angles must be finite, got theta=inf, phi=0.0"),
], ids=["axis-nan", "axis-inf"])
def test_non_finite_arguments_are_validation_errors(args, message, capsys):
    code, out, err = run_cli(capsys, "dist", "--scenario", "singlet", *args)
    assert (code, out) == (1, "")
    assert err == f"error (validation): {message}\n"


@pytest.mark.parametrize("raw", [b'{"dim": 1, "c": "\xff"}', b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf-8", "nested-100000-deep"])
def test_unreadable_scenario_bytes_are_a_validation_error(raw, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    code, out, err = run_cli(capsys, "dist", "--scenario", str(path), "--json")
    assert (code, out) == (1, "")
    blob = json.loads(err)
    assert blob["error"] == "validation"
    assert blob["message"].startswith(f"scenario file {str(path)!r} is ")


@pytest.mark.parametrize("enabled", [True, False])
def test_failed_load_leaves_the_collector_as_it_was(enabled, tmp_path, capsys):
    path = tmp_path / "bad.json"
    ragged = _malformed_scenarios()["amplitudes-ragged-pair"][0]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for text in ("{not json", json.dumps({"dim": 1}), json.dumps(ragged)):
            path.write_text(text)
            assert run_cli(capsys, "dist", "--scenario", str(path))[0] == 1
            assert gc.isenabled() is enabled
        path.write_text(json.dumps(serialization.scenario_to_dict(scenarios.ghz())))
        assert run_cli(capsys, "dist", "--scenario", str(path))[0] == 0
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


#: ``cli.main`` as the program.
_PROGRAM = "import sys\nfrom psvsim import cli\nsys.exit(cli.main())\n"
#: The program after registering an ``atexit`` marker.
_MARKED = "import atexit, sys\natexit.register(sys.stderr.write, 'atexit ran')\n" + _PROGRAM
#: ``cli.main`` in process: it is given its arguments and only returns.
_IN_PROCESS = "import sys\nfrom psvsim import cli\nsys.exit(cli.main(sys.argv[1:]))\n"


def _env(buffered=True):
    """This process's environment, with stdout and stderr buffered or not."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return env if buffered else {**env, "PYTHONUNBUFFERED": "1"}


def _child(code, argv, stdout=subprocess.PIPE, env=None):
    """A Python child running ``code`` with ``argv``, its stderr captured;
    its streams are buffered unless ``env`` says otherwise."""
    return subprocess.run([sys.executable, "-c", code, *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env or _env(), timeout=120)


@pytest.mark.parametrize("argv, code", [
    (("dist", "--scenario", "split", "--json"), 0),
    (("dist", "--scenario", "ghz", "--with-copies", "--json"), 1),
    (("run", "--scenario", "singlet", "--axes", "i=z,j=z", "--outcomes", "A=+,B=+", "--json"), 2),
    (("dist", "--scenario", "ghz", "--json", "--out", "/nonexistent-dir/x.json"), 3),
], ids=["ok", "validation", "physics", "io"])
def test_the_program_ends_with_the_commands_code_and_no_teardown(argv, code, capsys):
    """Run as a program, ``main`` ends the process with the command's exit
    code once the command returns: an ``atexit`` handler does not run, and
    stdout and stderr hold what the in-process call writes (an error as
    one JSON line)."""
    proc = _child(_MARKED, argv)
    assert proc.returncode == code
    assert (proc.stdout.decode(), proc.stderr.decode()) == run_cli(capsys, *argv)[1:]
    if code:
        assert proc.stdout == b"" and proc.stderr.count(b"\n") == 1
        assert json.loads(proc.stderr)["error"] == ("validation", "physics", "io")[code - 1]


def test_a_run_larger_than_a_pipe_buffer_arrives_whole(capsys):
    argv = ("run", "--scenario", "ghz", "--seed", "1", "--json")
    proc = _child(_MARKED, argv)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert len(proc.stdout) > 65536
    assert json.loads(proc.stdout) == json.loads(run_cli(capsys, *argv)[1])


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ("dist", "--scenario", "split"),
    ("run", "--scenario", "ghz", "--seed", "1", "--json"),
], ids=["small", "large"])
def test_a_closed_stdout_is_reported_as_the_in_process_path_reports_it(argv, buffered):
    """With its reader gone before the command writes, the program exits
    with the code and stderr of ``sys.exit(cli.main(sys.argv[1:]))``.  A
    write that fails in the command is an I/O error (exit 3); a flush that
    fails after it leaves the report to the interpreter's exit (code 120)."""
    results = []
    for code in (_PROGRAM, _IN_PROCESS):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = _child(code, argv, stdout=write, env=_env(buffered))
        finally:
            os.close(write)
        results.append((proc.returncode, proc.stderr))
    assert results[0] == results[1]
    assert results[0][0] in (3, 120)


@pytest.fixture
def ghz_file(tmp_path):
    path = tmp_path / "ghz.json"
    path.write_text(json.dumps(serialization.scenario_to_dict(scenarios.ghz())))
    return str(path)


@pytest.mark.parametrize("argv", [
    ("dist", "--seed", "1"),
    ("dist", "--seed", "-1"),
    ("dist", "--outcomes", "A=+"),
    ("orders", "--order", "A,B"),
    ("orders", "--seed", "1"),
    ("sample", "--outcomes", "A=+"),
    ("compare-hk", "--json"),
    ("compare-hk", "--axes", "i=x,q=z"),
    ("dist", "--scenario", "ghz", "--with-copies"),
    ("dist", "--scenario", "split", "--with-copies"),
    ("dist", "--scenario", "FILE", "--with-copies"),
    ("dist", "--scenario", "split", "--axes", "i=x"),
    ("dist", "--scenario", "FILE", "--axes", "i=x"),
    ("dist", "--scenario", "singlet", "--axes", "q=z"),
    ("dist", "--scenario", "singlet", "--axes", "i=x,k=x"),
    ("dist", "--scenario", "ghz", "--axes", "q=z"),
    ("dist", "--scenario", "ghz", "--c", "2"),
    ("dist", "--scenario", "FILE", "--c", "2"),
    ("dist", "--scenario", "ghz", "--axes", "i=x,i=z"),
    ("run", "--scenario", "split", "--outcomes", "A=hit,B=none,C=c1,C=c2"),
], ids=" ".join)
def test_an_option_nothing_reads_is_a_validation_error(argv, ghz_file, capsys):
    argv = [ghz_file if a == "FILE" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    # compare-hk reports its own errors as JSON; argument errors are text
    assert err.startswith("error (validation): ") or json.loads(err)["error"] == "validation"


def test_argument_errors_are_json_with_json(capsys):
    argv = ("dist", "--scenario", "ghz", "--seed", "1")
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "validation",
                               "message": "unrecognized arguments: --seed 1"}
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", "error (validation): unrecognized arguments: --seed 1\n")
    code, out, err = run_cli(capsys, "compare-hk", "--axes")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "validation"


@pytest.mark.parametrize("argv, unrecognized", [
    (("dist", "--scenario", "ghz", "--seed", "1", "--js"), "--seed 1 --js"),
    (("dist", "--scenario", "ghz", "--js"), "--js"),
    (("dist", "--scenario", "singlet", "--with"), "--with"),
    (("run", "--scenario", "ghz", "--ou", "x"), "--ou x"),
], ids=" ".join)
def test_an_option_prefix_is_not_the_option(argv, unrecognized, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error (validation): unrecognized arguments: {unrecognized}\n"


def test_sample_count_above_the_limit_is_a_validation_error(capsys):
    n = engine.MAX_SAMPLES + 1
    code, out, err = run_cli(capsys, "sample", "--scenario", "ghz", "--samples", str(n))
    assert (code, out) == (1, "")
    assert err == f"error (validation): {n} samples exceed limit {engine.MAX_SAMPLES}\n"


def test_dist_over_the_branch_limit_is_a_validation_error(capsys):
    with mock.patch.object(engine, "MAX_BRANCHES", 7):  # GHZ has 8 outcome branches
        code, out, err = run_cli(capsys, "dist", "--scenario", "ghz")
    assert (code, out, err) == (1, "", "error (validation): 8 outcome branches exceed limit 7\n")


def test_orders_refuses_more_detectors_than_it_enumerates(tmp_path, capsys):
    """Nine detectors along one spin's worldline have one valid order, but
    ``orders`` tries every permutation only up to eight detectors."""
    spin = SubsystemSpec("a", 2, SubsystemKind.SPIN)
    regs = tuple(SubsystemSpec(f"R{k}", 3, SubsystemKind.REGISTER) for k in range(9))
    s = Scenario(
        dim=1, c=1.0,
        initial=BranchState((spin,) + regs, hilbert.basis_state((spin,)),
                            {r.label: hilbert.basis_state((r,)) for r in regs}),
        initial_t0=-math.inf, interactions=(),
        detectors=tuple(DetectorEvent(f"D{k}", Event(k + 1.0, (0.0,)),
                                      hilbert.spin_outcome_set("a", hilbert.Z_AXIS), f"R{k}")
                        for k in range(9)),
    )
    path = tmp_path / "nine.json"
    path.write_text(json.dumps(serialization.scenario_to_dict(s)))
    code, out, err = run_cli(capsys, "orders", "--scenario", str(path), "--json")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "validation", "message":
                               "refusing to enumerate orders for 9 detectors (limit 8)"}


@pytest.mark.parametrize("argv, message", [
    (("run", "--scenario", "ghz", "--outcomes", "A=+,B=+"),
     "--outcomes missing entries for detectors ['C']"),
    (("dist", "--scenario", "singlet", "--axes", "i=x,j"),
     "malformed --axes entry 'j', expected key=value"),
], ids=["outcomes-missing-an-entry", "axes-entry-without-a-value"])
def test_an_incomplete_option_is_a_validation_error(argv, message, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"error (validation): {message}\n")


def test_outcomes_match_detector_labels_exactly(tmp_path, capsys):
    blob = serialization.scenario_to_dict(scenarios.ghz())
    for det, label in zip(blob["detectors"], ("a", "A", "C")):
        det["label"] = label
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(blob))
    code, out, _ = run_cli(capsys, "run", "--scenario", str(path),
                           "--outcomes", "a=+,A=-,C=-", "--json")
    assert code == 0
    assert json.loads(out)["outcomes"] == ["+", "-", "-"]
    for outcomes in ("a=+,A=-,c=-", "a=+,A=-,C=-,D=+"):
        code, out, err = run_cli(capsys, "run", "--scenario", str(path), "--outcomes", outcomes)
        assert (code, out) == (1, "")
        assert err.startswith("error (validation): --outcomes names no detector")
