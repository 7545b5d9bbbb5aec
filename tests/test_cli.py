import gc
import json
import math
from copy import deepcopy

import numpy as np
import pytest

from psvsim import scenarios, serialization
from psvsim.cli import main, parse_axis
from psvsim.errors import ConfigurationError


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
    no_targets = deepcopy(ghz)
    no_targets["detectors"][0] = {"label": "A", "at": {"t": 3, "x": [-4]},
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
    nan_projector = deepcopy(ghz)
    nan_projector["detectors"][0]["projectors"][0]["matrix"][0][0][0] = nan
    nan_time = deepcopy(ghz)
    nan_time["detectors"][1]["at"]["t"] = nan
    nan_speed = dict(ghz, c=nan)
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
    malformed = "malformed scenario"
    return {"missing-keys": ({"dim": 1}, malformed),
            "axis-without-targets": (no_targets, malformed),
            "top-level-list": ([1, 2], malformed),
            "bogus-kind": (bogus_kind, malformed),
            "interaction-on-register": (kicks_register, "interaction 'kick' targets register"),
            "detector-measures-other-register": (reads_register, "detector 'B' measures register"),
            "register-in-superposition": (superposed, "register 'RA' is not in a single basis"),
            "register-entangled-with-spin": (entangled, "register 'RA' is not in a single basis"),
            "nan-amplitude": (nan_amplitude, "initial state has a non-finite amplitude"),
            "nan-projector": (nan_projector, "detector 'A' projector '+' has a non-finite entry"),
            "nan-detector-time": (nan_time, "event Event(t=nan, x=(0.0,)) has a non-finite"),
            "nan-speed-of-light": (nan_speed, "speed of light must be positive and finite, got nan"),
            "absorbing-detector-not-rank-1": (
                absorbing, "absorbing detector 'A' requires rank-1 basis projectors"),
            **{f"{case}-3-element-entries": (
                blob, "malformed scenario: ValueError: complex entries must be [re, im] pairs")
               for case, blob in triples.items()},
            **{f"amplitudes-{case}": (blob, malformed) for case, blob in amplitude_cases.items()}}


@pytest.mark.parametrize("name", sorted(_malformed_scenarios()))
def test_malformed_scenario_file_is_a_validation_error(name, tmp_path, capsys):
    scenario, message = _malformed_scenarios()[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(scenario))
    code, _, err = run_cli(capsys, "dist", "--scenario", str(path), "--json")
    assert code == 1
    blob = json.loads(err)
    assert blob["error"] == "validation"
    assert blob["message"].startswith(message)


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
    (("--c", "nan"), "speed of light must be positive and finite, got nan"),
    (("--c", "0"), "speed of light must be positive and finite, got 0.0"),
], ids=["axis-nan", "axis-inf", "c-nan", "c-zero"])
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
