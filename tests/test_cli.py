import json
import math

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


def _malformed_scenarios():
    ghz = serialization.scenario_to_dict(scenarios.ghz())
    no_targets = json.loads(json.dumps(ghz))
    no_targets["detectors"][0] = {"label": "A", "at": {"t": 3, "x": [-4]},
                                  "register": "RA", "axis": {"theta": 0.0}}
    bogus_kind = json.loads(json.dumps(ghz))
    bogus_kind["subsystems"][0]["kind"] = "bogus"
    return {"missing-keys": {"dim": 1}, "axis-without-targets": no_targets,
            "top-level-list": [1, 2], "bogus-kind": bogus_kind}


@pytest.mark.parametrize("name", sorted(_malformed_scenarios()))
def test_malformed_scenario_file_is_a_validation_error(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_malformed_scenarios()[name]))
    code, _, err = run_cli(capsys, "dist", "--scenario", str(path), "--json")
    assert code == 1
    blob = json.loads(err)
    assert blob["error"] == "validation"
    assert blob["message"].startswith("malformed scenario")
