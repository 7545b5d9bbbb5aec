import math
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

from psvsim import hilbert, scenarios, serialization
from psvsim.diagram import render_ascii, render_svg
from psvsim.engine import BranchState, DetectorEvent, Scenario, run
from psvsim.errors import ConfigurationError
from psvsim.geometry import Event
from psvsim.hilbert import SubsystemKind, SubsystemSpec, Z_AXIS


def split_record():
    s = scenarios.split_particle()
    return run(s, ("C", "B", "A"), outcomes=("c1", "none", "hit"))


def test_svg_is_deterministic():
    assert render_svg(split_record()) == render_svg(split_record())


def test_svg_structure():
    svg = render_svg(split_record())
    assert svg.startswith('<?xml version="1.0"')
    assert svg.rstrip().endswith("</svg>")
    assert svg.count('class="surface"') == 3       # one polyline per step
    assert svg.count('class="surface-past"') == 3
    assert svg.count('class="detector"') == 3
    assert svg.count('class="interaction"') == 2
    assert svg.count('class="worldline"') == 4
    # surface limit labels S1-/S1+ around the first reduction surface
    assert ">S1-<" in svg and ">S1+<" in svg
    # detector outcome annotations
    assert ">C: c1<" in svg and ">A: hit<" in svg


def test_svg_draws_a_finite_initial_surface():
    s = replace(scenarios.ghz(), initial_t0=-1.0)
    root = ET.fromstring(render_svg(run(s, s.detector_labels, seed=0)))
    lines = [el for el in root.iter() if el.tag.endswith("}line")]
    assert [el.get("class") for el in lines] == ["initial-surface"]
    assert lines[0].get("y1") == lines[0].get("y2")
    assert "S0" in {el.text for el in root.iter() if el.tag.endswith("}text")}


def test_svg_escapes_labels():
    mark = '<&>"\''
    d = serialization.scenario_to_dict(scenarios.split_particle())
    d["detectors"][0]["label"], d["detectors"][0]["projectors"][1]["label"] = "A" + mark, "hit" + mark
    d["interactions"][0]["name"], d["worldlines"][0]["label"] = "copy" + mark, "a" + mark
    record = run(serialization.scenario_from_dict(d), ("A" + mark, "B", "C"),
                 outcomes=("hit" + mark, "none", "c1"))
    root = ET.fromstring(render_svg(record))
    texts = {el.text for el in root.iter() if el.tag.endswith("text")}
    assert {f"A{mark}: hit{mark}", "copy" + mark, "a" + mark} <= texts


def test_svg_rejects_higher_dimensions():
    spin = SubsystemSpec("s", 2, SubsystemKind.SPIN)
    reg = SubsystemSpec("R", 3, SubsystemKind.REGISTER)
    s = Scenario(
        dim=2, c=1.0,
        initial=BranchState((spin, reg), hilbert.basis_state((spin,)),
                            {"R": hilbert.basis_state((reg,))}),
        initial_t0=-math.inf, interactions=(),
        detectors=(DetectorEvent("A", Event(1.0, (0.0, 0.0)),
                                 hilbert.spin_outcome_set("s", Z_AXIS), "R"),),
    )
    record = run(s, ("A",), outcomes=("+",))
    for render in (render_svg, render_ascii):
        with pytest.raises(ConfigurationError, match="only drawn for 1 spatial dimension"):
            render(record)


def test_ascii_rendering():
    art = render_ascii(split_record())
    assert "~" in art      # reduction surfaces
    assert "*" in art      # copy devices
    assert "." in art      # worldlines
    for initial in "ABC":
        assert initial in art
    assert render_ascii(split_record()) == art
