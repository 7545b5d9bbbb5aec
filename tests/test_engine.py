import math

import numpy as np
import pytest

from psvsim import engine, hilbert, scenarios
from psvsim.engine import (
    DetectorEvent,
    InteractionEvent,
    Scenario,
    UndefinedState,
    enumerate_valid_orders,
    joint_distribution,
    run,
    sample,
    state_on_hyperplane,
    step,
    validate_reduction_order,
    validate_scenario,
)
from psvsim.errors import ConfigurationError
from psvsim.geometry import Event, Lcsh, LimitSide
from psvsim.hilbert import X_AXIS, Z_AXIS, SubsystemKind, SubsystemSpec, states_close


def two_detector_scenario(event_a, event_b):
    """Minimal two-spin scenario with detectors at configurable events."""
    spins = (SubsystemSpec("a", 2, SubsystemKind.SPIN),
             SubsystemSpec("b", 2, SubsystemKind.SPIN))
    regs = (SubsystemSpec("RA", 3, SubsystemKind.REGISTER),
            SubsystemSpec("RB", 3, SubsystemKind.REGISTER))
    initial = hilbert.tensor(scenarios.singlet_state(spins),
                             hilbert.basis_state(regs))
    s = Scenario(
        dim=1, c=1.0, subsystems=spins + regs, initial_state=initial,
        initial_t0=-math.inf, interactions=(),
        detectors=(
            DetectorEvent("A", event_a, hilbert.spin_outcome_set("a", Z_AXIS), "RA"),
            DetectorEvent("B", event_b, hilbert.spin_outcome_set("b", X_AXIS), "RB"),
        ),
    )
    validate_scenario(s)
    return s


def test_interaction_event_requires_unitary():
    with pytest.raises(ConfigurationError):
        InteractionEvent("bad", Event(0, (0,)), ("a", "b"),
                         np.diag([1.0, 1.0, 1.0, 2.0]))


def test_detector_event_validation():
    outcomes = hilbert.spin_outcome_set("a", Z_AXIS)
    with pytest.raises(ConfigurationError):
        DetectorEvent("A", Event(0, (0,)), outcomes, "a")  # register == target
    with pytest.raises(ConfigurationError):
        DetectorEvent("A", Event(0, (0,)), outcomes, "RA", pointers=(1,))
    d = DetectorEvent("A", Event(0, (0,)), outcomes, "RA")
    assert d.pointers == (1, 2)
    assert d.pointer_for("-") == 2


def test_validate_scenario_errors():
    from dataclasses import replace

    s = two_detector_scenario(Event(3, (-4,)), Event(3, (4,)))
    with pytest.raises(ConfigurationError):
        validate_scenario(replace(s, charged_modes=("a",)))  # spin is not a mode
    with pytest.raises(ConfigurationError):
        validate_scenario(replace(s, initial_t0=10.0))  # events below initial surface


def test_reduction_order_spacelike_unconstrained():
    s = two_detector_scenario(Event(3, (-4,)), Event(3, (4,)))
    assert validate_reduction_order(s, ("A", "B")) == []
    assert validate_reduction_order(s, ("B", "A")) == []
    assert len(enumerate_valid_orders(s)) == 2


def test_reduction_order_timelike_constrained():
    s = two_detector_scenario(Event(1, (0,)), Event(5, (1,)))
    assert validate_reduction_order(s, ("A", "B")) == []
    assert validate_reduction_order(s, ("B", "A")) == [("A", "B")]
    assert enumerate_valid_orders(s) == [("A", "B")]
    with pytest.raises(ConfigurationError):
        run(s, ("B", "A"), outcomes=("+", "+"))


def test_reduction_order_lightlike_unconstrained():
    s = two_detector_scenario(Event(0, (0,)), Event(4, (4,)))
    assert len(enumerate_valid_orders(s)) == 2


def test_roundoff_lightlike_detectors_admit_both_orders():
    # (0.1 + 0.2) - 0.3 is 5.6e-17: on each other's cone under roundoff
    s = two_detector_scenario(Event(0, (0,)), Event(0.1 + 0.2, (0.3,)))
    assert validate_reduction_order(s, ("B", "A")) == []
    assert len(enumerate_valid_orders(s)) == 2
    d_ab = joint_distribution(s, ("A", "B"))
    assert d_ab.max_deviation(joint_distribution(s, ("B", "A"))) < 1e-12


def test_order_must_be_permutation():
    s = two_detector_scenario(Event(3, (-4,)), Event(3, (4,)))
    with pytest.raises(ConfigurationError):
        validate_reduction_order(s, ("A",))
    with pytest.raises(ConfigurationError):
        validate_reduction_order(s, ("A", "A"))


def test_step_applies_interactions_then_reduces():
    s = scenarios.split_particle()
    node = step(s, s.initial_surface(), s.initial_state, "C")
    assert node.interactions_applied == ("AA1 copy", "AA2 copy")
    assert node.remaining == ()
    assert node.reduction
    probs = dict(zip(node.detector.outcomes.labels, node.probabilities))
    assert probs["c1"] == pytest.approx(0.5, abs=1e-12)
    assert sum(node.probabilities) == pytest.approx(1.0, abs=1e-12)
    assert node.surface_before == s.initial_surface()
    assert node.surface_after.apexes[-1] == s.detector("C").at
    assert node.surface_after.side is LimitSide.PLUS


def test_step_reduction_flag_false_when_certain():
    s = scenarios.ghz()
    rec = run(s, ("A", "B", "C"), outcomes=("+", "+", "+"))
    assert rec.steps[0].reduction and rec.steps[1].reduction
    assert not rec.steps[2].reduction
    assert rec.steps[2].probability == pytest.approx(1.0, abs=1e-12)


def test_run_rejects_unknown_fixed_outcome():
    s = scenarios.ghz()
    with pytest.raises(ConfigurationError):
        run(s, ("A", "B", "C"), outcomes=("+", "sideways", "+"))


def test_run_total_probability_and_outcomes():
    s = scenarios.split_particle()
    rec = run(s, ("A", "B", "C"), outcomes=("hit", "none", "c1"))
    assert rec.total_probability == pytest.approx(0.5, abs=1e-12)
    assert rec.outcomes() == ("hit", "none", "c1")
    assert rec.final_state.norm == pytest.approx(1.0, abs=1e-12)


def test_run_outcome_length_mismatch():
    s = scenarios.ghz()
    with pytest.raises(ConfigurationError):
        run(s, ("A", "B", "C"), outcomes=("+", "+"))


def test_sampled_run_is_seed_deterministic():
    s = scenarios.ghz()
    r1 = run(s, ("A", "B", "C"), seed=42)
    r2 = run(s, ("A", "B", "C"), seed=42)
    assert r1.outcomes() == r2.outcomes()


def test_joint_distribution_sums_to_one():
    for s in (scenarios.split_particle(), scenarios.ghz(),
              scenarios.singlet(Z_AXIS, X_AXIS)):
        d = joint_distribution(s, s.detector_labels)
        assert sum(d.probabilities.values()) == pytest.approx(1.0, abs=1e-12)


def test_joint_distribution_keys_follow_declaration_order():
    s = scenarios.split_particle()
    d1 = joint_distribution(s, ("A", "B", "C"))
    d2 = joint_distribution(s, ("C", "B", "A"))
    assert set(d1.probabilities) == set(d2.probabilities)
    assert d1.max_deviation(d2) < 1e-12


def test_asymmetric_split_probabilities():
    s = scenarios.split_particle(amplitudes=(0.6, 0.8))
    d = joint_distribution(s, ("A", "B", "C"))
    assert d.probability(("hit", "none", "c1")) == pytest.approx(0.36, abs=1e-12)
    assert d.probability(("none", "hit", "c2")) == pytest.approx(0.64, abs=1e-12)


def test_sample_reproducible_and_consistent():
    s = scenarios.singlet(Z_AXIS, X_AXIS)
    e1 = sample(s, ("A", "B"), 4000, seed=11)
    e2 = sample(s, ("A", "B"), 4000, seed=11)
    assert e1.counts == e2.counts
    e3 = sample(s, ("A", "B"), 4000, seed=12)
    assert e3.counts != e1.counts
    d = joint_distribution(s, ("A", "B"))
    for key, p in d.probabilities.items():
        assert abs(e1.frequency(key) - p) < 4 * math.sqrt(p * (1 - p) / 4000)


def test_joint_distribution_expands_each_node_once(monkeypatch):
    calls = {"step": 0, "born": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(engine, "step", counted("step", engine.step))
    monkeypatch.setattr(hilbert, "born_probability", counted("born", hilbert.born_probability))
    s = scenarios.ghz()
    d = joint_distribution(s, ("A", "B", "C"))
    # every expanded node is a proper prefix of some leaf
    nodes = {key[:k] for key in d.probabilities for k in range(3)}
    assert len(nodes) == 7
    assert calls["step"] == len(nodes)
    assert calls["born"] == 2 * len(nodes)


def test_sample_counts_are_prefix_monotone():
    # run i is decided by the i-th uniform of one stream, so adding runs
    # never takes a count away from any cell
    s = scenarios.split_particle()
    for seed in (0, 5):
        small = sample(s, ("A", "B", "C"), 300, seed=seed)
        large = sample(s, ("A", "B", "C"), 1000, seed=seed)
        for key, count in small.counts.items():
            assert count <= large.counts.get(key, 0)


def test_sample_keys_are_joint_distribution_leaves():
    for s in (scenarios.split_particle(), scenarios.ghz(),
              scenarios.singlet(Z_AXIS, X_AXIS, with_copies=True)):
        d = joint_distribution(s, s.detector_labels)
        for seed in range(3):
            e = sample(s, s.detector_labels, 2000, seed=seed)
            assert set(e.counts) <= set(d.probabilities)
            assert sum(e.counts.values()) == 2000


def test_sample_rejects_bad_count():
    s = scenarios.ghz()
    with pytest.raises(ConfigurationError):
        sample(s, ("A", "B", "C"), 0)


def test_state_on_hyperplane_undefined_on_crossing():
    s = scenarios.split_particle()
    rec = run(s, ("C", "B", "A"), outcomes=("c1", "none", "hit"))
    out = state_on_hyperplane(rec, 2.0)
    assert isinstance(out, UndefinedState)
    assert "C" in out.reason


def test_state_on_hyperplane_far_future_equals_final_state():
    s = scenarios.split_particle()
    rec = run(s, ("C", "B", "A"), outcomes=("c1", "none", "hit"))
    out = state_on_hyperplane(rec, 20.0)
    assert states_close(out, rec.final_state, tol=1e-10)


def test_state_on_hyperplane_far_past_is_initial_state():
    s = scenarios.split_particle()
    rec = run(s, ("C", "B", "A"), outcomes=("c1", "none", "hit"))
    out = state_on_hyperplane(rec, -10.0)
    assert states_close(out, rec.scenario.initial_state, tol=1e-12)


def test_state_on_hyperplane_between_reductions():
    s = scenarios.split_particle()
    rec = run(s, ("C", "B", "A"), outcomes=("c1", "none", "hit"))
    surface = Lcsh(apexes=rec.steps[0].surface_after.apexes + (Event(3.5, (4.0,)),))
    out = state_on_hyperplane(rec, surface)
    assert not isinstance(out, UndefinedState)
    assert out.norm == pytest.approx(1.0, abs=1e-12)


def test_initial_surface_is_flat():
    surface = scenarios.ghz().initial_surface()
    assert surface.apexes == ()
    assert math.isinf(surface.t0)
