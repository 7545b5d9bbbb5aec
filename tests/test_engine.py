import itertools
import json
import math
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles
from _oracles import states_close
from psvsim import diagram, engine, geometry, hilbert, scenarios, serialization
from psvsim.engine import (
    BranchState,
    DetectorEvent,
    InteractionEvent,
    Scenario,
    UndefinedState,
    apply_detector,
    enumerate_valid_orders,
    joint_distribution,
    run,
    sample,
    state_on_hyperplane,
    step,
    validate_reduction_order,
)
from psvsim.errors import ConfigurationError, ImpossibleBranchError
from psvsim.geometry import Event, Lcsh
from psvsim.hilbert import (
    X_AXIS,
    Z_AXIS,
    Axis,
    OutcomeSet,
    StateVector,
    SubsystemKind,
    SubsystemSpec,
)


def _factored(state: StateVector) -> BranchState:
    """``BranchState.from_nonzero`` of a full state's entries that are not +0+0j."""
    index = hilbert.nonzero_bits(state.amplitudes)
    return BranchState.from_nonzero(state.subsystems, index, state.amplitudes[index])


def two_detector_scenario(event_a, event_b):
    """Minimal two-spin scenario with detectors at configurable events."""
    spins = (SubsystemSpec("a", 2, SubsystemKind.SPIN),
             SubsystemSpec("b", 2, SubsystemKind.SPIN))
    regs = (SubsystemSpec("RA", 3, SubsystemKind.REGISTER),
            SubsystemSpec("RB", 3, SubsystemKind.REGISTER))
    initial = hilbert.tensor(scenarios.singlet_state(spins),
                             hilbert.basis_state(regs))
    return Scenario(
        dim=1, c=1.0, initial=_factored(initial),
        initial_t0=-math.inf, interactions=(),
        detectors=(
            DetectorEvent("A", event_a, hilbert.spin_outcome_set("a", Z_AXIS), "RA"),
            DetectorEvent("B", event_b, hilbert.spin_outcome_set("b", X_AXIS), "RB"),
        ),
    )


def ghz_n(axes):
    """GHZ-N: spins s0.. in (|0..0> - |1..1>)/sqrt2, mutually spacelike
    detectors D0.. and a dimension-3 register each."""
    n = len(axes)
    spins = tuple(SubsystemSpec(f"s{k}", 2, SubsystemKind.SPIN) for k in range(n))
    regs = tuple(SubsystemSpec(f"R{k}", 3, SubsystemKind.REGISTER) for k in range(n))
    amps = np.zeros(2 ** n, dtype=complex)
    amps[0], amps[-1] = 1 / math.sqrt(2.0), -1 / math.sqrt(2.0)
    return Scenario(
        dim=1, c=1.0,
        initial=_factored(
            hilbert.tensor(StateVector(spins, amps), hilbert.basis_state(regs))),
        initial_t0=-math.inf, interactions=(),
        detectors=tuple(
            DetectorEvent(f"D{k}", Event(3.0, (6.0 * k,)),
                          hilbert.spin_outcome_set(f"s{k}", axes[k]), f"R{k}")
            for k in range(n)
        ),
    )


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_events_reject_non_finite_values_when_built(bad):
    with pytest.raises(ConfigurationError, match="has a non-finite coordinate"):
        Event(bad, (0.0,))
    with pytest.raises(ConfigurationError, match="has a non-finite coordinate"):
        Event(1.0, (0.0, bad))
    u = np.eye(2, dtype=complex)
    u[0, 1] = bad
    with pytest.raises(ConfigurationError, match="interaction 'k' has a non-finite unitary entry"):
        InteractionEvent("k", Event(1.0, (0.0,)), ("a",), u)
    p = np.diag([0.0, 1.0])
    p[1, 1] = bad
    with pytest.raises(ConfigurationError, match="projector '-' has a non-finite entry"):
        OutcomeSet(("a",), (("+", np.diag([1.0, 0.0])), ("-", p)))


def test_validate_scenario_errors():
    s = two_detector_scenario(Event(3, (-4,)), Event(3, (4,)))
    with pytest.raises(ConfigurationError, match="charged subsystem 'a' is not an occupation"):
        replace(s, charged_modes=("a",))  # spin is not a mode
    with pytest.raises(ConfigurationError, match="is not in the future of the initial surface"):
        replace(s, initial_t0=10.0)  # events below initial surface


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
#: A rotation by pi/8 about y, which does not commute with the Hadamard.
_TURN = np.array([[math.cos(math.pi / 8), -math.sin(math.pi / 8)],
                  [math.sin(math.pi / 8), math.cos(math.pi / 8)]], dtype=complex)


def _history(*events) -> Scenario:
    """Spins a and b at |00> with a register per detector.  Each event is
    (name, t, x, spin, what): a 2x2 unitary on the spin, or the axis a
    detector measures it along."""
    spins = (SubsystemSpec("a", 2, SubsystemKind.SPIN), SubsystemSpec("b", 2, SubsystemKind.SPIN))
    detectors = [ev for ev in events if isinstance(ev[4], Axis)]
    regs = tuple(SubsystemSpec(f"R{name}", 3, SubsystemKind.REGISTER) for name, *_ in detectors)
    return Scenario(
        dim=1, c=1.0,
        initial=BranchState(spins + regs, hilbert.basis_state(spins),
                            {r.label: hilbert.basis_state((r,)) for r in regs}),
        initial_t0=-math.inf,
        interactions=tuple(InteractionEvent(name, Event(t, (x,)), (spin,), u)
                           for name, t, x, spin, u in events if not isinstance(u, Axis)),
        detectors=tuple(DetectorEvent(name, Event(t, (x,)), hilbert.spin_outcome_set(spin, axis),
                                      f"R{name}") for name, t, x, spin, axis in detectors),
    )


@pytest.mark.parametrize("events, message", [
    ((("DA", 0, 0, "a", Z_AXIS), ("U", 1, 1, "a", _HADAMARD), ("DB", 2, 2, "b", Z_AXIS)),
     "detector 'DA' at Event(t=0.0, x=(0.0,)) and interaction 'U' at Event(t=1.0, x=(1.0,)) "
     "both act on subsystem 'a' but are lightlike"),
    ((("DZ", 0, 0, "a", Z_AXIS), ("DX", 1, 1, "a", X_AXIS)),
     "detector 'DZ' at Event(t=0.0, x=(0.0,)) and detector 'DX' at Event(t=1.0, x=(1.0,)) "
     "both act on subsystem 'a' but are lightlike"),
    ((("DZ", 0, 0, "a", Z_AXIS), ("DX", 0, 1, "a", X_AXIS)),
     "detector 'DZ' at Event(t=0.0, x=(0.0,)) and detector 'DX' at Event(t=0.0, x=(1.0,)) "
     "both act on subsystem 'a' but are spacelike"),
], ids=["detector-then-interaction-lightlike", "two-detectors-lightlike", "two-detectors-spacelike"])
def test_events_on_one_subsystem_that_nothing_orders_are_a_configuration_error(events, message):
    """Without the rule, each of these pairs gives two distributions under
    the two valid orders.  An interaction on a detector's future cone
    applies after it, unless a detector on that cone (DB) reduces first:
    its step applies the interaction, before DA."""
    with mock.patch.object(engine, "validate_scenario"):
        s = _history(*events)
    first, second = (joint_distribution(s, order) for order in enumerate_valid_orders(s))
    assert first.max_deviation(second) >= 0.25
    with pytest.raises(ConfigurationError) as err:
        _history(*events)
    assert str(err.value) == message


@pytest.mark.parametrize("events, p_plus", [
    ((("U", 0, 0, "a", _HADAMARD), ("DA", 1, 1, "a", Z_AXIS), ("DB", 2, 2, "b", Z_AXIS)), 0.5),
    ((("U1", 0, 0, "a", _HADAMARD), ("U2", 1, 1, "a", _TURN), ("DA", 3, 1, "a", Z_AXIS),
      ("DB", 2, 2, "b", Z_AXIS)), (1 - math.sin(math.pi / 4)) / 2),
], ids=["interaction-then-detector-lightlike", "two-interactions-lightlike"])
def test_lightlike_pairs_that_step_orders_are_accepted(events, p_plus):
    """An interaction on a detector's past cone applies before it, and two
    interactions on one light ray apply in time order (U1 then U2; U2 then
    U1 would give (1 + sin(pi/4))/2), under both valid orders, also when
    DB's cone, which holds them, reduces first."""
    s = _history(*events)
    orders = enumerate_valid_orders(s)
    assert len(orders) == 2
    for order in orders:
        assert joint_distribution(s, order).probability(("+", "+")) == pytest.approx(p_plus, abs=1e-12)


def _register_rule_violations():
    """name -> (a build of the two-detector scenario that breaks a register
    rule, start of the expected error message).  The ``register-factor-*``,
    ``register-labelled-*`` and ``core-*`` cases hand-build a
    ``BranchState`` that ``BranchState.split`` would not make."""
    s = two_detector_scenario(Event(3, (-4,)), Event(3, (4,)))
    spins, regs = s.subsystems[:2], s.subsystems[2:]
    kick = InteractionEvent("kick", Event(1, (-4,)), ("a", "RA"), np.eye(6))
    outcomes_b = OutcomeSet(targets=("b", "RA"), outcomes=tuple(
        (l, np.kron(p, np.eye(3))) for l, p in s.detector("B").outcomes.outcomes))
    reads_ra = replace(s.detector("B"), outcomes=outcomes_b)
    ready = hilbert.basis_state(regs[1:])
    superposed = StateVector(regs[:1], np.array([1, 1, 0]) / math.sqrt(2.0))
    entangled = np.zeros((2, 2, 3), dtype=complex)  # spins a, b and register RA
    entangled[0, 1, 1], entangled[1, 0, 2] = 1 / math.sqrt(2.0), -1 / math.sqrt(2.0)
    basis = "register 'RA' is not in a single basis state"
    clash = SubsystemSpec("a", 3, SubsystemKind.REGISTER)
    with_factor = lambda label, factor: replace(
        s, initial=replace(s.initial, registers={**s.initial.registers, label: factor}))
    return {
        "interaction-on-register": (
            lambda: replace(s, interactions=(kick,)), "interaction 'kick' targets register 'RA'"),
        "detector-measures-other-register": (
            lambda: replace(s, detectors=(s.detector("A"), reads_ra)),
            "detector 'B' measures register 'RA'"),
        "register-in-superposition": (lambda: replace(s, initial=_factored(
            hilbert.tensor(scenarios.singlet_state(spins), superposed, ready))), basis),
        "register-entangled-with-spin": (lambda: replace(s, initial=_factored(
            hilbert.tensor(StateVector(spins + regs[:1], entangled.reshape(-1)), ready))), basis),
        "register-factor-in-superposition": (lambda: with_factor("RA", superposed), basis),
        "register-factor-on-another-register": (
            lambda: with_factor("RA", hilbert.basis_state(regs[1:])), basis),
        "register-factor-missing": (
            lambda: replace(s, initial=replace(s.initial, registers={"RA": s.initial.registers["RA"]})),
            "initial register factors ['RA'] are not the registers ['RA', 'RB']"),
        "register-labelled-like-a-spin": (
            lambda: replace(s, initial=replace(
                s.initial, subsystems=s.subsystems + (clash,),
                registers={**s.initial.registers, "a": hilbert.basis_state((clash,))})),
            "duplicate subsystem labels in ['a', 'b', 'RA', 'RB', 'a']"),
        "core-missing-a-subsystem": (
            lambda: replace(s, initial=replace(s.initial, core=hilbert.basis_state(spins[:1]))),
            "initial core spans ('a',), not the non-register subsystems ('a', 'b')"),
    }


@pytest.mark.parametrize("name", sorted(_register_rule_violations()))
def test_validate_scenario_keeps_registers_unentangled(name):
    build, message = _register_rule_violations()[name]
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        build()


def _random_state(rng) -> StateVector:
    """A state over one to four spins and registers: a basis state, a full
    superposition, a sparse list of -0.0, tiny, large, tied and non-finite
    entries, a list of signed zeros, an all-zero list, or two tied peaks."""
    subsystems = tuple(SubsystemSpec(f"q{k}", 2, SubsystemKind.SPIN) if rng.random() < 0.5
                       else SubsystemSpec(f"q{k}", int(rng.integers(2, 4)), SubsystemKind.REGISTER)
                       for k in range(rng.integers(1, 5)))
    size = math.prod(sub.dim for sub in subsystems)
    amps = np.zeros(size, dtype=complex)
    kind = rng.integers(6)
    if kind == 0:
        amps[rng.integers(size)] = 1.0
    elif kind == 1:
        amps[:] = rng.normal(size=size) + 1j * rng.normal(size=size)
    elif kind == 2:
        at = rng.choice(size, rng.integers(size + 1), replace=False)
        amps[at] = (rng.choice([1.0, -0.0, 1e-13, 2e-12, 0.5, np.nan, np.inf, -1.0], size=at.size)
                    + 1j * rng.choice([0.0, -0.0, 1.0, 1e-13], size=at.size))
    elif kind == 3:
        amps.real[rng.random(size) < 0.5] = -0.0
        amps.imag[rng.random(size) < 0.5] = -0.0
        amps[rng.integers(size)] = 0.7
    elif kind == 5:
        amps[rng.integers(size, size=2)] = 1.0
    return StateVector(subsystems, amps)


def test_from_nonzero_factors_states_as_the_dense_oracle_does():
    """``BranchState.from_nonzero`` of a state's entries that are not
    +0+0j gives ``_oracles.dense_split``'s core bytes, signed zeros
    included, and register indices, or its error, and its core is a
    contiguous array."""
    rng = np.random.default_rng(21)
    for _ in range(2000):
        state = _random_state(rng)
        try:
            core, registers = _oracles.dense_split(state)
        except ConfigurationError as exc:
            with pytest.raises(ConfigurationError, match=re.escape(str(exc))):
                _factored(state)
            continue
        split = _factored(state)
        assert split.core.amplitudes.tobytes() == core.tobytes()
        assert split.core.amplitudes.flags.c_contiguous
        assert {label: int(np.flatnonzero(factor.amplitudes)[0])
                for label, factor in split.registers.items()} == registers


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
    node = step(s, s.initial_surface(), s.initial, "C")
    assert node.interactions_applied == ("AA1 copy", "AA2 copy")
    assert node.reduction
    probs = dict(zip(node.detector.outcomes.labels, node.probabilities))
    assert probs["c1"] == pytest.approx(0.5, abs=1e-12)
    assert sum(node.probabilities) == pytest.approx(1.0, abs=1e-12)
    assert node.surface_after.apexes[-1] == s.detector("C").at


@pytest.mark.parametrize("build", [
    scenarios.split_particle,
    lambda: scenarios.singlet(Z_AXIS, X_AXIS, with_copies=True),
], ids=["split", "singlet-with-copies"])
def test_step_takes_due_interactions_from_its_two_surfaces(build):
    # On a recorded surface S_k-1 with the state there, ``step`` applies the
    # run's interactions of step k and none of the earlier ones.
    s = build()
    for order in enumerate_valid_orders(s):
        for seed in (0, 1):
            state = s.initial
            for st in run(s, order, seed=seed).steps:
                node = step(s, st.surface_before, state, st.detector)
                assert node.interactions_applied == st.interactions_applied
                assert states_close(node.state_before.materialize(), st.state_before)
                state = _factored(st.state_after)


@pytest.mark.parametrize("outcomes", [
    hilbert.spin_outcome_set("a", X_AXIS),
    OutcomeSet(("a", "b"), (("same", np.diag([1.0, 0, 0, 1])),
                            ("differ", np.diag([0, 1.0, 1, 0])))),
], ids=["off-diagonal", "rank-2"])
def test_absorbing_detector_requires_rank_1_basis_projectors(outcomes):
    with pytest.raises(ConfigurationError,
                       match="absorbing detector 'D' requires rank-1 basis projectors"):
        DetectorEvent("D", Event(1, (0,)), outcomes, "R", absorbing=True)
    DetectorEvent("D", Event(1, (0,)), outcomes, "R")


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
    s = scenarios.split_particle()
    amps = np.zeros((2, 2, 2, 2), dtype=complex)
    amps[1, 0, 0, 0], amps[0, 1, 0, 0] = 0.6, 0.8
    s = replace(s, initial=replace(s.initial, core=StateVector(s.initial.core.subsystems, amps)))
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
        assert abs(e1.counts.get(key, 0) / 4000 - p) < 4 * math.sqrt(p * (1 - p) / 4000)


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


def test_joint_distribution_builds_no_leaf_state_and_advances_each_level_once(monkeypatch):
    """On a GHZ-5 file, 31 nodes over 5 levels and 32 leaves: one ``step``
    and two Born probabilities per node, one ``apply_detector`` per inner
    child and one ``adjoin_apex`` per level."""
    calls = dict.fromkeys(["step", "apply_detector", "born", "adjoin"], 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    blob = serialization.scenario_to_dict(ghz_n([Axis(0.3 + 0.4 * k, 0.7 * k) for k in range(5)]))
    s = serialization.scenario_from_json(json.dumps(blob).encode())
    monkeypatch.setattr(engine, "step", counted("step", engine.step))
    monkeypatch.setattr(engine, "apply_detector", counted("apply_detector", engine.apply_detector))
    monkeypatch.setattr(hilbert, "born_probability", counted("born", hilbert.born_probability))
    monkeypatch.setattr(geometry, "adjoin_apex", counted("adjoin", geometry.adjoin_apex))
    d = joint_distribution(s, ("D3", "D0", "D4", "D1", "D2"))
    assert len(d.probabilities) == 32
    assert calls == {"step": 31, "apply_detector": 30, "born": 62, "adjoin": 5}


def test_step_advances_equal_surfaces_alike():
    """Two ``step`` calls on equal surfaces (one a copy) with one detector
    give equal surfaces and applied interactions, whatever the state; the
    scenario's equality and repr do not see what ``step`` stored."""
    s = scenarios.singlet(Z_AXIS, X_AXIS, with_copies=True)
    fresh = replace(s)
    first = step(s, s.initial_surface(), s.initial, "A")
    node = step(s, first.surface_after, apply_detector(first.state_before, first.detector, "+"), "B")
    again = step(s, replace(first.surface_after), s.initial, "B")
    assert first.interactions_applied == ("AA1 copy",)
    assert node.interactions_applied == again.interactions_applied == ("AA2 copy",)
    assert node.surface_after == again.surface_after
    assert s == fresh and repr(s) == repr(fresh)


def test_equal_surfaces_built_apart_hash_alike_and_share_one_advance():
    """A surface keeps its hash once worked out, and that is the hash of
    its field values: two equal surfaces built apart hash alike, and
    ``step`` from each of them fills one entry of the advance cache."""
    s = scenarios.singlet(Z_AXIS, X_AXIS, with_copies=True)
    first = step(s, s.initial_surface(), s.initial, "A").surface_after
    built = Lcsh(t0=first.t0, apexes=tuple(Event(a.t, tuple(a.x)) for a in first.apexes), c=first.c)
    assert built is not first and built.apexes[0] is not first.apexes[0] and built == first
    assert hash(built) == hash(first) == hash((first.t0, first.apexes, first.c))
    assert first.__dict__["_hash"] == hash(first)
    entries = len(s._advances)
    step(s, first, s.initial, "B")
    step(s, built, s.initial, "B")
    assert len(s._advances) == entries + 1


@pytest.mark.parametrize("n", [3, 5])
def test_joint_distribution_works_on_the_core_only(monkeypatch, n):
    sizes = {"born": [], "project": []}

    def recorded(name, fn):
        def wrapper(state, *args):
            sizes[name].append(state.amplitudes.size)
            return fn(state, *args)
        return wrapper

    monkeypatch.setattr(hilbert, "born_probability",
                        recorded("born", hilbert.born_probability))
    monkeypatch.setattr(hilbert, "project_and_normalize",
                        recorded("project", hilbert.project_and_normalize))
    s = ghz_n([Axis(0.3 + 0.4 * k, 0.7 * k) for k in range(n)])
    joint_distribution(s, s.detector_labels)
    assert len(sizes["born"]) == 2 * (2 ** n - 1)
    assert len(sizes["project"]) == 2 ** n - 2  # no leaf state is built
    assert set(sizes["born"]) == set(sizes["project"]) == {2 ** n}


def _dense_branch(s, order, outcomes, cache):
    """Oracle input for one branch: full-space matrices per step.  An
    interaction is due at the first detector in ``order`` whose backward
    light cone holds it; the rest apply after the last step."""
    labels = [sub.label for sub in s.subsystems]
    dims = [sub.dim for sub in s.subsystems]

    def full(key, op, names):
        if key not in cache:
            cache[key] = _oracles.embed(op, [labels.index(l) for l in names], dims)
        return cache[key]

    def in_cone(ev, apex):
        return s.c * (apex.t - ev.t) >= math.dist(apex.x, ev.x) - 1e-12

    pending = sorted(s.interactions, key=lambda ev: (ev.at.t, ev.name))
    steps = []
    for label, outcome in zip(order, outcomes):
        det = s.detector(label)
        due = [ev for ev in pending if in_cone(ev.at, det.at)]
        pending = [ev for ev in pending if ev not in due]
        swap = np.eye(dims[labels.index(det.register)])
        swap[[0, det.pointer_for(outcome)]] = swap[[det.pointer_for(outcome), 0]]
        steps.append((
            [full(ev.name, ev.unitary, ev.targets) for ev in due],
            full((label, outcome), det.outcomes.projector(outcome), det.outcomes.targets),
            full((label, "shift", outcome), swap, (det.register,)),
        ))
    final = [full(ev.name, ev.unitary, ev.targets) for ev in pending]
    return _oracles.replay(np.array(s.initial.materialize().amplitudes), steps, final)


def _assert_matches_dense(state, s, dense, tol=1e-12):
    """Scenario labels and dims, and the oracle's vector in the package's
    phase convention (``hilbert.phase_canonical``): one amplitude of the
    largest modulus real and positive, where moduli within a relative
    ``EPS_TIE`` of the largest tie.  Any amplitude in that band may be the
    one chosen, the band widened by ``tol`` for the rounding between the
    oracle's moduli and the package's."""
    assert state.subsystems == s.subsystems
    mags = np.abs(dense)
    tied = np.flatnonzero(mags >= mags.max() * (1.0 - hilbert.EPS_TIE) - tol)
    assert min(np.abs(state.amplitudes - dense * (mags[k] / dense[k])).max() for k in tied) <= tol
    for sub in s.subsystems:
        if sub.kind is SubsystemKind.REGISTER:
            assert _oracles.schmidt_rank(state, (sub.label,)) == 1


def _check_against_dense_oracle(s, order, seed):
    cache = {}
    declared = s.detector_labels
    dist = joint_distribution(s, order)
    for combo in itertools.product(*(s.detector(l).outcomes.labels for l in order)):
        probs, *_ = _dense_branch(s, order, combo, cache)
        by_det = dict(zip(order, combo))
        key = tuple(by_det[l] for l in declared)
        assert abs(dist.probability(key) - math.prod(probs)) <= 1e-12
    rec = run(s, order, seed=seed)
    probs, before, after, final = _dense_branch(
        s, order, tuple(st.outcome for st in rec.steps), cache)
    for st, p, b, a in zip(rec.steps, probs, before, after):
        assert abs(st.probability - p) <= 1e-12
        _assert_matches_dense(st.state_before, s, b)
        _assert_matches_dense(st.state_after, s, a)
    _assert_matches_dense(rec.final_state, s, final)


axis_strategy = st.builds(Axis, st.floats(0.0, math.pi), st.floats(-math.pi, math.pi))


@settings(max_examples=12, deadline=None)
@given(st.integers(3, 4).flatmap(lambda n: st.tuples(
    st.lists(axis_strategy, min_size=n, max_size=n), st.permutations(range(n)))),
    st.integers(0, 2**32 - 1))
def test_ghz_matches_dense_oracle(case, seed):
    axes, perm = case
    s = ghz_n(axes)
    _check_against_dense_oracle(s, tuple(s.detector_labels[k] for k in perm), seed)


@settings(max_examples=12, deadline=None)
@given(axis_strategy, axis_strategy, axis_strategy,
       st.permutations(("A", "B", "C")), st.integers(0, 2**32 - 1))
# step B's largest moduli differ by 1.5e-11 (relative 3e-11), inside EPS_TIE
@example(Axis(1e-9, 1.0), Axis(0, 0), Axis(1.5, -1.0), ["A", "B", "C"], 0)
def test_singlet_with_copies_matches_dense_oracle(axis_a, axis_b, basis, order, seed):
    s = scenarios.singlet(axis_a, axis_b, with_copies=True, copy_basis=basis)
    _check_against_dense_oracle(s, tuple(order), seed)


@st.composite
def foliation_cases(draw):
    """A scenario, its valid orders and one outcome leaf of positive
    probability (keyed in declaration order): a built-in with drawn axes,
    or a GHZ-3/4 file with drawn axes and detector events, read back by
    ``serialization.scenario_from_json``."""
    kind = draw(st.sampled_from(["split", "singlet", "singlet with copies", "ghz", "ghz file"]))
    if kind == "split":
        s = scenarios.split_particle()
    elif kind == "ghz":
        s = scenarios.ghz(tuple(draw(axis_strategy) for _ in range(3)))
    elif kind == "ghz file":
        n = draw(st.integers(3, 4))
        blob = serialization.scenario_to_dict(ghz_n([draw(axis_strategy) for _ in range(n)]))
        coordinate = lambda lo, hi: draw(st.floats(lo, hi).map(lambda v: round(v, 3)))
        for det in blob["detectors"]:
            det["at"] = {"t": coordinate(0.0, 6.0), "x": [coordinate(-8.0, 8.0)]}
        s = serialization.scenario_from_json(json.dumps(blob).encode())
    else:
        s = scenarios.singlet(draw(axis_strategy), draw(axis_strategy),
                              with_copies=kind == "singlet with copies",
                              copy_basis=draw(axis_strategy))
    orders = enumerate_valid_orders(s)
    leaf = draw(st.sampled_from(sorted(joint_distribution(s, orders[0]).probabilities)))
    return s, orders, leaf


@settings(max_examples=40, deadline=None)
@given(foliation_cases())
def test_fixed_outcomes_give_one_final_state_under_every_valid_order(case):
    """The paper's foliation independence for states: ``run`` with the
    same outcomes ends in the same state, up to a global phase, whatever
    valid order the detectors reduce in."""
    s, orders, leaf = case
    by_detector = dict(zip(s.detector_labels, leaf))
    finals = [run(s, order, outcomes=tuple(by_detector[l] for l in order)).final_state
              for order in orders]
    for final in finals[1:]:
        assert final.subsystems == finals[0].subsystems
        assert 1.0 - abs(np.vdot(finals[0].amplitudes, final.amplitudes)) <= 1e-12


@st.composite
def foliation_queries(draw):
    """A ``foliation_cases`` case and query surfaces over it: cone
    envelopes over subsets of its detector and interaction events, each
    apex moved in time by up to 1/2 or left on its event, and flat planes
    from below every event to above them."""
    s, orders, leaf = draw(foliation_cases())
    events = s.events
    jitter = st.just(0.0) | st.floats(-0.5, 0.5)
    queries = []
    for _ in range(draw(st.integers(4, 8))):
        subset = draw(st.lists(st.sampled_from(events), min_size=1, max_size=len(events),
                               unique_by=id))
        queries.append(Lcsh(s.initial_t0, tuple(Event(ev.t + draw(jitter), ev.x) for ev in subset),
                            s.c))
    ts = [ev.t for ev in events]
    queries += draw(st.lists(st.floats(min(ts) - 2.0, max(ts) + 2.0), min_size=2, max_size=4))
    return s, orders, leaf, queries


def _shifted(query: Lcsh, dt: float) -> Lcsh:
    """``query`` moved by ``dt`` in time, floor and apexes alike."""
    return Lcsh(query.t0 + dt, tuple(Event(a.t + dt, a.x) for a in query.apexes), query.c)


#: How far a query must stay from a reduction surface to be strictly off
#: it: well above ``geometry.EPS_GEOM``, well below any gap a drawn
#: coordinate makes.
OFF = 1e-6


def _strictly_off(query: Lcsh, r: Lcsh, region) -> bool:
    """The query moved down by ``OFF`` still covers r, or moved up by
    ``OFF`` is still covered by it (``geometry.compare`` over ``region``)."""
    return (geometry.compare(_shifted(query, -OFF), r, region)[0]
            or geometry.compare(_shifted(query, OFF), r, region)[1])


@settings(max_examples=60, deadline=None)
@given(foliation_queries())
def test_a_query_strictly_off_the_reduction_surfaces_gets_one_state_under_every_order(case):
    """The paper's foliation independence for the state history (ROADMAP
    item 12): with the same outcomes, every valid order whose record has
    the query strictly off each of its reduction surfaces defines the
    state there, and all of them give the same state, within 1e-12 up to
    a global phase.  Left out are the records whose query crosses a
    reduction surface (the state is undefined there, and whether it is
    depends on the order: see the next test), equals one (the S_k-
    convention gives that step's minus-side state, which depends on the
    order) or touches one, as a query with an apex on a detector's event
    touches that detector's cone."""
    s, orders, leaf, queries = case
    by_detector = dict(zip(s.detector_labels, leaf))
    records = [run(s, order, outcomes=tuple(by_detector[l] for l in order)) for order in orders]
    region = s.support_region()
    for query in queries:
        surface = query if isinstance(query, Lcsh) else Lcsh(t0=query, c=s.c)
        off = {}  # by reduction surface as a set of cones: orders share them
        states = []
        for order, rec in zip(orders, records):
            reductions = [st_.surface_after for st_ in rec.steps if st_.reduction]
            for r in reductions:
                key = (r.t0, frozenset(r.apexes))
                if key not in off:
                    off[key] = _strictly_off(surface, r, region)
            if all(off[r.t0, frozenset(r.apexes)] for r in reductions):
                answer = state_on_hyperplane(rec, query)
                assert not isinstance(answer, UndefinedState), (query, order)
                states.append((order, answer))
        for order, answer in states[1:]:
            assert states_close(states[0][1], answer, tol=1e-12), (query, states[0][0], order)


def test_whether_a_query_has_a_state_depends_on_the_order():
    """A surface just below A's cone crosses the cones of B and C, which
    are spacelike to A.  Orders that reduce A first define the state there
    (no reduction has applied yet); orders that reduce B or C first have it
    cross their first reduction surface, so the state is undefined."""
    s = scenarios.ghz((Axis(0.3, 0.1), Axis(1.0, 0.5), Axis(2.0, 1.0)))
    a = s.detector("A").at
    query = Lcsh(apexes=(Event(a.t - 0.5, a.x),), c=s.c)
    for order in enumerate_valid_orders(s):
        answer = state_on_hyperplane(run(s, order, outcomes=("+",) * 3), query)
        if order[0] == "A":
            assert states_close(answer, s.initial.materialize(), tol=1e-15)
        else:
            assert answer == UndefinedState(
                f"query surface crosses reduction surface of detector {order[0]!r}")


def test_a_reduction_applies_where_the_query_covers_its_surface():
    """On the singlet with copies (copy basis along B's axis), take the
    envelope over the events of A, C and the first copy and over B's event
    moved down by 1/2.  Under (A, C, B) it covers A's reduction surface, A's
    cone, so A's reduction applies.  Under (C, B, A) that surface also
    holds B's cone, and the query lies on or below it, so it does not.  On
    every leaf both states are defined, and they are orthogonal."""
    s = scenarios.singlet(Z_AXIS, X_AXIS, with_copies=True, copy_basis=X_AXIS)
    b = s.detector("B").at
    query = Lcsh(apexes=(s.detector("A").at, s.detector("C").at, s.interactions[0].at,
                         Event(b.t - 0.5, b.x)), c=s.c)
    leaves = joint_distribution(s, ("A", "B", "C")).probabilities
    assert len(leaves) == 8
    for leaf in leaves:
        by_detector = dict(zip(s.detector_labels, leaf))
        first, second = (
            state_on_hyperplane(run(s, order, outcomes=tuple(by_detector[l] for l in order)), query)
            for order in (("A", "C", "B"), ("C", "B", "A")))
        assert isinstance(first, StateVector) and isinstance(second, StateVector)
        assert np.vdot(first.amplitudes, second.amplitudes) == 0


def test_a_listed_leaf_runs_under_every_valid_order():
    """``joint_distribution`` prunes by a leaf's joint probability, not by
    one step's.  Under A, B, C the leaf ('+', '+', '--') has probability
    about 3e-22 with every step above ``EPS_PROB``, and under B, C, A its
    second step is below it, so ``run`` refuses it there: it is not listed."""
    s = scenarios.singlet(Axis(0, 0), Axis(1e-5, 0), with_copies=True, copy_basis=Axis(0, 0))
    leaves = joint_distribution(s, ("A", "B", "C")).probabilities
    assert ("+", "+", "--") not in leaves
    with pytest.raises(ImpossibleBranchError):
        run(s, ("B", "C", "A"), outcomes=("+", "--", "+"))
    for leaf in leaves:
        by_detector = dict(zip(s.detector_labels, leaf))
        for order in enumerate_valid_orders(s):
            run(s, order, outcomes=tuple(by_detector[l] for l in order))


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


def test_sample_in_chunks_matches_one_draw(monkeypatch):
    # splitting the draws of one stream leaves every uniform in place
    s = scenarios.singlet(Z_AXIS, X_AXIS, with_copies=True)
    for seed in (0, 7):
        monkeypatch.setattr(engine, "SAMPLE_CHUNK", 10**6)
        whole = sample(s, s.detector_labels, 25_000, seed=seed)
        monkeypatch.setattr(engine, "SAMPLE_CHUNK", 999)
        assert sample(s, s.detector_labels, 25_000, seed=seed) == whole


def test_sample_memory_does_not_grow_with_n():
    s = scenarios.split_particle()
    n = 64 * engine.SAMPLE_CHUNK
    sample(s, ("A", "B", "C"), 10, seed=0)
    tracemalloc.start()
    try:
        e = sample(s, ("A", "B", "C"), n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(e.counts.values()) == n
    assert peak < n  # bytes: an array of n doubles would take 8 n


def test_sample_rejects_bad_count():
    s = scenarios.ghz()
    with pytest.raises(ConfigurationError):
        sample(s, ("A", "B", "C"), 0)


def test_negative_seed_is_rejected():
    s = scenarios.ghz()
    with pytest.raises(ConfigurationError, match="seed"):
        sample(s, ("A", "B", "C"), 10, seed=-1)
    with pytest.raises(ConfigurationError, match="seed"):
        run(s, ("A", "B", "C"), seed=-1)
    with pytest.raises(ConfigurationError, match="seed"):
        run(s, ("A", "B", "C"), outcomes=("+", "+", "+"), seed=-1)


def test_a_run_with_fixed_outcomes_builds_no_generator():
    """Nothing is drawn, so ``numpy.random`` is never imported."""
    child = ("import sys\n"
             "from psvsim import engine, scenarios\n"
             "engine.run(scenarios.split_particle(), ('A', 'B', 'C'), "
             "outcomes=('none', 'hit', 'c2'))\n"
             "print('numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout == "False\n"


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
    assert states_close(out, rec.scenario.initial.materialize(), tol=1e-12)


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


def test_state_on_hyperplane_is_region_local():
    """Crossing is decided over support_region(): t = -100 lies below every
    reduction surface inside the box, though not far outside it."""
    s = scenarios.split_particle()
    rec = run(s, ("C", "B", "A"), outcomes=("c1", "none", "hit"))
    (lo, hi), = s.support_region()
    last = rec.steps[-1].surface_after
    assert geometry.surface_time(last, (hi + 200.0,)) < -100.0
    out = state_on_hyperplane(rec, -100.0)
    assert not isinstance(out, UndefinedState)
    assert states_close(out, s.initial.materialize(), tol=1e-12)


def test_worldlines_do_not_widen_the_query_box():
    """The box is the events' alone: a worldline at x = 200 leaves t = -100
    below every reduction surface inside it.  The diagram still draws it."""
    s = scenarios.split_particle()
    far = replace(s, worldlines=s.worldlines + (("far", (Event(0.0, (200.0,)),)),))
    assert far.support_region() == s.support_region() == ((-5.0, 5.0),)
    assert diagram._bounds(far)[0] == (-5.5, 201.5)
    for scenario in (s, far):
        rec = run(scenario, ("A", "B", "C"), outcomes=("hit", "none", "c1"))
        out = state_on_hyperplane(rec, -100.0)
        assert not isinstance(out, UndefinedState)
        assert states_close(out, s.initial.materialize(), tol=1e-12)


def test_a_query_applies_an_interaction_that_no_step_applied():
    """An interaction after the last detector: ``run`` applies it on the
    way to t = +inf, and a query does once it lies in the query's past."""
    s = scenarios.singlet(Z_AXIS, X_AXIS, with_copies=True)
    late = InteractionEvent("late", Event(10.0, (0.0,)), ("c1",), _HADAMARD)
    rec = run(replace(s, interactions=s.interactions + (late,)), ("A", "B", "C"), seed=1)
    assert not any("late" in st_.interactions_applied for st_ in rec.steps)
    assert states_close(state_on_hyperplane(rec, 20.0), rec.final_state, tol=1e-12)
    assert states_close(state_on_hyperplane(rec, 5.0), rec.steps[-1].state_after, tol=1e-12)
    assert not states_close(rec.final_state, rec.steps[-1].state_after)


def test_state_on_hyperplane_rejects_foreign_queries():
    s = scenarios.split_particle()
    rec = run(s, ("C", "B", "A"), outcomes=("c1", "none", "hit"))
    with pytest.raises(ConfigurationError, match="dimension"):
        state_on_hyperplane(rec, Lcsh(apexes=(Event(9.0, (0.0, 0.0)),)))
    with pytest.raises(ConfigurationError, match="speed of light"):
        state_on_hyperplane(rec, Lcsh(apexes=(Event(9.0, (0.0,)),), c=2.0))
    with pytest.raises(ConfigurationError, match="surface floor t0 must be finite or -inf, got nan"):
        state_on_hyperplane(run(s, ("A", "B", "C"), seed=1), math.nan)
    # a flat query has no cones, so its c is irrelevant
    assert not isinstance(state_on_hyperplane(rec, Lcsh(t0=20.0, c=2.0)), UndefinedState)


def _lift(ev: Event, d: int, c: float = 1.0) -> Event:
    """``ev`` in d dimensions with x scaled by c: its causal relations at c
    are those at c = 1."""
    return Event(ev.t, tuple(c * v for v in ev.x) + (0.0,) * (d - 1))


@st.composite
def surface_queries(draw):
    """A record of GHZ-3 (random events) or of split (interactions and
    non-reductions, x scaled by c), lifted to d = 1, 2 or 3 with c = 0.5, 1 or 3 and a
    finite or -inf initial floor, and a query: a flat time, a step
    surface, random cones over a finite or -inf floor, or the cones of the
    detectors raised by the same time over a -inf floor.  The last two
    kinds reach the grid fallback when, over a finite initial floor, the
    query's cones cover the floor only together."""
    d = draw(st.sampled_from((1, 2, 3)))
    c = draw(st.sampled_from((0.5, 1.0, 3.0)))
    half = st.integers(-6, 6).map(lambda k: k / 2)
    point = st.tuples(*[half] * d)
    if draw(st.booleans()):
        s = ghz_n((X_AXIS, Z_AXIS, Axis(1.0, 0.5)))
        events = draw(st.lists(st.builds(Event, st.integers(0, 6).map(lambda k: k / 2), point),
                               min_size=3, max_size=3))
        fields = {"detectors": tuple(replace(det, at=ev) for det, ev in zip(s.detectors, events))}
        order = tuple(det.label for det in sorted(fields["detectors"], key=lambda det: det.at.t))
    else:
        s = scenarios.split_particle()
        fields = {"worldlines": (),
                  "detectors": tuple(replace(det, at=_lift(det.at, d, c)) for det in s.detectors),
                  "interactions": tuple(replace(ev, at=_lift(ev.at, d, c)) for ev in s.interactions)}
        order = draw(st.sampled_from(("ABC", "ACB", "BAC", "BCA", "CAB", "CBA")))
    s = replace(s, dim=d, c=c, initial_t0=draw(st.sampled_from((-math.inf, -2.0))), **fields)
    dist = joint_distribution(s, tuple(order))
    key = draw(st.sampled_from(sorted(dist.probabilities)))
    rec = run(s, tuple(order), outcomes=tuple(key[dist.detectors.index(l)] for l in order))
    kind = draw(st.sampled_from(("flat", "step", "cones", "raised")))
    if kind == "flat":
        return rec, draw(st.integers(-8, 12).map(lambda k: k / 2))
    if kind == "step":
        return rec, draw(st.sampled_from(rec.steps)).surface_after
    if kind == "raised":
        lift = draw(st.integers(0, 8).map(lambda k: k / 2))
        return rec, Lcsh(apexes=tuple(Event(det.at.t + lift, det.at.x) for det in s.detectors),
                         c=c)
    apexes = draw(st.lists(st.builds(Event, st.integers(-2, 10).map(lambda k: k / 2), point),
                           min_size=1, max_size=3))
    return rec, Lcsh(t0=draw(st.sampled_from((-math.inf, -1.0, 1.5))), apexes=tuple(apexes), c=c)


def _with_grid_covers(fn, *args):
    """fn(*args) with ``compare_chain``, which ``state_on_hyperplane`` calls,
    made on the probe grid surface by surface."""
    grid_chain = lambda q, chain, region: [_oracles.grid_compare(q, s, region) for s in chain]
    with mock.patch.object(geometry, "compare_chain", grid_chain):
        return fn(*args)


@settings(max_examples=30, deadline=None)
@given(surface_queries())
def test_state_on_hyperplane_matches_the_probe_grid(case):
    rec, query = case
    out = state_on_hyperplane(rec, query)
    expect = _with_grid_covers(state_on_hyperplane, rec, query)
    assert isinstance(out, UndefinedState) is isinstance(expect, UndefinedState)
    if not isinstance(out, UndefinedState):
        assert out.labels == expect.labels
        assert np.array_equal(out.amplitudes, expect.amplitudes)


def test_state_on_hyperplane_grid_fallback_matches_the_probe_grid():
    """Cones of several detectors keep a query above a finite initial floor
    only together, so covers needs the grid; with a gap between them the
    query crosses the first reduction surface."""
    s = ghz_n((X_AXIS, Z_AXIS, X_AXIS))
    events = (Event(1.0, (-3.0,)), Event(1.0, (0.0,)), Event(1.0, (3.0,)))
    s = replace(s, c=0.5, initial_t0=-2.0,
                detectors=tuple(replace(det, at=ev) for det, ev in zip(s.detectors, events)))
    rec = run(s, ("D0", "D1", "D2"), seed=3)
    raised = lambda xs: Lcsh(apexes=tuple(Event(2.0, (x,)) for x in xs), c=0.5)
    for query, undefined in ((raised((-3.0, 0.0, 3.0)), False), (raised((-3.0, 3.0)), True)):
        out, sizes = _oracles.probe_grid_sizes(state_on_hyperplane, rec, query)
        assert 64 in sizes
        assert isinstance(out, UndefinedState) is undefined
        expect = _with_grid_covers(state_on_hyperplane, rec, query)
        assert isinstance(expect, UndefinedState) is undefined
        if not undefined:
            assert np.array_equal(out.amplitudes, expect.amplitudes)


def test_ghz4_d3_queries_never_build_the_full_grid():
    """GHZ-4 in 3 + 1 dimensions: flat queries below, across and above the
    reduction surfaces, every step surface and both directions of
    is_future_of are decided from corners and apexes alone."""
    s = ghz_n((X_AXIS, Z_AXIS, X_AXIS, Z_AXIS))
    events = (Event(3.0, (0.0, 0.0, 0.0)), Event(3.5, (6.0, 0.0, 1.0)),
              Event(2.5, (0.0, 6.0, -1.0)), Event(3.0, (6.0, 6.0, 6.0)))
    s = replace(s, dim=3, detectors=tuple(replace(det, at=ev)
                                          for det, ev in zip(s.detectors, events)))
    rec = run(s, ("D2", "D0", "D3", "D1"), seed=1)
    first, last = rec.steps[0].surface_after, rec.steps[-1].surface_after

    def queries():
        assert states_close(state_on_hyperplane(rec, -30.0), s.initial.materialize())
        assert isinstance(state_on_hyperplane(rec, 2.75), UndefinedState)
        assert states_close(state_on_hyperplane(rec, 20.0), rec.final_state)
        for st_ in rec.steps:
            assert not isinstance(state_on_hyperplane(rec, st_.surface_after), UndefinedState)
        assert geometry.is_future_of(last, first)
        assert not geometry.is_future_of(first, last)

    _, sizes = _oracles.probe_grid_sizes(queries)
    assert sizes and set(sizes) == {2}


def test_a_query_on_a_reduction_surface_gets_that_steps_minus_side_state():
    """The S_k- convention: on the singlet's S_AB, the surface of whichever
    detector reduces second, that reduction does not apply, so the answer
    depends on the order: A's pointer is set under (A, B), B's under (B, A)."""
    s = scenarios.singlet(Z_AXIS, X_AXIS)
    s_ab = Lcsh(apexes=(s.detector("A").at, s.detector("B").at), c=s.c)
    states = {order: state_on_hyperplane(run(s, order, outcomes=("+", "+")), s_ab)
              for order in (("A", "B"), ("B", "A"))}
    for order, pointers in ((("A", "B"), (1, 0)), (("B", "A"), (0, 1))):
        state = states[order]
        psi = state.amplitudes.reshape(state.dims)
        peak = dict(zip(state.labels, np.unravel_index(int(np.argmax(np.abs(psi))), psi.shape)))
        assert (peak["RA"], peak["RB"]) == pointers
    assert np.vdot(states["A", "B"].amplitudes, states["B", "A"].amplitudes) == 0.0


def test_each_reduction_surface_is_screened_once():
    """One screen per query: on GHZ-4 in 3 + 1 dimensions, a query
    screens all its reduction surfaces at once (they are nested), and
    is_future_of makes one screen."""
    s = ghz_n((X_AXIS, Z_AXIS, X_AXIS, Z_AXIS))
    events = (Event(3.0, (0.0, 0.0, 0.0)), Event(3.5, (6.0, 0.0, 1.0)),
              Event(2.5, (0.0, 6.0, -1.0)), Event(3.0, (6.0, 6.0, 6.0)))
    s = replace(s, dim=3, detectors=tuple(replace(det, at=ev)
                                          for det, ev in zip(s.detectors, events)))
    rec = run(s, ("D2", "D0", "D3", "D1"), seed=1)
    reductions = sum(st_.reduction for st_ in rec.steps)
    assert reductions > 1
    for query in (-30.0, 20.0, rec.steps[-1].surface_after):
        out, sizes = _oracles.probe_grid_sizes(state_on_hyperplane, rec, query)
        assert not isinstance(out, UndefinedState)
        assert sizes == [2]
    first, last = rec.steps[0].surface_after, rec.steps[-1].surface_after
    assert _oracles.probe_grid_sizes(geometry.is_future_of, last, first) == (True, [2])
