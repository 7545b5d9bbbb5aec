import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from _oracles import charge_expectation, reference, states_close
from psvsim import hilbert, scenarios
from psvsim.engine import enumerate_valid_orders, joint_distribution
from psvsim.hilbert import EPS_PROB, Axis, X_AXIS, Y_AXIS, Z_AXIS
from psvsim.scenarios import (
    GHZ_GEOMETRY,
    SINGLET_GEOMETRY,
    SPLIT_GEOMETRY,
    ghz,
    occupation_copy_gate,
    singlet,
    singlet_state,
    spin_copy_gate,
    split_particle,
)


def test_occupation_copy_gate_action():
    u = occupation_copy_gate()
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-15
    # |10> -> |11>, |00> -> |00>
    assert u[3, 2] == 1.0 and u[0, 0] == 1.0


def test_spin_copy_gate_copies_basis_states():
    for basis in (Z_AXIS, X_AXIS, Axis(1.2, 0.7)):
        u = spin_copy_gate(basis)
        assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12
        for sign in (+1, -1):
            src = hilbert.axis_eigenstate(basis, sign)
            ready = hilbert.axis_eigenstate(basis, +1)
            out = u @ np.kron(src, ready)
            expected = np.kron(src, src)
            phase = np.vdot(expected, out)
            assert abs(abs(phase) - 1.0) < 1e-12
            assert np.abs(out - phase * expected).max() < 1e-12


def test_singlet_state_is_basis_independent():
    spins = (scenarios._spin("a"), scenarios._spin("b"))
    z = singlet_state(spins, Z_AXIS)
    for basis in (X_AXIS, Y_AXIS, Axis(0.9, 2.0)):
        assert states_close(singlet_state(spins, basis), z, tol=1e-12)


def test_split_particle_distribution():
    s = split_particle()
    d = joint_distribution(s, ("A", "B", "C"))
    assert d.probability(("hit", "none", "c1")) == pytest.approx(0.5, abs=1e-12)
    assert d.probability(("none", "hit", "c2")) == pytest.approx(0.5, abs=1e-12)
    assert sum(d.probabilities.values()) == pytest.approx(1.0, abs=1e-12)


def test_split_particle_orders_include_reversed():
    s = split_particle()
    orders = enumerate_valid_orders(s)
    assert ("C", "B", "A") in orders
    assert ("A", "B", "C") in orders


def test_split_particle_charge_modes():
    s = split_particle()
    assert charge_expectation(s.initial.core, s.charged_modes) == \
        pytest.approx(1.0, abs=1e-12)


def test_singlet_distribution_matches_oracle():
    for axis_a, axis_b in ((Z_AXIS, X_AXIS), (Axis(0.3), Axis(2.1)),
                           (Axis(1.0, 0.5), Axis(2.0, -0.4))):
        s = singlet(axis_a, axis_b)
        d = joint_distribution(s, ("A", "B"))
        oracle = reference.singlet_distribution(*[(a.theta, a.phi) for a in (axis_a, axis_b)])
        for key, p in oracle.items():
            assert d.probability(key) == pytest.approx(p, abs=1e-12)


def test_singlet_with_copies_structure():
    s = singlet(Z_AXIS, X_AXIS, with_copies=True)
    assert s.detector_labels == ("A", "B", "C")
    assert len(s.interactions) == 2
    assert len(enumerate_valid_orders(s)) == 6
    d = joint_distribution(s, ("A", "B", "C"))
    assert sum(d.probabilities.values()) == pytest.approx(1.0, abs=1e-12)


def test_ghz_distribution_matches_oracle():
    axes = (X_AXIS, Y_AXIS, Y_AXIS)
    d = joint_distribution(ghz(axes), ("A", "B", "C"))
    oracle = reference.ghz_distribution([(a.theta, a.phi) for a in axes])
    assert set(d.probabilities) == {key for key, p in oracle.items() if p > EPS_PROB}
    for key, p in oracle.items():
        assert d.probability(key) == pytest.approx(p, abs=1e-12)


def test_ghz_product_rule():
    # for x,y,y measurements the product of outcomes is +1 on every branch
    d = joint_distribution(ghz(), ("A", "B", "C"))
    for key, p in d.probabilities.items():
        signs = [1 if s == "+" else -1 for s in key]
        assert math.prod(signs) == 1
        assert p == pytest.approx(0.25, abs=1e-12)


#: Where each copy event lies relative to each detector's backward light
#: cone.  Split's copies sit on their branch detector's cone; the singlet's
#: sit strictly inside, so that their Hellwig-Kraus region is unambiguous.
_COPY_RELATIONS = {
    "split": {("AA1", "A"): "on", ("AA1", "B"): "outside", ("AA1", "C"): "inside",
              ("AA2", "A"): "outside", ("AA2", "B"): "on", ("AA2", "C"): "inside"},
    "singlet": {("AA1", "A"): "inside", ("AA1", "B"): "outside", ("AA1", "C"): "inside",
                ("AA2", "A"): "outside", ("AA2", "B"): "inside", ("AA2", "C"): "inside"},
    "singlet-bare": {},
    "ghz": {},
}


def _cone_relation(ev, apex, c: float = 1.0) -> str:
    """Where ``ev`` lies relative to ``apex``'s backward light cone at
    speed of light ``c`` in 1+1 D, from coordinates alone."""
    lead, distance = c * (apex.t - ev.t), abs(apex.x[0] - ev.x[0])
    return "inside" if lead > distance else "on" if lead == distance else "outside"


def _spacelike(a, b, c: float = 1.0) -> bool:
    return c * abs(a.t - b.t) < abs(a.x[0] - b.x[0])


def _check_layout(name: str, s, layout) -> None:
    """``s`` is built at c = 1 on ``layout``, its detectors are mutually
    spacelike, and its copy events lie in the cones ``_COPY_RELATIONS`` names."""
    copies = sorted({ev for ev, _ in _COPY_RELATIONS[name]})
    assert s.c == 1.0
    assert [d.at for d in s.detectors] == [layout[l] for l in s.detector_labels]
    assert [ev.at for ev in s.interactions] == [layout[l] for l in copies]
    for a, b in itertools.combinations(s.detector_labels, 2):
        assert _spacelike(layout[a], layout[b]), (a, b)
    relations = {(ev, det): _cone_relation(layout[ev], layout[det])
                 for ev in copies for det in s.detector_labels}
    assert relations == _COPY_RELATIONS[name], name


def test_split_particle_rejects_bad_layout():
    # the builder's c is fixed at 1; the same coordinates at c = 5 would
    # put C timelike to A, and at c = 0.5 AA1 outside A's cone
    _check_layout("split", split_particle(), SPLIT_GEOMETRY)
    g = SPLIT_GEOMETRY
    assert not _spacelike(g["A"], g["C"], c=5.0)
    assert _cone_relation(g["AA1"], g["A"], c=0.5) == "outside"


def test_singlet_requires_spacelike_detectors():
    s = singlet(Z_AXIS, X_AXIS)
    assert s.detector_labels == ("A", "B")
    _check_layout("singlet-bare", s, SINGLET_GEOMETRY)


def test_singlet_with_copies_rejects_on_cone_devices():
    _check_layout("singlet", singlet(Z_AXIS, X_AXIS, with_copies=True), SINGLET_GEOMETRY)
    # at c = 2/2.2 AA1 would lie exactly on A's cone, which is ambiguous;
    # at c = 0.5 it would lie outside
    g = SINGLET_GEOMETRY
    assert _cone_relation(g["AA1"], g["A"], c=2.0 / 2.2) == "on"
    assert _cone_relation(g["AA1"], g["A"], c=0.5) == "outside"


def test_ghz_rejects_timelike_detectors():
    _check_layout("ghz", ghz(), GHZ_GEOMETRY)


def test_custom_speed_of_light():
    # another c is another scenario; with c = 10 the GHZ coordinates are
    # all spacelike-connected anyway
    s = replace(ghz(), c=10.0)
    d = joint_distribution(s, ("A", "B", "C"))
    assert sum(d.probabilities.values()) == pytest.approx(1.0, abs=1e-12)
