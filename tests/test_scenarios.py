import math

import numpy as np
import pytest

from _oracles import charge_expectation, ghz_joint, singlet_joint, states_close
from psvsim import hilbert, scenarios
from psvsim.engine import enumerate_valid_orders, joint_distribution, run
from psvsim.errors import ConfigurationError
from psvsim.hilbert import Axis, X_AXIS, Y_AXIS, Z_AXIS
from psvsim.scenarios import (
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


def test_split_particle_rejects_bad_amplitudes():
    with pytest.raises(ConfigurationError):
        split_particle(amplitudes=(1.0, 1.0))


def test_split_particle_rejects_bad_layout():
    with pytest.raises(ConfigurationError, match=r"detectors \('A', 'C'\) must be spacelike"):
        split_particle(c=5.0)  # C timelike to A
    with pytest.raises(ConfigurationError, match="AA1 must precede detector A"):
        split_particle(c=0.5)  # AA1 after A's cone


def test_split_particle_charge_modes():
    s = split_particle()
    assert charge_expectation(s.initial.core, s.charged_modes) == \
        pytest.approx(1.0, abs=1e-12)


def test_singlet_distribution_matches_oracle():
    for axis_a, axis_b in ((Z_AXIS, X_AXIS), (Axis(0.3), Axis(2.1)),
                           (Axis(1.0, 0.5), Axis(2.0, -0.4))):
        s = singlet(axis_a, axis_b)
        d = joint_distribution(s, ("A", "B"))
        oracle = singlet_joint(axis_a, axis_b)
        for key, p in oracle.items():
            assert d.probability(key) == pytest.approx(p, abs=1e-12)


def test_singlet_requires_spacelike_detectors():
    # at c = 1e10, A and B are lightlike within EPS_GEOM
    with pytest.raises(ConfigurationError, match="detectors A and B must be spacelike"):
        singlet(Z_AXIS, X_AXIS, c=1e10)


def test_singlet_with_copies_structure():
    s = singlet(Z_AXIS, X_AXIS, with_copies=True)
    assert s.detector_labels == ("A", "B", "C")
    assert len(s.interactions) == 2
    assert len(enumerate_valid_orders(s)) == 6
    d = joint_distribution(s, ("A", "B", "C"))
    assert sum(d.probabilities.values()) == pytest.approx(1.0, abs=1e-12)


def test_singlet_with_copies_rejects_on_cone_devices():
    # at c = 2/2.2, AA1 lies exactly on A's cone, which is ambiguous; at
    # c = 0.5 it lies outside
    for c in (2.0 / 2.2, 0.5):
        with pytest.raises(ConfigurationError, match="AA1 must lie strictly inside A's"):
            singlet(Z_AXIS, X_AXIS, with_copies=True, c=c)


def test_ghz_distribution_matches_oracle():
    axes = (X_AXIS, Y_AXIS, Y_AXIS)
    d = joint_distribution(ghz(axes), ("A", "B", "C"))
    oracle = ghz_joint(axes)
    assert set(d.probabilities) == set(oracle)
    for key, p in oracle.items():
        assert d.probability(key) == pytest.approx(p, abs=1e-12)


def test_ghz_product_rule():
    # for x,y,y measurements the product of outcomes is +1 on every branch
    d = joint_distribution(ghz(), ("A", "B", "C"))
    for key, p in d.probabilities.items():
        signs = [1 if s == "+" else -1 for s in key]
        assert math.prod(signs) == 1
        assert p == pytest.approx(0.25, abs=1e-12)


def test_ghz_rejects_timelike_detectors():
    # at c = 1e10, the detectors are lightlike within EPS_GEOM
    with pytest.raises(ConfigurationError, match=r"detectors \('A', 'B'\) must be spacelike"):
        ghz(c=1e10)


def test_custom_speed_of_light():
    # with c = 10 the same coordinates are all spacelike-connected anyway
    s = ghz(c=10.0)
    d = joint_distribution(s, ("A", "B", "C"))
    assert sum(d.probabilities.values()) == pytest.approx(1.0, abs=1e-12)
