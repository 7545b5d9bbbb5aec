import math

import numpy as np
import pytest

from _oracles import singlet_copies_conditional
from psvsim import hellwig_kraus as hk
from psvsim import hilbert, scenarios
from psvsim.errors import AmbiguousRegionError, ConfigurationError, PhysicsError
from psvsim.geometry import Event, SurfaceSide
from psvsim.hilbert import Axis, X_AXIS, Y_AXIS, Z_AXIS


def copies_scenario(axis_a=X_AXIS, axis_b=Z_AXIS, copy_basis=Z_AXIS):
    return scenarios.singlet(axis_a, axis_b, with_copies=True,
                             copy_basis=copy_basis)


def test_region_of_point_between_the_cones():
    s = copies_scenario()
    # deep past, below both detector cones
    r = hk.hk_region_of(Event(-2.0, (0.0,)), s, ("A", "B"))
    assert dict(r.sides)["A"] is SurfaceSide.PAST
    assert dict(r.sides)["B"] is SurfaceSide.PAST
    assert r.reduced == ()


def test_region_above_one_cone_only():
    s = copies_scenario()
    # just below B's apex: already above A's backward light cone (which
    # extends outward to spacelike-separated points) but below B's
    r = hk.hk_region_of(Event(2.9, (4.0,)), s, ("A", "B"))
    assert dict(r.sides)["A"] is SurfaceSide.FUTURE
    assert dict(r.sides)["B"] is SurfaceSide.PAST
    assert r.reduced == ("A",)


def test_region_of_on_cone_point_is_ambiguous():
    s = copies_scenario()
    with pytest.raises(AmbiguousRegionError):
        hk.hk_region_of(Event(1.0, (-2.0,)), s, ("A", "B"))


def test_region_helpers():
    r = hk.region_from_sides(A="past", B="future")
    assert r.reduced == ("B",)
    assert dict(r.sides)["B"] is SurfaceSide.FUTURE
    assert "C" not in dict(r.sides)
    full = hk.region_from_sides(A="future", B="future")
    assert full.contains_past_of(r)
    assert not r.contains_past_of(full)


def test_hk_state_reduces_future_side_detectors():
    s = scenarios.singlet(Z_AXIS, X_AXIS)
    region = hk.region_from_sides(A="future", B="past")
    state = hk.hk_state(s, {"A": "+"}, region)
    # b collapses to |z->, i.e. the -1 eigenstate of A's axis
    spinor = hk._pure_spinor(state, "b")
    expected = hilbert.axis_eigenstate(Z_AXIS, -1)
    assert abs(abs(np.vdot(expected, spinor)) - 1.0) < 1e-12


def test_hk_state_requires_outcomes_for_reduced_detectors():
    s = scenarios.singlet(Z_AXIS, X_AXIS)
    with pytest.raises(ConfigurationError):
        hk.hk_state(s, {}, hk.region_from_sides(A="future", B="past"))


def test_pure_spinor_rejects_entangled_subsystem():
    s = scenarios.singlet(Z_AXIS, X_AXIS)
    with pytest.raises(PhysicsError):
        hk._pure_spinor(s.initial_state, "a")


def test_hk_copy_states_are_regional_duplicates():
    s = copies_scenario()
    outcomes = {"A": "+", "B": "+"}
    st2 = hk.hk_state(s, outcomes, hk.region_from_sides(A="past", B="future"))
    # in the region above only B's cone, AA1's copy duplicates the state of
    # spin a conditioned on B's + outcome: a is then |z-> (anti-correlated)
    c1 = hk._pure_spinor(st2, "c1")
    a = hk._pure_spinor(st2, "a")
    assert abs(abs(np.vdot(a, c1)) - 1.0) < 1e-12


def test_hk_conditional_is_one_psv_below_one():
    r = hk.hk_copy_inconsistency(X_AXIS, Z_AXIS)
    assert r.hk_conditional == 1.0
    assert r.psv_conditional < 1.0 - 1e-6
    assert r.psv_conditional == pytest.approx(0.5, abs=1e-12)


def test_psv_conditional_matches_dense_oracle():
    cases = [
        (X_AXIS, Z_AXIS, Z_AXIS),
        (Axis(math.pi / 3), Axis(2 * math.pi / 3), Z_AXIS),
        (Axis(math.pi / 4), Axis(3 * math.pi / 4), Z_AXIS),
        (Axis(1.1, 0.4), Axis(2.0, -0.9), Axis(0.3, 0.2)),
    ]
    for axis_a, axis_b, basis in cases:
        r = hk.hk_copy_inconsistency(axis_a, axis_b, basis)
        oracle = singlet_copies_conditional(axis_a, axis_b, basis)
        assert r.psv_conditional == pytest.approx(oracle, abs=1e-12)


def test_aligned_axes_agree():
    # A along +z, B along -z: both "+" results are the certain ones and
    # the copies are faithful, so both prescriptions give 1
    minus_z = Axis(theta=math.pi)
    r = hk.hk_copy_inconsistency(Z_AXIS, minus_z)
    assert r.hk_conditional == pytest.approx(1.0, abs=1e-12)
    assert r.psv_conditional == pytest.approx(1.0, abs=1e-12)


def test_zero_probability_conditioning_raises():
    # A and B along the same axis never both read "+" on a singlet
    with pytest.raises(PhysicsError):
        hk.hk_copy_inconsistency(Z_AXIS, Z_AXIS)
