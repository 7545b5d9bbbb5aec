import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psvsim import geometry
from psvsim.errors import ConfigurationError, OrderingViolationError
from psvsim.geometry import (
    Event,
    Lcsh,
    Separation,
    SurfaceSide,
    adjoin_apex,
    blc_time,
    classify,
    event_side_of_surface,
    interval,
    is_future_of,
    surface_time,
    surface_times,
)

coord = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


def test_interval_examples():
    assert interval(Event(0, (0,)), Event(1, (0,))) == 1.0
    assert interval(Event(0, (0,)), Event(0, (1,))) == -1.0
    assert interval(Event(0, (0,)), Event(1, (1,))) == 0.0
    # c scales the time part
    assert interval(Event(0, (0,)), Event(1, (0,)), c=2.0) == 4.0


def test_classification():
    assert classify(Event(0, (0,)), Event(2, (1,))).kind is Separation.TIMELIKE
    assert classify(Event(0, (0,)), Event(1, (2,))).kind is Separation.SPACELIKE
    assert classify(Event(0, (0,)), Event(3, (3,))).kind is Separation.LIGHTLIKE


def test_classification_lightlike_within_eps():
    # roundoff-bearing coordinates on the cone are lightlike, as they are ON
    # for event_side_of_surface; c = 3 exercises the time-unit tolerance
    for c, far in ((1.0, Event(0.1 + 0.2, (0.3,))), (3.0, Event(0.1 + 0.2, (0.9,)))):
        near = Event(0, (0,))
        assert classify(near, far, c).kind is Separation.LIGHTLIKE
        cone = Lcsh(apexes=(far,), c=c)
        assert event_side_of_surface(near, cone) is SurfaceSide.ON
    # a genuine offset well above the tolerance is not absorbed
    assert classify(Event(0, (0,)), Event(1 + 1e-6, (1,))).kind is Separation.TIMELIKE
    assert classify(Event(0, (0,)), Event(1 - 1e-6, (1,))).kind is Separation.SPACELIKE


@given(coord, coord, coord, coord, coord, coord)
def test_interval_symmetric_and_translation_invariant(t0, x0, t1, x1, dt, dx):
    a, b = Event(t0, (x0,)), Event(t1, (x1,))
    assert interval(a, b) == interval(b, a)
    a2, b2 = Event(t0 + dt, (x0 + dx,)), Event(t1 + dt, (x1 + dx,))
    assert interval(a2, b2) == pytest.approx(interval(a, b), abs=1e-6)


def test_dimension_checks():
    with pytest.raises(ConfigurationError):
        Event(0, ())
    with pytest.raises(ConfigurationError):
        Event(0, (0, 0, 0, 0))
    with pytest.raises(ConfigurationError):
        interval(Event(0, (0,)), Event(0, (0, 0)))


def test_blc_time():
    apex = Event(1.0, (0.0,))
    assert blc_time(apex, (0.0,)) == 1.0
    assert blc_time(apex, (2.0,)) == -1.0
    assert blc_time(apex, (2.0,), c=2.0) == 0.0


def test_surface_time_envelope():
    s = Lcsh(t0=0.0, apexes=(Event(3.0, (-2.0,)), Event(3.0, (2.0,))))
    assert surface_time(s, (-2.0,)) == 3.0
    assert surface_time(s, (0.0,)) == 1.0  # both cones give 1
    assert surface_time(s, (10.0,)) == 0.0  # flat floor wins far away
    flat = Lcsh(t0=-math.inf, apexes=())
    assert surface_time(flat, (0.0,)) == -math.inf


def test_surface_times_matches_scalar():
    s = Lcsh(t0=-1.0, apexes=(Event(2.0, (1.0,)),), c=0.5)
    xs = np.linspace(-5, 5, 17).reshape(-1, 1)
    vec = surface_times(s, xs)
    for x, t in zip(xs, vec):
        assert t == pytest.approx(surface_time(s, tuple(x)), abs=1e-12)


def test_event_side_of_surface():
    s = Lcsh(apexes=(Event(1.0, (0.0,)),))
    assert event_side_of_surface(Event(0.5, (0.0,)), s) is SurfaceSide.PAST
    assert event_side_of_surface(Event(1.0, (0.0,)), s) is SurfaceSide.ON
    assert event_side_of_surface(Event(0.0, (1.0,)), s) is SurfaceSide.ON
    assert event_side_of_surface(Event(2.0, (0.0,)), s) is SurfaceSide.FUTURE


def test_adjoin_apex_accepts_future_and_on_surface():
    s = Lcsh(apexes=(Event(1.0, (0.0,)),))
    s2 = adjoin_apex(s, Event(0.0, (1.0,)))  # exactly on the cone
    assert len(s2.apexes) == 2
    adjoin_apex(s, Event(5.0, (0.0,)))


def test_adjoin_apex_rejects_past_apex():
    s = Lcsh(apexes=(Event(1.0, (0.0,)),))
    with pytest.raises(OrderingViolationError):
        adjoin_apex(s, Event(0.0, (0.5,)))


def test_adjoin_apex_insertion_order_independent():
    base = Lcsh(t0=-math.inf)
    a, b = Event(3.0, (-4.0,)), Event(3.0, (4.0,))
    s1 = adjoin_apex(adjoin_apex(base, a), b)
    s2 = adjoin_apex(adjoin_apex(base, b), a)
    xs = np.linspace(-10, 10, 101).reshape(-1, 1)
    assert np.array_equal(surface_times(s1, xs), surface_times(s2, xs))


def test_adjoin_dominated_apex_is_idempotent():
    s = Lcsh(t0=-math.inf, apexes=(Event(3.0, (0.0,)),))
    s2 = adjoin_apex(s, Event(3.0, (0.0,)))
    xs = np.linspace(-10, 10, 101).reshape(-1, 1)
    assert np.array_equal(surface_times(s, xs), surface_times(s2, xs))


def test_is_future_of():
    s0 = Lcsh(t0=0.0)
    s1 = adjoin_apex(s0, Event(2.0, (0.0,)))
    assert is_future_of(s1, s0, region=((-5.0, 5.0),))
    assert not is_future_of(s0, s1, region=((-5.0, 5.0),))
    assert not is_future_of(s0, s0, region=((-5.0, 5.0),))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=1, max_size=5),
       st.floats(0.25, 4.0))
def test_surfaces_are_achronal(apexes, c):
    s = Lcsh(t0=-10.0, apexes=tuple(Event(t, (x,)) for t, x in apexes), c=c)
    rng = np.random.default_rng(7)
    assert geometry.achronality_violation(s, rng, n_pairs=2000) <= geometry.EPS_GEOM


def test_large_c_flattens_surface():
    """Nonrelativistic limit: the cone envelope approaches the
    instantaneous hyperplane through the latest apex."""
    apexes = (Event(3.0, (-4.0,)), Event(4.0, (0.0,)))
    xs = np.linspace(-8, 8, 101).reshape(-1, 1)
    spreads = []
    for c in (1.0, 2.0, 4.0, 8.0, 16.0):
        ts = surface_times(Lcsh(t0=-math.inf, apexes=apexes, c=c), xs)
        spreads.append(ts.max() - ts.min())
    for a, b in zip(spreads, spreads[1:]):
        assert b <= a / 2.0 + 1e-12
    assert spreads[-1] < spreads[0] / 10.0


def test_lcsh_validation():
    with pytest.raises(ConfigurationError):
        Lcsh(c=0.0)
    with pytest.raises(ConfigurationError):
        Lcsh(apexes=(Event(0, (0,)), Event(0, (0, 0))))
    with pytest.raises(ConfigurationError):
        adjoin_apex(Lcsh(apexes=(Event(0, (0,)),)), Event(1, (0, 0)))
