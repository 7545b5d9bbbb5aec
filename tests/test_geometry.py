import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

import _oracles
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
    compare,
    event_side_of_surface,
    is_future_of,
    surface_time,
    surface_times,
)

coord = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


def _covers(s1, s0, region=None):
    return compare(s1, s0, region)[0]


def test_classification():
    assert classify(Event(0, (0,)), Event(2, (1,))) is Separation.TIMELIKE
    assert classify(Event(0, (0,)), Event(1, (2,))) is Separation.SPACELIKE
    assert classify(Event(0, (0,)), Event(3, (3,))) is Separation.LIGHTLIKE


def test_classification_lightlike_within_eps():
    # roundoff-bearing coordinates on the cone are lightlike, as they are ON
    # for event_side_of_surface; c = 3 exercises the time-unit tolerance
    for c, far in ((1.0, Event(0.1 + 0.2, (0.3,))), (3.0, Event(0.1 + 0.2, (0.9,)))):
        near = Event(0, (0,))
        assert classify(near, far, c) is Separation.LIGHTLIKE
        cone = Lcsh(apexes=(far,), c=c)
        assert event_side_of_surface(near, cone) is SurfaceSide.ON
    # a genuine offset well above the tolerance is not absorbed
    assert classify(Event(0, (0,)), Event(1 + 1e-6, (1,))) is Separation.TIMELIKE
    assert classify(Event(0, (0,)), Event(1 - 1e-6, (1,))) is Separation.SPACELIKE


def test_dimension_checks():
    with pytest.raises(ConfigurationError):
        Event(0, ())
    with pytest.raises(ConfigurationError):
        Event(0, (0, 0, 0, 0))
    with pytest.raises(ConfigurationError):
        classify(Event(0, (0,)), Event(0, (0, 0)))


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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, 2, 3)), st.sampled_from((0.5, 1.0, 3.0)),
       st.sampled_from((-math.inf, -1.5, 0.0)),
       st.lists(st.tuples(coord, st.lists(coord, min_size=3, max_size=3)), max_size=4),
       st.lists(st.lists(coord, min_size=3, max_size=3), min_size=1, max_size=20))
def test_surface_times_equals_the_per_apex_envelope_exactly(d, c, t0, apexes, points):
    s = Lcsh(t0=t0, apexes=tuple(Event(t, x[:d]) for t, x in apexes), c=c)
    xs = np.array(points)[:, :d]
    assert np.array_equal(surface_times(s, xs), _oracles.surface_times_by_apex(s, xs))


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


half_units = st.integers(-6, 6).map(lambda k: k / 2)


@st.composite
def surface_pairs(draw):
    """(s1, s0, region) in d = 1, 2 or 3 with c = 0.5, 1 or 3, floors
    finite or -inf, and the default or an explicit region.  Half the pairs
    put cones of s1 at the corners of the box over a finite floor of s0,
    each too low to cover the whole box alone, so only the probe grid can
    tell whether s1 dips below the floor in between."""
    d = draw(st.sampled_from((1, 2, 3)))
    c = draw(st.sampled_from((0.5, 1.0, 3.0)))
    box = ((-3.0, 3.0),) * d
    apexes = st.lists(st.builds(Event, st.integers(0, 6).map(lambda k: k / 2),
                                st.tuples(*[half_units] * d)), max_size=3)
    if draw(st.booleans()):
        floor = st.just(-math.inf) | half_units
        s1, s0 = (Lcsh(t0=draw(floor), apexes=tuple(draw(apexes)), c=c) for _ in range(2))
        return s1, s0, draw(st.sampled_from((None, box)))
    t0 = draw(half_units)
    diagonal = 6.0 * math.sqrt(d) / c
    lifts = draw(st.lists(st.integers(0, 19), min_size=2 ** d, max_size=2 ** d))
    corners = itertools.product((-3.0, 3.0), repeat=d)
    s1 = Lcsh(apexes=tuple(Event(t0 + k / 20 * diagonal, x) for k, x in zip(lifts, corners)),
              c=c)
    return s1, Lcsh(t0=t0, apexes=tuple(draw(apexes))[:1], c=c), box


@settings(max_examples=40, deadline=None)
@given(surface_pairs())
def test_covers_and_is_future_of_match_the_probe_grid(pair):
    s1, s0, region = pair
    assert _covers(s1, s0, region) is _oracles.grid_covers(s1, s0, region)
    assert _covers(s0, s1, region) is _oracles.grid_covers(s0, s1, region)
    assert is_future_of(s1, s0, region) is _oracles.grid_is_future_of(s1, s0, region)


@settings(max_examples=40, deadline=None)
@given(surface_pairs())
def test_compare_matches_the_probe_grid_both_ways(pair):
    s1, s0, region = pair
    assert compare(s1, s0, region) == _oracles.grid_compare(s1, s0, region)


def test_surface_pairs_reach_the_grid_fallback():
    """The strategy above exercises the grid fallback, with both answers."""
    for answer in (True, False):
        find(surface_pairs(),
             lambda p: _oracles.probe_grid_sizes(_covers, *p) == (answer, [2, 64]),
             settings=settings(max_examples=2000, database=None, phases=[Phase.generate]))


def test_grid_fallback_memory_is_bounded():
    """Eight corner cones over a finite floor in d = 3: no single cone
    covers the box, so the whole 64^3 grid is evaluated, in slabs."""
    d, box = 3, ((-3.0, 3.0),) * 3
    lift = 0.6 * 6.0 * math.sqrt(d)
    s1 = Lcsh(apexes=tuple(Event(lift, x) for x in itertools.product((-3.0, 3.0), repeat=d)))
    s0 = Lcsh(t0=0.0)
    tracemalloc.start()
    try:
        result, sizes = _oracles.probe_grid_sizes(_covers, s1, s0, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result, sizes) == (True, [2, 64]) and result is _oracles.grid_covers(s1, s0, box)
    # the grid itself is 6 MB; one (64^3, 8, 3) array of the cone distances would be 50 MB
    assert peak < 24 * 2**20


def test_covers_decides_without_the_grid():
    """Shortfall at an apex, a -inf floor, an equal floor and one cone over
    the floor are each decided from corners and apexes alone."""
    box = ((-5.0, 5.0),)
    low, cone = Lcsh(t0=0.0), Lcsh(t0=0.0, apexes=(Event(2.0, (0.0,)),))
    tall = Lcsh(apexes=(Event(20.0, (0.0,)),))
    cases = [(low, cone, False), (cone, Lcsh(apexes=cone.apexes), True),
             (cone, low, True), (tall, low, True)]
    for s1, s0, expect in cases:
        assert _oracles.probe_grid_sizes(_covers, s1, s0, box) == (expect, [2])


def test_surface_comparisons_reject_mixed_dimensions_and_speeds():
    flat = Lcsh(t0=0.0)
    d1 = Lcsh(apexes=(Event(1.0, (0.0,)),))
    d2 = Lcsh(apexes=(Event(1.0, (0.0, 0.0)),))
    fast = Lcsh(apexes=(Event(1.0, (0.0,)),), c=3.0)
    for s1, s0, region in [(d1, d2, None), (d2, d1, None), (d1, flat, ((0.0, 1.0),) * 2)]:
        with pytest.raises(ConfigurationError, match="dimension"):
            is_future_of(s1, s0, region)
    with pytest.raises(ConfigurationError, match="speeds of light"):
        is_future_of(d1, fast)
    # a flat surface has no cones, so its c is irrelevant
    assert is_future_of(fast, Lcsh(t0=-1.0, c=0.5))


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
