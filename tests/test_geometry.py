import itertools
import math
import struct
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
    classify,
    compare,
    compare_chain,
    event_side_of_surface,
    is_future_of,
    surface_time,
    surface_times,
)

coord = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


def _covers(s1, s0, region=None):
    return compare(s1, s0, region)[0]


def _is_future_of(s1, s0, region):
    """``is_future_of`` over ``region``: s1 covers s0 and not the other way."""
    up, down = compare(s1, s0, region)
    return up and not down


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


def test_surface_time_of_one_cone():
    apex = Event(1.0, (0.0,))
    assert surface_time(Lcsh(apexes=(apex,)), (0.0,)) == 1.0
    assert surface_time(Lcsh(apexes=(apex,)), (2.0,)) == -1.0
    assert surface_time(Lcsh(apexes=(apex,), c=2.0), (2.0,)) == 0.0
    with pytest.raises(ConfigurationError, match="query point dimension 2 != apex dimension 1"):
        surface_time(Lcsh(apexes=(apex,)), (0.0, 0.0))


def test_surface_time_envelope():
    s = Lcsh(t0=0.0, apexes=(Event(3.0, (-2.0,)), Event(3.0, (2.0,))))
    assert surface_time(s, (-2.0,)) == 3.0
    assert surface_time(s, (0.0,)) == 1.0  # both cones give 1
    assert surface_time(s, (10.0,)) == 0.0  # flat floor wins far away
    flat = Lcsh(t0=-math.inf, apexes=())
    assert surface_time(flat, (0.0,)) == -math.inf


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, 2, 3)), st.sampled_from((0.5, 1.0, 3.0)),
       st.sampled_from((-math.inf, -1.5, 0.0)),
       st.lists(st.tuples(coord, st.lists(coord, min_size=3, max_size=3)), max_size=4),
       st.lists(st.lists(coord, min_size=3, max_size=3), min_size=1, max_size=20))
def test_surface_times_equals_the_per_apex_envelope_exactly(d, c, t0, apexes, points):
    s = Lcsh(t0=t0, apexes=tuple(Event(t, x[:d]) for t, x in apexes), c=c)
    xs = np.array(points)[:, :d]
    expected = _oracles.surface_times_by_apex(s, xs)
    assert np.array_equal(surface_times(s, xs), expected)
    assert [surface_time(s, tuple(x)) for x in xs] == expected.tolist()


#: Coordinates that put a point exactly on an apex or a cone, so that
#: heights of +0.0 and -0.0 tie; coordinates at full precision, where the
#: order of the squared-distance sum shows in the last bit; and points far
#: enough out that the squared distance to an apex overflows.
exact = st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.0, 3.0))
fine = st.floats(-1e3, 1e3, allow_subnormal=False)
far = st.sampled_from((1e155, -1e200, 1.7e308, -1.7e308))
point3 = st.lists(exact | coord | fine | far, min_size=3, max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((1, 2, 3)), st.sampled_from((0.5, 1.0, 3.0, 1e-3)),
       st.sampled_from((-math.inf, -1.5, 0.0, -0.0)),
       st.lists(st.tuples(exact | coord | fine, st.lists(exact | coord | fine, min_size=3,
                                                        max_size=3)), max_size=5),
       st.lists(point3, min_size=1, max_size=8), st.integers(0, 2**32 - 1))
def test_surface_time_is_surface_times_at_one_point_bit_for_bit(d, c, t0, apexes, points, seed):
    """``surface_time`` works in plain floats and must give ``surface_times``'s
    value to the bit, the sign of a zero included, at the drawn points, at
    every apex and at 32 uniform points around the apexes; a point whose
    squared distance overflows gives no RuntimeWarning (warnings are
    errors)."""
    s = Lcsh(t0=t0, apexes=tuple(Event(t, x[:d]) for t, x in apexes), c=c)
    uniform = np.random.default_rng(seed).uniform(-60.0, 60.0, (32, d)).tolist()
    for x in [tuple(p[:d]) for p in points] + [a.x for a in s.apexes] + uniform:
        assert struct.pack("<d", surface_time(s, x)) == struct.pack("<d", surface_times(s, [x])[0])


@pytest.mark.parametrize("t0", (-math.inf, 0.0, -0.0))
@pytest.mark.parametrize("times", itertools.product((0.0, -0.0), repeat=3))
def test_surface_time_gives_a_zero_height_the_sign_surface_times_gives(t0, times):
    """Cones whose apexes share one point tie there at +0.0 or -0.0, as
    their times are signed; which zero wins is numpy's choice."""
    for d in (1, 2, 3):
        for k in (1, 2, 3):
            s = Lcsh(t0=t0, apexes=tuple(Event(t, (0.5,) * d) for t in times[:k]))
            x = (0.5,) * d
            assert struct.pack("<d", surface_time(s, x)) == struct.pack("<d", surface_times(s, [x])[0])


@pytest.mark.parametrize("d", (1, 2, 3))
def test_surface_time_is_minus_infinity_where_the_squared_distance_overflows(d):
    s = Lcsh(apexes=(Event(1.0, (0.0,) * d), Event(2.0, (3.0,) * d)), c=2.0)
    for x in (1e155, -1e200, 1.7e308):
        point = (x,) + (0.0,) * (d - 1)
        assert surface_time(s, point) == surface_times(s, [point])[0] == -math.inf


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


def test_a_cone_is_minus_infinity_where_its_distance_overflows():
    """Squared distances and light travel times beyond the float range are
    infinite: the cone's height there is -inf, with no overflow warning."""
    s = Lcsh(t0=-math.inf, apexes=(Event(3.0, (1e300,)), Event(2.0, (0.0,))), c=1e-10)
    assert list(surface_times(s, [[-1e300], [0.0], [1e300]])) == [-math.inf, 2.0, 3.0]


def test_adjoin_dominated_apex_is_idempotent():
    s = Lcsh(t0=-math.inf, apexes=(Event(3.0, (0.0,)),))
    s2 = adjoin_apex(s, Event(3.0, (0.0,)))
    xs = np.linspace(-10, 10, 101).reshape(-1, 1)
    assert np.array_equal(surface_times(s, xs), surface_times(s2, xs))


def test_is_future_of():
    s0 = Lcsh(t0=0.0)
    s1 = adjoin_apex(s0, Event(2.0, (0.0,)))
    assert _is_future_of(s1, s0, ((-5.0, 5.0),))
    assert not _is_future_of(s0, s1, ((-5.0, 5.0),))
    assert not _is_future_of(s0, s0, ((-5.0, 5.0),))


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
    assert _is_future_of(s1, s0, region) is _oracles.grid_is_future_of(s1, s0, region)


@settings(max_examples=40, deadline=None)
@given(surface_pairs())
def test_compare_matches_the_probe_grid_both_ways(pair):
    s1, s0, region = pair
    box = region or _oracles.default_region((s1, s0))  # compare's default region
    up, down = _oracles.grid_compare(s1, s0, box)
    assert compare(s1, s0, region) == (up, down)
    # Nested chains, each surface checked on its own grid: s1 against s0 cut
    # to the first half of its cones and whole, and s0 against s1 likewise.
    for q, last, whole in ((s1, s0, (up, down)), (s0, s1, (down, up))):
        cut = Lcsh(last.t0, last.apexes[:len(last.apexes) // 2], last.c)
        assert compare_chain(q, (cut, last), box) == [_oracles.grid_compare(q, cut, box), whole]


def test_compare_chain_requires_a_nested_chain():
    a, b = Event(0.0, (0.0,)), Event(1.0, (2.0,))
    last = Lcsh(apexes=(a, b))
    for first in (Lcsh(apexes=(b,)),              # not a prefix of last's apexes
                  Lcsh(t0=-5.0, apexes=(a,)),     # another floor
                  Lcsh(apexes=(a,), c=2.0)):      # another speed of light
        with pytest.raises(ConfigurationError, match="chain surfaces must share"):
            compare_chain(Lcsh(t0=5.0), (first, last))


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
            compare(s1, s0, region)
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
    assert _oracles.achronality_violation(s, rng, n_pairs=2000) <= geometry.EPS_GEOM


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
    for t0 in (math.nan, math.inf):
        with pytest.raises(ConfigurationError, match=f"surface floor t0 must be finite or -inf, got {t0}"):
            Lcsh(t0=t0)
    with pytest.raises(ConfigurationError):
        Lcsh(apexes=(Event(0, (0,)), Event(0, (0, 0))))
    with pytest.raises(ConfigurationError):
        adjoin_apex(Lcsh(apexes=(Event(0, (0,)),)), Event(1, (0, 0)))
