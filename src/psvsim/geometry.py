"""Minkowski causal structure.

Events are points (t, x) with a scenario-wide speed of light c.  Surfaces
are upper envelopes of backward light cones over a flat initial surface
(possibly the formal limit t0 = -inf); they are evaluated lazily through
``surface_time`` rather than meshed, so all envelope algebra is exact up
to float roundoff.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from functools import cached_property

import numpy as np

from ._record import Record
from .errors import ConfigurationError, OrderingViolationError

#: Tolerance for on-surface / tie-breaking decisions, in scenario units.
#: Scenario coordinates are exact small rationals; this only absorbs roundoff.
EPS_GEOM = 1e-9

MINUS_INFINITY = -math.inf

#: Probe-grid points per slab in ``_covers_screened``'s grid fallback, which
#: bounds its (points, apexes, d) working array.
GRID_SLAB = 4096

#: An axis-aligned spatial box, one (lo, hi) pair per dimension.
Region = tuple[tuple[float, float], ...]


class Separation(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"


class SurfaceSide(Enum):
    PAST = "past"
    ON = "on"
    FUTURE = "future"


class Event(Record):
    """A spacetime point (t, x) in d spatial dimensions, d in {1, 2, 3},
    with finite coordinates."""

    t: float
    x: tuple[float, ...]

    def __post_init__(self):
        self.__dict__.update(t=float(self.t), x=tuple(float(v) for v in self.x))
        if not 1 <= len(self.x) <= 3:
            raise ConfigurationError(
                f"spatial dimension must be 1, 2 or 3, got {len(self.x)}"
            )
        if not all(map(math.isfinite, (self.t,) + self.x)):
            raise ConfigurationError(f"event {self} has a non-finite coordinate")

    @property
    def dim(self) -> int:
        return len(self.x)


def classify(e0: Event, e1: Event, c: float = 1.0) -> Separation:
    """Classify a pair as spacelike / timelike / lightlike.

    Lightlike means the time separation matches the light travel time
    within EPS_GEOM, the same time-unit tolerance ``event_side_of_surface``
    uses to put an event on a cone.  Callers wanting the delta-limit
    convention (lightlike counts as spacelike) consult the enum explicitly.
    Raises ``ConfigurationError`` for events of different spatial dimension.
    """
    if e0.dim != e1.dim:
        raise ConfigurationError(
            f"events have mismatched spatial dimensions {e0.dim} != {e1.dim}"
        )
    gap = abs(e0.t - e1.t) - math.dist(e0.x, e1.x) / c
    if abs(gap) <= EPS_GEOM:
        return Separation.LIGHTLIKE
    return Separation.SPACELIKE if gap < 0.0 else Separation.TIMELIKE


class Lcsh(Record):
    """A light-cone spacelike hypersurface: the upper envelope of the
    backward light cones of ``apexes`` over the flat surface t = t0.

    t0 = -inf gives the pure cone envelope; any other floor is finite.
    """

    t0: float = MINUS_INFINITY
    apexes: tuple[Event, ...] = ()
    c: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0):
            raise ConfigurationError(f"speed of light must be positive and finite, got {self.c}")
        if not (math.isfinite(self.t0) or self.t0 == MINUS_INFINITY):
            raise ConfigurationError(f"surface floor t0 must be finite or -inf, got {self.t0}")
        dims = {a.dim for a in self.apexes}
        if len(dims) > 1:
            raise ConfigurationError(f"apexes have mixed dimensions {sorted(dims)}")

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """``Record``'s hash of the field values, worked out once: a
        surface keys ``engine.step``'s advance cache, and hashing its tuple
        of apex events anew on each lookup cost more than the lookup."""
        return Record.__hash__(self)

    @property
    def dim(self) -> int | None:
        return self.apexes[0].dim if self.apexes else None

    @cached_property
    def apex_times(self) -> np.ndarray:
        """Read-only apex times, shape (m,)."""
        return _frozen(np.array([a.t for a in self.apexes], dtype=float))

    @cached_property
    def apex_points(self) -> np.ndarray:
        """Read-only apex positions, shape (m, d); (0, 0) without apexes."""
        points = np.array([a.x for a in self.apexes], dtype=float)
        return _frozen(points.reshape(len(self.apexes), self.dim or 0))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def surface_time(s: Lcsh, x: tuple[float, ...]) -> float:
    """Height of the envelope at spatial point x (may be -inf): the value
    ``surface_times`` gives at that one point, bit for bit, worked out in
    plain floats with ``_cone_times``'s operations in its order.  Python
    float arithmetic overflows to inf without a warning, as ``_cone_times``
    does under its ``errstate``.  Only the sign of a zero height depends on
    which of two tied zeros numpy's max keeps, so a zero is taken from
    ``surface_times`` itself.  Raises ``ConfigurationError`` for a point
    whose dimension is not the apexes'."""
    if not s.apexes:
        return float(s.t0)
    if len(x) != s.dim:
        raise ConfigurationError(f"query point dimension {len(x)} != apex dimension {s.dim}")
    x = [float(v) for v in x]
    c = s.c
    top = -math.inf
    for a in s.apexes:
        r2 = 0.0
        for v, w in zip(x, a.x):
            d = v - w
            r2 += d * d
        t = a.t - math.sqrt(r2) / c
        if not t <= top:  # np.max's NaN propagation, for a NaN point
            top = t
    t = float(s.t0) if s.t0 > top else top
    return t if t != 0.0 else float(surface_times(s, x)[0])


def surface_times(s: Lcsh, xs: np.ndarray) -> np.ndarray:
    """Envelope heights over an (n, d) array of spatial points."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    t = np.full(xs.shape[0], s.t0)
    if s.apexes:
        t = np.maximum(t, np.maximum.reduce(_cone_times(s, xs), axis=1))  # .max, without its frame
    return t


def _cone_times(s: Lcsh, xs: np.ndarray) -> np.ndarray:
    """Height of each backward cone of s (at least one) over an (n, d)
    float array of points, shape (n, m)."""
    with np.errstate(over="ignore"):  # a distance past the float range: the cone is at -inf
        d = xs[:, None, :] - s.apex_points
        r = np.sqrt(np.add.reduce(np.multiply(d, d, out=d), axis=2))  # np.linalg.norm, without its copies
        return s.apex_times - r / s.c


def adjoin_apex(s: Lcsh, apex: Event) -> Lcsh:
    """Adjoin a backward light cone; pointwise max keeps this idempotent
    and insertion-order independent."""
    if s.dim is not None and apex.dim != s.dim:
        raise ConfigurationError(
            f"apex dimension {apex.dim} != surface dimension {s.dim}"
        )
    below = surface_time(s, apex.x) - apex.t
    if below > EPS_GEOM:
        raise OrderingViolationError(
            f"apex at t={apex.t}, x={apex.x} lies {below:g} below the surface; "
            "the detector would act on an already-reduced region"
        )
    return Lcsh(s.t0, s.apexes + (apex,), s.c)


def event_side_of_surface(e: Event, s: Lcsh) -> SurfaceSide:
    """Which side of the surface an event lies on, with On within EPS_GEOM."""
    t = surface_time(s, e.x)
    if abs(e.t - t) <= EPS_GEOM:
        return SurfaceSide.ON
    return SurfaceSide.PAST if e.t < t else SurfaceSide.FUTURE


def _bounding_region(surfaces: tuple[Lcsh, ...]) -> Region:
    """Default comparison region: the bounding box of all apex positions,
    padded by 1 + c * (apex time span); the 1-d ((-1, 1),) without apexes."""
    shaped = [s for s in surfaces if s.apexes]
    if not shaped:
        return ((-1.0, 1.0),)
    pts = np.concatenate([s.apex_points for s in shaped])
    ts = np.concatenate([s.apex_times for s in shaped])
    pad = 1.0 + (ts.max() - ts.min()) * max(s.c for s in surfaces)
    return tuple((pts[:, k].min() - pad, pts[:, k].max() + pad) for k in range(pts.shape[1]))


def probe_points(
    surfaces: tuple[Lcsh, ...],
    region: Region,
    points_per_axis: int = 64,
) -> np.ndarray:
    """Probe grid for surface comparisons: a regular grid over ``region``
    plus all apex spatial projections.  Two points per axis give the
    region's corners."""
    if points_per_axis == 2:
        grid = np.array(list(itertools.product(*region)), dtype=float)
    else:
        axes = [np.linspace(lo, hi, points_per_axis) for lo, hi in region]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(region))
    return np.concatenate([grid] + [s.apex_points for s in surfaces if s.apexes])


def _check_comparable(surfaces: tuple[Lcsh, ...], region: Region | None) -> None:
    """Surfaces with apexes must share the spatial dimension (with
    ``region``, if given) and the speed of light."""
    shaped = [s for s in surfaces if s.apexes]
    dims = {s.dim for s in shaped} | ({len(region)} if region is not None else set())
    if len(dims) > 1:
        raise ConfigurationError(f"surfaces have mixed spatial dimensions {sorted(dims)}")
    speeds = {s.c for s in shaped}
    if len(speeds) > 1:
        raise ConfigurationError(f"surfaces have different speeds of light {sorted(speeds)}")


def _covers_screened(s1: Lcsh, s0: Lcsh, region: Region) -> bool:
    """Whether s1 covers s0 over ``region`` (see ``compare``), for a pair
    whose screen s1 passed.

    Both envelopes are 1/c-Lipschitz, so s1 >= a.t - EPS at each apex a of
    s0 keeps s1 above a's whole backward cone (less EPS).  Only s0's floor
    t0 is left, and it is covered over the whole region if it is -inf, if
    s1's floor is as high, or if one cone of s1 stays above it at the
    region corner farthest from its apex.  Otherwise evaluate the grid,
    ``GRID_SLAB`` points at a time, up to the first shortfall.
    """
    floor = s0.t0 - EPS_GEOM
    if s1.t0 >= floor:  # always so for a -inf floor of s0
        return True
    if s1.apexes:
        lo, hi = np.array(region).T
        a = s1.apex_points
        d = np.where(np.abs(lo - a) > np.abs(hi - a), lo, hi) - a
        r = np.sqrt(np.add.reduce(d * d, axis=1))  # np.linalg.norm(d, axis=1)'s arithmetic
        if (s1.apex_times - r / s1.c >= floor).any():
            return True
    xs = probe_points((s1, s0), region)
    for start in range(0, len(xs), GRID_SLAB):
        slab = xs[start:start + GRID_SLAB]
        if not (surface_times(s1, slab) >= surface_times(s0, slab) - EPS_GEOM).all():
            return False
    return True


def compare(s1: Lcsh, s0: Lcsh, region: Region | None = None) -> tuple[bool, bool]:
    """``(s1 covers s0, s0 covers s1)`` over ``region``, from one screen.
    s1 covers s0 iff s1 >= s0 - EPS_GEOM at every point of the 64^d probe
    grid of ``probe_points((s1, s0), region)``, decided without the grid
    wherever possible.

    Screen: both surfaces are evaluated once at the region's corners and
    every apex projection.  These are probe points, so a shortfall there
    answers False for that direction.  Each direction that passes is then
    certified, or decided on the grid, by ``_covers_screened``.  Raises
    ``ConfigurationError`` for surfaces of different spatial dimension or
    speed of light.  The one-surface case of ``compare_chain``.
    """
    return compare_chain(s1, (s0,), region)[0]


def compare_chain(
    q: Lcsh,
    chain: tuple[Lcsh, ...],
    region: Region | None = None,
) -> list[tuple[bool, bool]]:
    """``compare(q, s, region)`` for each surface s of a nested chain, from
    one evaluation of the surfaces.  The chain's surfaces share one floor
    and one speed of light, and each one's apexes are a prefix of the last
    one's, as the step surfaces of a run are.  ``region`` defaults to the
    bounding region of q and the last surface.

    q and every cone of the last surface are evaluated once, at
    ``probe_points((q, last), region, 2)``: the region's corners, q's
    apexes, then the last surface's apexes.  Surface k's heights there are
    its floor raised to the running maximum over its own cones, and its
    pair with q is screened on the prefix that ``compare(q, s_k)`` would
    build (corners, q's apexes, s_k's apexes), so each answer is
    ``compare``'s to the bit.  Raises ``ConfigurationError`` for a chain
    that is not nested, and where ``compare`` raises.
    """
    if not chain:
        return []
    last = chain[-1]
    if any(s.t0 != last.t0 or s.c != last.c or s.apexes != last.apexes[:len(s.apexes)]
           for s in chain):
        raise ConfigurationError("chain surfaces must share one floor and speed of light, "
                                 "each with a prefix of the last one's apexes")
    _check_comparable((q, last), region)
    if region is None:
        region = _bounding_region((q, last))
    xs = probe_points((q, last), region, 2)
    tq = surface_times(q, xs)
    tq_low = tq - EPS_GEOM
    if last.apexes:
        # Column m - 1: the heights of the chain surface with m cones.
        levels = np.maximum(np.maximum.accumulate(_cone_times(last, xs), axis=1), last.t0)
        levels_low = levels - EPS_GEOM
    screen = len(xs) - len(last.apexes)  # the corners and q's apexes
    out = []
    for s in chain:
        m = len(s.apexes)
        n = screen + m
        if m:
            t0, t0_low = levels[:n, m - 1], levels_low[:n, m - 1]
        else:
            t0, t0_low = s.t0, s.t0 - EPS_GEOM
        up = not (tq[:n] < t0_low).any() and _covers_screened(q, s, region)
        down = not (t0 < tq_low[:n]).any() and _covers_screened(s, q, region)
        out.append((up, down))
    return out


def is_future_of(s1: Lcsh, s0: Lcsh) -> bool:
    """True iff s1 >= s0 at every probe point and s1 > s0 at one, both
    within EPS_GEOM: s1 covers s0 and not the other way (see ``compare``).  Raises
    ``ConfigurationError`` for surfaces of different spatial dimension or
    speed of light."""
    up, down = compare(s1, s0)
    return up and not down
