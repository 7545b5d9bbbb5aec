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
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

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


@dataclass(frozen=True)
class Event:
    """A spacetime point (t, x) in d spatial dimensions, d in {1, 2, 3}."""

    t: float
    x: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        if not 1 <= len(self.x) <= 3:
            raise ConfigurationError(
                f"spatial dimension must be 1, 2 or 3, got {len(self.x)}"
            )

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


def check_speed_of_light(c: float) -> None:
    """Raise ``ConfigurationError`` unless c is positive and finite."""
    if not (math.isfinite(c) and c > 0):
        raise ConfigurationError(f"speed of light must be positive and finite, got {c}")


def blc_time(apex: Event, x: tuple[float, ...], c: float = 1.0) -> float:
    """Time at which the backward light cone of ``apex`` passes over x."""
    if len(x) != apex.dim:
        raise ConfigurationError(
            f"query point dimension {len(x)} != apex dimension {apex.dim}"
        )
    r = math.sqrt(sum((a - b) ** 2 for a, b in zip(apex.x, x)))
    return apex.t - r / c


@dataclass(frozen=True)
class Lcsh:
    """A light-cone spacelike hypersurface: the upper envelope of the
    backward light cones of ``apexes`` over the flat surface t = t0.

    t0 = -inf gives the pure cone envelope.
    """

    t0: float = MINUS_INFINITY
    apexes: tuple[Event, ...] = ()
    c: float = 1.0

    def __post_init__(self):
        check_speed_of_light(self.c)
        dims = {a.dim for a in self.apexes}
        if len(dims) > 1:
            raise ConfigurationError(f"apexes have mixed dimensions {sorted(dims)}")

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
    """Pointwise height of the envelope at spatial point x (may be -inf)."""
    t = s.t0
    for apex in s.apexes:
        t = max(t, blc_time(apex, x, s.c))
    return t


def surface_times(s: Lcsh, xs: np.ndarray) -> np.ndarray:
    """Vectorized ``surface_time`` over an (n, d) array of spatial points."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    t = np.full(xs.shape[0], s.t0)
    if s.apexes:
        d = xs[:, None, :] - s.apex_points
        r = np.sqrt(np.multiply(d, d, out=d).sum(axis=2))  # np.linalg.norm, without its copies
        t = np.maximum(t, (s.apex_times - r / s.c).max(axis=1))
    return t


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
    return replace(s, apexes=s.apexes + (apex,))


def event_side_of_surface(e: Event, s: Lcsh) -> SurfaceSide:
    """Which side of the surface an event lies on, with On within EPS_GEOM."""
    t = surface_time(s, e.x)
    if abs(e.t - t) <= EPS_GEOM:
        return SurfaceSide.ON
    return SurfaceSide.PAST if e.t < t else SurfaceSide.FUTURE


def _bounding_region(surfaces: tuple[Lcsh, ...]) -> Region:
    """Default comparison region: the bounding box of all apex positions,
    padded by 1 + c * (apex time span); ((-1, 1),) * d without apexes."""
    shaped = [s for s in surfaces if s.apexes]
    if not shaped:
        return ((-1.0, 1.0),)
    pts = np.concatenate([s.apex_points for s in shaped])
    ts = np.concatenate([s.apex_times for s in shaped])
    pad = 1.0 + (ts.max() - ts.min()) * max(s.c for s in surfaces)
    return tuple((pts[:, k].min() - pad, pts[:, k].max() + pad) for k in range(pts.shape[1]))


def probe_points(
    surfaces: tuple[Lcsh, ...],
    region: Region | None = None,
    points_per_axis: int = 64,
) -> np.ndarray:
    """Probe grid for surface comparisons: a regular grid over ``region``
    (default: ``_bounding_region``) plus all apex spatial projections.
    Two points per axis give the region's corners."""
    if region is None:
        region = _bounding_region(surfaces)
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
        far = np.where(np.abs(lo - a) > np.abs(hi - a), lo, hi)
        if np.any(s1.apex_times - np.linalg.norm(far - a, axis=1) / s1.c >= floor):
            return True
    xs = probe_points((s1, s0), region)
    for start in range(0, len(xs), GRID_SLAB):
        slab = xs[start:start + GRID_SLAB]
        if not np.all(surface_times(s1, slab) >= surface_times(s0, slab) - EPS_GEOM):
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
    speed of light.
    """
    _check_comparable((s1, s0), region)
    if region is None:
        region = _bounding_region((s1, s0))
    xs = probe_points((s1, s0), region, 2)
    t1, t0 = surface_times(s1, xs), surface_times(s0, xs)
    up = not np.any(t1 < t0 - EPS_GEOM) and _covers_screened(s1, s0, region)
    down = not np.any(t0 < t1 - EPS_GEOM) and _covers_screened(s0, s1, region)
    return up, down


def is_future_of(s1: Lcsh, s0: Lcsh, region: Region | None = None) -> bool:
    """True iff s1 >= s0 at every probe point and s1 > s0 at one, both
    within EPS_GEOM: s1 covers s0 and not the other way (see ``compare``).  Raises
    ``ConfigurationError`` for surfaces of different spatial dimension or
    speed of light."""
    up, down = compare(s1, s0, region)
    return up and not down


def achronality_violation(
    s: Lcsh,
    rng: np.random.Generator,
    n_pairs: int = 10_000,
    region: Region | None = None,
) -> float:
    """Max interval over random point pairs sampled on the surface.

    Points where the surface is still at t0 = -inf are excluded: the
    formal limit surface is flat there and trivially achronal.
    """
    dim = s.dim or 1
    if region is None:
        region = _bounding_region((s,))
    lo = np.array([r[0] for r in region])
    hi = np.array([r[1] for r in region])
    xs = lo + rng.random((2 * n_pairs, dim)) * (hi - lo)
    ts = surface_times(s, xs)
    finite = np.isfinite(ts)
    xs, ts = xs[finite], ts[finite]
    half = len(xs) // 2
    if half == 0:
        return -math.inf
    a, b = slice(0, half), slice(half, 2 * half)
    dx2 = np.sum((xs[a] - xs[b]) ** 2, axis=1)
    vals = s.c**2 * (ts[a] - ts[b]) ** 2 - dx2
    return float(vals.max())
