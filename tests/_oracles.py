"""Independent dense-matrix oracles used by the test suite.

Everything here works on explicit Kronecker-product matrices with
hand-rolled subsystem embedding (by basis index, or as a sum of
``np.kron`` products), so it shares no tensor-manipulation code with the
package under test.  Surface
comparisons are the brute-force 64^d probe-grid evaluation that
``geometry.compare`` must reproduce.

``states_close``, ``schmidt_rank``, ``charge_expectation`` and
``achronality_violation`` are checks that only tests read; they are not part
of the package.  ``read_scenario_whole`` is the scenario-file reader the
program's fast amplitude pass must agree with, and ``dense_split`` the
dense-tensor register factoring its loaded states must equal.
"""

import itertools
import json
import math
from functools import reduce
from unittest import mock

import numpy as np

from psvsim import geometry, serialization
from psvsim.geometry import EPS_GEOM, Region, _bounding_region, probe_points, surface_times
from psvsim.errors import ConfigurationError
from psvsim.hilbert import EPS_OP, StateVector, SubsystemKind, phase_canonical


def embed(op: np.ndarray, positions: list[int], dims: list[int]) -> np.ndarray:
    """Embed an operator acting on the listed subsystem positions into the
    full product space, identity elsewhere.  Brute force by basis index:
    entry (i, j) is op[sub(i), sub(j)] when i and j agree on every other
    subsystem, else 0."""
    n = math.prod(dims)
    digits = np.array(list(itertools.product(*(range(d) for d in dims)))).reshape(n, len(dims))
    rest = [k for k in range(len(dims)) if k not in positions]
    sub = np.ravel_multi_index(digits[:, positions].T, [dims[p] for p in positions])
    other = np.ravel_multi_index(digits[:, rest].T, [dims[p] for p in rest]) if rest \
        else np.zeros(n, dtype=int)
    return np.where(other[:, None] == other[None, :], op[sub[:, None], sub[None, :]], 0)


def kron_embed(op: np.ndarray, positions: list[int], dims: list[int]) -> np.ndarray:
    """``embed`` from Kronecker products alone.  op is the sum of
    op[a, b] |i><j| over basis configurations i (row a) and j (column b)
    of the listed positions, in their listed order; each term is the
    ``np.kron`` product of the matrix unit |i_k><j_k| at each listed
    position and the identity at every other one."""
    configs = list(itertools.product(*(range(dims[p]) for p in positions)))
    full = np.zeros((math.prod(dims),) * 2, dtype=complex)
    for (a, i), (b, j) in itertools.product(enumerate(configs), repeat=2):
        factors = [np.eye(d) for d in dims]
        for p, ik, jk in zip(positions, i, j):
            factors[p] = np.zeros((dims[p], dims[p]))
            factors[p][ik, jk] = 1.0
        full += op[a, b] * reduce(np.kron, factors)
    return full


def spinor(theta: float, phi: float, sign: int) -> np.ndarray:
    half = theta / 2.0
    if sign > 0:
        return np.array([math.cos(half), np.exp(1j * phi) * math.sin(half)])
    return np.array([-np.exp(-1j * phi) * math.sin(half), math.cos(half)])


def proj(theta: float, phi: float, sign: int) -> np.ndarray:
    v = spinor(theta, phi, sign)
    return np.outer(v, v.conj())


def singlet_vector(theta: float = 0.0, phi: float = 0.0) -> np.ndarray:
    """(|k- k+> - |k+ k->)/sqrt(2) as a 4-vector."""
    plus = spinor(theta, phi, +1)
    minus = spinor(theta, phi, -1)
    return (np.kron(minus, plus) - np.kron(plus, minus)) / math.sqrt(2.0)


def copy_gate(theta: float, phi: float) -> np.ndarray:
    """Controlled flip in the rotated basis: |k s>|k+> -> |k s>|k s>."""
    r = np.column_stack([spinor(theta, phi, +1), spinor(theta, phi, -1)])
    cnot = np.eye(4, dtype=complex)
    cnot[[2, 3]] = cnot[[3, 2]]
    rr = np.kron(r, r)
    return rr @ cnot @ rr.conj().T


def singlet_joint(axis_a, axis_b) -> dict[tuple[str, str], float]:
    """Sequential-projection joint distribution for the bare singlet."""
    psi = singlet_vector()
    dims = [2, 2]
    out = {}
    for sa, siga in (("+", +1), ("-", -1)):
        pa = embed(proj(axis_a.theta, axis_a.phi, siga), [0], dims)
        for sb, sigb in (("+", +1), ("-", -1)):
            pb = embed(proj(axis_b.theta, axis_b.phi, sigb), [1], dims)
            v = pb @ pa @ psi
            p = float(np.vdot(v, v).real)
            if p > 1e-15:
                out[(sa, sb)] = p
    return out


def singlet_copies_conditional(axis_a, axis_b, copy_basis) -> float:
    """P(C = '--' | A = +, B = +) on the singlet with copy devices,
    final detector axes (axis_b on c1, axis_a on c2)."""
    dims = [2, 2, 2, 2]  # a, b, c1, c2
    ready = spinor(copy_basis.theta, copy_basis.phi, +1)
    psi = np.kron(np.kron(singlet_vector(copy_basis.theta, copy_basis.phi), ready), ready)
    u = copy_gate(copy_basis.theta, copy_basis.phi)
    psi = embed(u, [0, 2], dims) @ psi
    psi = embed(u, [1, 3], dims) @ psi
    pa = embed(proj(axis_a.theta, axis_a.phi, +1), [0], dims)
    pb = embed(proj(axis_b.theta, axis_b.phi, +1), [1], dims)
    v = pb @ pa @ psi
    denom = float(np.vdot(v, v).real)
    pc = embed(proj(axis_b.theta, axis_b.phi, -1), [2], dims) @ \
        embed(proj(axis_a.theta, axis_a.phi, -1), [3], dims)
    w = pc @ v
    return float(np.vdot(w, w).real) / denom


def ghz_joint(axes) -> dict[tuple[str, str, str], float]:
    dims = [2, 2, 2]
    psi = np.zeros(8, dtype=complex)
    psi[0] = 1 / math.sqrt(2.0)
    psi[7] = -1 / math.sqrt(2.0)
    out = {}
    for combo in itertools.product(("+", "-"), repeat=3):
        v = psi
        for k, s in enumerate(combo):
            v = embed(proj(axes[k].theta, axes[k].phi, +1 if s == "+" else -1),
                      [k], dims) @ v
        p = float(np.vdot(v, v).real)
        if p > 1e-15:
            out[combo] = p
    return out


def replay(psi: np.ndarray, steps, final_ops=()):
    """Sequential replay of one branch on the full space.  Each step is
    (ops, projector, shift), all full-space matrices: the ops apply in
    order, then the projector, renormalization and the register shift.
    Returns the Born probability of each step, the states before and after
    each step, and the state after ``final_ops`` (None once a step has
    probability 0)."""
    probs, before, after = [], [], []
    for ops, projector, shift in steps:
        for u in ops:
            psi = u @ psi
        before.append(psi)
        v = projector @ psi
        p = float(np.vdot(v, v).real)
        probs.append(p)
        if p <= 1e-15:
            return probs, before, after, None
        psi = shift @ (v / math.sqrt(p))
        after.append(psi)
    for u in final_ops:
        psi = u @ psi
    return probs, before, after, psi


def surface_times_by_apex(s, xs):
    """``surface_times`` one backward cone at a time, as a pointwise max."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    t = np.full(xs.shape[0], s.t0)
    for apex in s.apexes:
        r = np.linalg.norm(xs - np.asarray(apex.x), axis=1)
        t = np.maximum(t, apex.t - r / s.c)
    return t


def _grid(s1, s0, region):
    """The 64^d probe grid plus apex projections of the pair, over
    ``region`` or, if None, the pair's default region."""
    return probe_points((s0, s1), _bounding_region((s0, s1)) if region is None else region, 64)


def grid_covers(s1, s0, region=None):
    """s1 >= s0 - EPS_GEOM at every point of the 64^d probe grid (plus apex
    projections) of the pair."""
    xs = _grid(s1, s0, region)
    return bool(np.all(surface_times(s1, xs) >= surface_times(s0, xs) - EPS_GEOM))


def grid_compare(s1, s0, region=None):
    """The two-way comparison on the probe grid: (grid_covers(s1, s0),
    grid_covers(s0, s1)), from one evaluation of each surface (both
    directions probe the same points)."""
    xs = _grid(s1, s0, region)
    t1, t0 = surface_times(s1, xs), surface_times(s0, xs)
    return bool(np.all(t1 >= t0 - EPS_GEOM)), bool(np.all(t0 >= t1 - EPS_GEOM))


def grid_is_future_of(s1, s0, region=None):
    """s1 >= s0 at every probe-grid point and s1 > s0 at one, within
    EPS_GEOM."""
    xs = _grid(s1, s0, region)
    t1 = surface_times(s1, xs)
    t0 = surface_times(s0, xs)
    if not np.all(t1 >= t0 - EPS_GEOM):
        return False
    return bool(np.any(t1 > t0 + EPS_GEOM))


def probe_grid_sizes(fn, *args):
    """fn(*args) and the points_per_axis of every ``geometry.probe_points``
    call it made."""
    sizes = []

    def spy(surfaces, region, points_per_axis=64):
        sizes.append(points_per_axis)
        return probe_points(surfaces, region, points_per_axis)

    with mock.patch.object(geometry, "probe_points", spy):
        return fn(*args), sizes


def charge_expectation(state: StateVector, charged_modes: tuple[str, ...]) -> float:
    """Total expected occupation over the designated charged modes
    (weight 1 each)."""
    probs = np.abs(state.amplitudes.reshape(state.dims)) ** 2
    total = 0.0
    for label in charged_modes:
        axis = state.axis_of(label)
        other = tuple(i for i in range(len(state.dims)) if i != axis)
        marginal = probs.sum(axis=other)
        total += float(np.dot(marginal, np.arange(len(marginal))))
    return total


def schmidt_rank(state: StateVector, labels: tuple[str, ...], tol: float = 1e-9) -> int:
    """Schmidt rank across the (labels | rest) cut."""
    axes = [state.axis_of(l) for l in labels]
    dims = state.dims
    psi = np.moveaxis(state.amplitudes.reshape(dims), axes, range(len(axes)))
    block = math.prod(dims[a] for a in axes)
    svals = np.linalg.svd(psi.reshape(block, -1), compute_uv=False)
    return int(np.sum(svals > tol))


def states_close(a: StateVector, b: StateVector, tol: float = 1e-10) -> bool:
    """Equality up to global phase (after canonicalization)."""
    if a.labels != b.labels or a.dims != b.dims:
        return False
    pa = phase_canonical(a).amplitudes
    pb = phase_canonical(b).amplitudes
    return bool(np.abs(pa - pb).max() <= tol)


def achronality_violation(
    s: geometry.Lcsh,
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


def read_scenario_whole(fh):
    """A scenario file read the plain way, a stand-in for
    ``cli._read_scenario``: the file opened again in text mode, the whole
    text through ``json.load``, every [re, im] pair a Python list, then
    ``serialization.scenario_from_dict``."""
    with open(fh.name, encoding="utf-8") as text:
        return serialization.scenario_from_dict(json.load(text))


def dense_split(state: StateVector) -> tuple[np.ndarray, dict[str, int]]:
    """Every register factored out of a full state on its dense tensor:
    the core amplitudes (a view of the tensor) and each register's basis
    index.  Each register must sit in one basis state: every amplitude off
    the slice through the largest one is at most ``EPS_OP``, or
    ``ConfigurationError`` names the first register on which the largest
    amplitude off the slice differs."""
    psi = state.amplitudes.reshape(state.dims)
    mags = np.abs(psi)
    peak = np.unravel_index(int(np.argmax(mags)), psi.shape)
    is_reg = [sub.kind is SubsystemKind.REGISTER for sub in state.subsystems]
    index = tuple(int(k) if r else slice(None) for r, k in zip(is_reg, peak))
    mags[index] = 0.0
    if mags.max() > EPS_OP:
        off = np.unravel_index(int(np.argmax(mags)), psi.shape)
        label = next(sub.label for sub, r, i, k in zip(state.subsystems, is_reg, off, peak)
                     if r and i != k)
        raise ConfigurationError(f"register {label!r} is not in a single basis state")
    registers = {sub.label: int(k) for sub, r, k in zip(state.subsystems, is_reg, peak) if r}
    return psi[index].reshape(-1), registers
