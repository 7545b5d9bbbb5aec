"""Independent dense-matrix oracles used by the test suite.

Everything here works on explicit Kronecker-product matrices with
hand-rolled subsystem embedding (by basis index, or as a sum of
``np.kron`` products), so it shares no tensor-manipulation code with the
package under test.  Surface
comparisons are the brute-force 64^d probe-grid evaluation that
``geometry.compare`` must reproduce.
"""

import itertools
import math
from functools import reduce
from unittest import mock

import numpy as np

from psvsim import geometry
from psvsim.geometry import EPS_GEOM, probe_points, surface_times


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


def grid_covers(s1, s0, region=None):
    """s1 >= s0 - EPS_GEOM at every point of the 64^d probe grid (plus apex
    projections) of the pair."""
    xs = probe_points((s0, s1), region, 64)
    return bool(np.all(surface_times(s1, xs) >= surface_times(s0, xs) - EPS_GEOM))


def grid_compare(s1, s0, region=None):
    """The two-way comparison on the probe grid: (grid_covers(s1, s0),
    grid_covers(s0, s1))."""
    return grid_covers(s1, s0, region), grid_covers(s0, s1, region)


def grid_is_future_of(s1, s0, region=None):
    """s1 >= s0 at every probe-grid point and s1 > s0 at one, within
    EPS_GEOM."""
    xs = probe_points((s0, s1), region, 64)
    t1 = surface_times(s1, xs)
    t0 = surface_times(s0, xs)
    if not np.all(t1 >= t0 - EPS_GEOM):
        return False
    return bool(np.any(t1 > t0 + EPS_GEOM))


def probe_grid_sizes(fn, *args):
    """fn(*args) and the points_per_axis of every ``geometry.probe_points``
    call it made."""
    sizes = []

    def spy(surfaces, region=None, points_per_axis=64):
        sizes.append(points_per_axis)
        return probe_points(surfaces, region, points_per_axis)

    with mock.patch.object(geometry, "probe_points", spy):
        return fn(*args), sizes
