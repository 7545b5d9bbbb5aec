"""Independent oracles used by the test suite.

The closed-form distributions are those of ``perfbench/reference.py``
(numpy only), loaded by file path as ``reference``.  Everything else here
works on explicit Kronecker-product matrices with hand-rolled subsystem
embedding (by basis index, or as a sum of ``np.kron`` products), so it
shares no tensor-manipulation code with the package under test.  Surface
comparisons are the brute-force 64^d probe-grid evaluation that
``geometry.compare`` must reproduce, on a grid built here.

``states_close``, ``schmidt_rank``, ``charge_expectation`` and
``achronality_violation`` are checks that only tests read; they are not part
of the package.  ``read_scenario_whole`` is the scenario-file reader the
program's fast amplitude pass must agree with, and ``dense_split`` the
dense-tensor register factoring its loaded states must equal.
``causal_files`` draws scenario files that keep, or break, the rule that
each subsystem has one causal history; ``valid_orders`` and
``time_ordered_distribution`` are what every accepted one must give.
"""

import importlib.util
import itertools
import json
import math
from functools import reduce
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import strategies as st

from psvsim import geometry, serialization
from psvsim.geometry import EPS_GEOM, Region
from psvsim.errors import ConfigurationError
from psvsim.hilbert import EPS_OP, StateVector, SubsystemKind


_spec = importlib.util.spec_from_file_location(
    "perfbench_reference", Path(__file__).resolve().parents[1] / "perfbench" / "reference.py")
#: ``perfbench/reference.py``, whose closed forms take each axis as (theta, phi).
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


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


def default_region(surfaces) -> Region:
    """``compare``'s default region, as its docstring defines it: the box
    around every apex position, padded by 1 + c * (apex time span), c the
    largest speed of light; the 1-d (-1, 1) without apexes."""
    apexes = [a for s in surfaces for a in s.apexes]
    if not apexes:
        return ((-1.0, 1.0),)
    pad = 1.0 + (max(a.t for a in apexes) - min(a.t for a in apexes)) * max(s.c for s in surfaces)
    return tuple((min(x) - pad, max(x) + pad) for x in zip(*(a.x for a in apexes)))


def _grid(s1, s0, region):
    """The 64^d probe grid plus apex projections of the pair, over
    ``region`` or, if None, the pair's default region."""
    region = default_region((s0, s1)) if region is None else region
    axes = np.meshgrid(*(np.linspace(lo, hi, 64) for lo, hi in region), indexing="ij")
    apexes = [a.x for s in (s0, s1) for a in s.apexes]
    return np.concatenate([np.stack(axes, axis=-1).reshape(-1, len(region)),
                           np.array(apexes, dtype=float).reshape(-1, len(region))])


def grid_covers(s1, s0, region=None):
    """s1 >= s0 - EPS_GEOM at every point of the 64^d probe grid (plus apex
    projections) of the pair."""
    return grid_compare(s1, s0, region)[0]


def grid_compare(s1, s0, region=None):
    """The two-way comparison on the probe grid, (s1 covers s0, s0 covers
    s1), from one evaluation of each surface."""
    xs = _grid(s1, s0, region)
    t1, t0 = surface_times_by_apex(s1, xs), surface_times_by_apex(s0, xs)
    return bool(np.all(t1 >= t0 - EPS_GEOM)), bool(np.all(t0 >= t1 - EPS_GEOM))


def grid_is_future_of(s1, s0, region=None):
    """s1 >= s0 at every probe-grid point and s1 > s0 at one, within
    EPS_GEOM: s1 covers s0 and not the other way."""
    up, down = grid_compare(s1, s0, region)
    return up and not down


def probe_grid_sizes(fn, *args):
    """fn(*args) and the points_per_axis of every ``geometry.probe_points``
    call it made."""
    sizes, probe_points = [], geometry.probe_points

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
    """Equality up to a global phase: each state is turned so that its
    amplitude at a's largest modulus is real and positive."""
    if a.labels != b.labels or a.dims != b.dims:
        return False
    k = int(np.argmax(np.abs(a.amplitudes)))
    pa, pb = (v.amplitudes * (abs(v.amplitudes[k]) / v.amplitudes[k] if v.amplitudes[k] else 1.0)
              for v in (a, b))
    return bool(np.abs(pa - pb).max() <= tol)


def achronality_violation(s: geometry.Lcsh, rng: np.random.Generator, n_pairs: int = 10_000) -> float:
    """Max interval over random point pairs sampled on the surface, over
    its default region.

    Points where the surface is still at t0 = -inf are excluded: the
    formal limit surface is flat there and trivially achronal.
    """
    lo, hi = np.array(default_region((s,))).T
    xs = lo + rng.random((2 * n_pairs, len(lo))) * (hi - lo)
    ts = surface_times_by_apex(s, xs)
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


def _pairs(a) -> list:
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _complex(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


@st.composite
def causal_files(draw, broken=False):
    """A scenario file of 2-4 spins in d = 1 at c = 1: 2-4 detectors with
    random rank-1 projectors and 0-2 random one-spin unitaries, each on a
    drawn spin, and a random entangled initial state.  The events on each
    spin lie on a random timelike chain, in random order, at integer
    coordinates.  With ``broken``, the first two events share a spin and
    one event of that spin's chain is moved: spacelike to another of it,
    or lightlike where no convention orders the pair (two detectors, or a
    detector before an interaction).  Then the draw is (file, the moved
    event's name, its spin)."""
    n = draw(st.integers(2, 4))
    kinds = ["D"] * draw(st.integers(2, 4)) + ["U"] * draw(st.integers(0, 2))
    spin_of = [draw(st.integers(0, n - 1)) for _ in kinds]
    if broken:
        spin_of[1] = spin_of[0]
    at = {}
    for spin in range(n):
        t, x = draw(st.integers(0, 4)), draw(st.integers(-8, 8))
        for k in draw(st.permutations([k for k, s in enumerate(spin_of) if s == spin])):
            at[k] = (t, x)
            dt = draw(st.integers(1, 3))
            t, x = t + dt, x + draw(st.integers(1 - dt, dt - 1))
    if broken:
        moved, anchor = draw(st.permutations([k for k, s in enumerate(spin_of) if s == spin_of[0]]))[:2]
        (t, x), pair = at[anchor], kinds[moved] + kinds[anchor]
        if pair == "UU" or draw(st.booleans()):  # spacelike
            dt = draw(st.integers(-2, 2))
            dx = abs(dt) + draw(st.integers(1, 3))
        else:  # lightlike, with the interaction, if any, later
            dt = dx = draw(st.integers(1, 3))
            dt *= {"UD": 1, "DU": -1}.get(pair) or draw(st.sampled_from((-1, 1)))
        at[moved] = (t + dt, x + dx * draw(st.sampled_from((-1, 1))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gauss = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
    detectors, interactions = [], []
    for k, (kind, spin) in enumerate(zip(kinds, spin_of)):
        where = {"t": at[k][0], "x": [at[k][1]]}
        if kind == "U":
            interactions.append({"name": f"U{k}", "at": where, "subsystems": [f"s{spin}"],
                                 "unitary": _pairs(np.linalg.qr(gauss(2, 2))[0])})
            continue
        v = gauss(2)
        plus = np.outer(v, v.conj()) / np.vdot(v, v).real
        detectors.append({"label": f"D{k}", "at": where, "register": f"R{k}", "absorbing": False,
                          "targets": [f"s{spin}"], "projectors": [
                              {"label": "+", "matrix": _pairs(plus), "pointer": 1},
                              {"label": "-", "matrix": _pairs(np.eye(2) - plus), "pointer": 2}]})
    subsystems = ([{"label": f"s{k}", "dim": 2, "kind": "spin"} for k in range(n)]
                  + [{"label": d["register"], "dim": 3, "kind": "register"} for d in detectors])
    psi = gauss(2**n)
    ready = np.zeros(3 ** len(detectors))
    ready[0] = 1.0
    blob = {"dim": 1, "c": 1.0, "subsystems": subsystems,
            "initial_state": {"subsystems": subsystems,
                              "amplitudes": _pairs(np.kron(psi / np.linalg.norm(psi), ready))},
            "initial_surface": {"t0": "minus_infinity"},
            "interactions": interactions, "detectors": detectors}
    if broken:
        return blob, f"{kinds[moved]}{moved}", f"s{spin_of[0]}"
    return blob


def valid_orders(blob) -> list[tuple[str, ...]]:
    """The detector orders of a ``causal_files`` file that reduce every
    timelike pair in time order, in ``itertools.permutations`` order."""
    def ordered(a, b):
        dt, dx = b["at"]["t"] - a["at"]["t"], b["at"]["x"][0] - a["at"]["x"][0]
        return dt * dt <= dx * dx or dt > 0
    return [tuple(d["label"] for d in p) for p in itertools.permutations(blob["detectors"])
            if all(ordered(a, b) for a, b in itertools.combinations(p, 2))]


def time_ordered_distribution(blob) -> dict[tuple[str, ...], float]:
    """The joint outcome distribution of a ``causal_files`` file, keyed in
    detector order, on the spins alone: each branch applies every event in
    time order (a spin's events lie on a timelike chain, and events on
    other spins commute with them) as a full-space matrix on the spins."""
    spins = [sub["label"] for sub in blob["subsystems"] if sub["kind"] == "spin"]
    dims = [2] * len(spins)
    psi = _complex(blob["initial_state"]["amplitudes"]).reshape(2 ** len(spins), -1)[:, 0]
    events = sorted(blob["interactions"] + blob["detectors"], key=lambda ev: ev["at"]["t"])
    labels = [d["label"] for d in blob["detectors"]]
    out = {}
    for key in itertools.product(*[[p["label"] for p in d["projectors"]] for d in blob["detectors"]]):
        chosen = dict(zip(labels, key))
        v = psi
        for ev in events:
            if "unitary" in ev:
                op, target = _complex(ev["unitary"]), ev["subsystems"][0]
            else:
                op = next(_complex(p["matrix"]) for p in ev["projectors"]
                          if p["label"] == chosen[ev["label"]])
                target = ev["targets"][0]
            v = embed(op, [spins.index(target)], dims) @ v
        out[key] = float(np.vdot(v, v).real)
    return out
