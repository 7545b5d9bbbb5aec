"""Independent reference answers and output checks.

Nothing here imports psvsim: the probabilities come from closed forms and
the query states from a small dense state-vector model written against the
scenario descriptions that ``inputs`` generates (or, for the built-in
``split``, against its documented default layout).  A failed check raises
``CheckError``; the harness counts it as a failed op.
"""

from __future__ import annotations

import itertools
import json
import math
import xml.etree.ElementTree as ET

import numpy as np

#: Exact results are compared to this absolute tolerance.
TOL = 1e-9
#: Sampled frequencies may sit this many binomial standard deviations (plus
#: one count of slack for tiny probabilities) from the exact value.  The
#: check never pins a count table, so a change of sampling stream passes.
SAMPLE_SIGMAS = 6.0

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


class CheckError(Exception):
    """An op's output disagrees with the reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# --- spin algebra -----------------------------------------------------------

def bloch(theta: float, phi: float) -> np.ndarray:
    return np.array([math.sin(theta) * math.cos(phi),
                     math.sin(theta) * math.sin(phi),
                     math.cos(theta)])


def spin_projector(axis: tuple[float, float], sign: str) -> np.ndarray:
    """(I + s n.sigma)/2 for outcome s = '+' or '-' along axis (theta, phi)."""
    n = bloch(*axis)
    s = 1.0 if sign == "+" else -1.0
    return 0.5 * (np.eye(2) + s * sum(c * m for c, m in zip(n, _SIGMA)))


def eigenvector(axis: tuple[float, float], sign: str) -> np.ndarray:
    w, v = np.linalg.eigh(spin_projector(axis, sign))
    return v[:, int(np.argmax(w))]


# --- closed-form distributions ----------------------------------------------

def ghz_distribution(axes: list[tuple[float, float]]) -> dict[tuple[str, ...], float]:
    """(|0..0> - |1..1>)/sqrt2 measured along ``axes``:
    p = |prod <a_k|0> - prod <a_k|1>|^2 / 2."""
    out = {}
    for signs in itertools.product("+-", repeat=len(axes)):
        vecs = [eigenvector(ax, s) for ax, s in zip(axes, signs)]
        amp = math.prod(v[0].conjugate() for v in vecs) - math.prod(v[1].conjugate() for v in vecs)
        out[signs] = abs(amp) ** 2 / 2.0
    return out


def singlet_distribution(axis_a, axis_b) -> dict[tuple[str, ...], float]:
    """p(s_a, s_b) = (1 - s_a s_b cos theta_ab) / 4."""
    cos_ab = float(bloch(*axis_a) @ bloch(*axis_b))
    return {(sa, sb): (1.0 - (1 if sa == sb else -1) * cos_ab) / 4.0
            for sa in "+-" for sb in "+-"}


def singlet_copies_distribution(axis_a, axis_b, copy_basis) -> dict[tuple[str, ...], float]:
    """Singlet with spin-copy devices: the copies duplicate a and b in the
    copy basis, then A, B measure a, b along their axes and C measures
    (c1, c2) along (axis_b, axis_a)."""
    kp, km = eigenvector(copy_basis, "+"), eigenvector(copy_basis, "-")
    kron = lambda *vs: _kron_all(vs)
    psi = (kron(km, kp, km, kp) - kron(kp, km, kp, km)) / math.sqrt(2.0)
    out = {}
    for sa, sb, s1, s2 in itertools.product("+-", repeat=4):
        op = _kron_all([spin_projector(axis_a, sa), spin_projector(axis_b, sb),
                        spin_projector(axis_b, s1), spin_projector(axis_a, s2)])
        out[(sa, sb, s1 + s2)] = float(np.linalg.norm(op @ psi) ** 2)
    return out


def split_distribution() -> dict[tuple[str, ...], float]:
    """The split particle: two branches at 1/2 each."""
    return {("hit", "none", "c1"): 0.5, ("none", "hit", "c2"): 0.5}


def hk_psv_conditional(axis_a, axis_b, copy_basis) -> float:
    """Surface-evolution conditional P(C = -- | A = +, B = +)."""
    dist = singlet_copies_distribution(axis_a, axis_b, copy_basis)
    den = sum(p for k, p in dist.items() if k[:2] == ("+", "+"))
    return dist[("+", "+", "--")] / den


def _kron_all(items):
    out = np.array([1.0 + 0j])
    for m in items:
        out = np.kron(out, m)
    return out


# --- output checks ----------------------------------------------------------

def check_distribution(entries: dict[tuple[str, ...], float],
                       expected: dict[tuple[str, ...], float]) -> int:
    """Every reference branch above TOL is present with its probability and
    nothing else is; returns the number of entries."""
    support = {k: p for k, p in expected.items() if p > TOL}
    for key, p in entries.items():
        require(abs(p - expected.get(key, 0.0)) <= TOL,
                f"p{key} = {p!r}, reference {expected.get(key, 0.0)!r}")
    missing = [k for k in support if k not in entries]
    require(not missing, f"branches missing from the output: {missing}")
    require(abs(sum(entries.values()) - 1.0) <= TOL, "probabilities do not sum to 1")
    return len(entries)


def check_counts(counts: dict[tuple[str, ...], int], n: int,
                 expected: dict[tuple[str, ...], float]) -> int:
    """Each frequency within SAMPLE_SIGMAS binomial deviations of the exact
    probability; returns n."""
    require(sum(counts.values()) == n, f"counts sum to {sum(counts.values())}, not {n}")
    for key in set(counts) | set(expected):
        p = expected.get(key, 0.0)
        dev = abs(counts.get(key, 0) - n * p)
        bound = SAMPLE_SIGMAS * math.sqrt(n * p * (1.0 - p)) + 1.0
        require(dev <= bound, f"count of {key} is {counts.get(key, 0)}, "
                              f"expected {n * p:.1f} +- {bound:.1f}")
    return n


def _table(text: str) -> list[list[str]]:
    return [line.split() for line in text.strip().splitlines()]


def parse_dist_output(text: str, as_json: bool) -> dict[tuple[str, ...], float]:
    if as_json:
        d = json.loads(text)
        return {tuple(e["outcomes"]): e["probability"] for e in d["entries"]}
    rows = _table(text)
    require(rows and rows[0][-1] == "probability", "missing distribution header")
    return {tuple(r[:-1]): float(r[-1]) for r in rows[1:]}


def parse_sample_output(text: str, as_json: bool) -> tuple[dict[tuple[str, ...], int], int]:
    if as_json:
        d = json.loads(text)
        return {tuple(e["outcomes"]): e["count"] for e in d["entries"]}, d["n"]
    rows = _table(text)
    n = int(rows[0][2].rstrip(","))
    # Frequencies are printed to 6 significant digits, which recovers each
    # count exactly while n stays below 10^5.
    return {tuple(r[:-1]): round(float(r[-1]) * n) for r in rows[2:]}, n


def check_output(expect: dict, text: str) -> int:
    """Dispatch on the op's reference record; returns the result units
    (distribution entries, draws, or 1 for a single answer)."""
    kind = expect["kind"]
    as_json = expect.get("json", False)
    ref = expect.get("dist", {})
    if kind == "dist":
        entries = parse_dist_output(text, as_json)
        return check_distribution(entries, ref)
    if kind == "sample":
        counts, n = parse_sample_output(text, as_json)
        require(n == expect["n"], f"n = {n}, asked for {expect['n']}")
        return check_counts(counts, n, ref)
    if kind == "orders":
        if as_json:
            d = json.loads(text)
            orders, dev = [tuple(o) for o in d["orders"]], d["max_deviation"]
        else:
            lines = text.strip().splitlines()
            count = int(lines[0].split()[0])
            orders = [tuple(t.strip() for t in l.split(",")) for l in lines[1:1 + count]]
            dev = float(lines[-1].rsplit(":", 1)[1])
        labels = expect["detectors"]
        require(sorted(orders) == sorted(itertools.permutations(labels)),
                f"orders {orders} are not every permutation of {labels}")
        require(abs(dev) <= TOL, f"max_deviation {dev} between valid orders")
        return len(orders)
    if kind == "run":
        if as_json:
            d = json.loads(text)
            outcomes, total = tuple(d["outcomes"]), d["total_probability"]
            steps = math.prod(st["probability"] for st in d["steps"])
            require(abs(steps - total) <= TOL, "step probabilities do not multiply to the total")
            tol = TOL
        else:
            lines = dict(l.split(":", 1) for l in text.strip().splitlines() if ":" in l)
            outcomes = tuple(t.strip() for t in lines["outcomes"].split(","))
            total = float(lines["total probability"])
            tol = 1e-5 * max(total, 1e-300) + 1e-12  # printed to 6 digits
        if expect.get("outcomes"):
            require(outcomes == tuple(expect["outcomes"]),
                    f"outcomes {outcomes} != fixed {expect['outcomes']}")
        require(abs(total - ref.get(outcomes, 0.0)) <= tol,
                f"total probability {total} of {outcomes}, reference {ref.get(outcomes, 0.0)}")
        return 1
    if kind == "compare-hk":
        d = json.loads(text)
        require(abs(d["hk"] - 1.0) <= TOL, f"hk = {d['hk']}, expected 1")
        require(d["psv"] < 1.0 - TOL, f"psv = {d['psv']}, expected < 1")
        require(abs(d["psv"] - expect["psv"]) <= TOL,
                f"psv = {d['psv']}, reference {expect['psv']}")
        return 1
    if kind == "svg":
        root = ET.fromstring(text)
        require(root.tag.endswith("svg"), f"root element {root.tag}")
        texts = {el.text for el in root.iter() if el.tag.endswith("text")}
        missing = [t for t in expect["texts"] if t not in texts]
        require(not missing, f"labels {missing} missing from the diagram")
        return 1
    if kind == "ascii":
        grid = text.rstrip("\n").splitlines()
        require(len(grid) >= 10, "ascii diagram has too few rows")
        missing = [l for l in expect["detectors"] if l not in text]
        require(not missing, f"detectors {missing} missing from the diagram")
        return 1
    raise ValueError(f"unknown check kind {kind!r}")


# --- dense reference model for query states ---------------------------------

class Model:
    """Dense state-vector model of a scenario, independent of psvsim.

    ``subsystems`` is a list of (label, dim); ``initial`` the amplitude
    tensor; ``interactions`` (name, (t, x), targets, unitary);
    ``detectors`` maps a label to (event, targets, {outcome: projector},
    register, {outcome: pointer}, absorbing).
    """

    def __init__(self, subsystems, initial, interactions, detectors, c=1.0):
        self.labels = [l for l, _ in subsystems]
        self.dims = [d for _, d in subsystems]
        self.initial = np.asarray(initial, dtype=complex).reshape(self.dims)
        self.interactions = interactions
        self.detectors = detectors
        self.c = c

    def _apply(self, psi, matrix, targets):
        axes = [self.labels.index(t) for t in targets]
        tdims = [self.dims[a] for a in axes]
        m = np.asarray(matrix).reshape(tdims + tdims)
        out = np.tensordot(m, psi, axes=(list(range(len(axes), 2 * len(axes))), axes))
        return np.moveaxis(out, list(range(len(axes))), axes)

    def _swap0(self, dim, k):
        u = np.eye(dim, dtype=complex)
        u[[0, k]] = u[[k, 0]]
        return u

    def _detect(self, psi, label, outcome):
        _, targets, projs, register, pointers, absorbing = self.detectors[label]
        psi = self._apply(psi, projs[outcome], targets)
        psi = psi / np.linalg.norm(psi)
        rdim = self.dims[self.labels.index(register)]
        if pointers[outcome]:
            psi = self._apply(psi, self._swap0(rdim, pointers[outcome]), [register])
        if absorbing:
            cfg = int(np.argmax(np.diag(projs[outcome]).real))
            if cfg:
                block = math.prod(self.dims[self.labels.index(t)] for t in targets)
                psi = self._apply(psi, self._swap0(block, cfg), targets)
        return psi

    def probability(self, psi, label, outcome):
        _, targets, projs, *_ = self.detectors[label]
        return float(np.vdot(psi, self._apply(psi, projs[outcome], targets)).real)

    def reductions(self, order, outcomes) -> list[bool]:
        """Whether each step of a run is a reduction (no outcome certain)."""
        psi, flags = self.initial, []
        surfaces = self.step_surfaces(order)
        pending = sorted(self.interactions, key=lambda ev: (ev[1][0], ev[0]))
        for label, outcome, surface in zip(order, outcomes, surfaces):
            due = [ev for ev in pending if not self._future(ev[1], surface)]
            pending = [ev for ev in pending if self._future(ev[1], surface)]
            for ev in due:
                psi = self._apply(psi, ev[3], ev[2])
            probs = [self.probability(psi, label, o) for o in self.detectors[label][2]]
            flags.append(max(probs) < 1.0 - 1e-9)
            psi = self._detect(psi, label, outcome)
        return flags

    def step_surfaces(self, order):
        """Post-step surfaces as apex lists (envelopes over t0 = -inf)."""
        apexes, out = [], []
        for label in order:
            apexes = apexes + [self.detectors[label][0]]
            out.append(apexes)
        return out

    def surface_time(self, surface, x) -> float:
        if isinstance(surface, float):
            return surface
        return max(t - math.dist(x, xa) / self.c for t, xa in surface)

    def _future(self, event, surface) -> bool:
        t, x = event
        return t - self.surface_time(surface, x) > 1e-9

    def query_state(self, order, outcomes, query, applied_reductions):
        """State on ``query`` (a flat time or a step surface given as an
        apex list) when exactly the reduction steps in
        ``applied_reductions`` lie in its past; non-reduction detections and
        interactions apply when their event is not in the query's future."""
        flags = self.reductions(order, outcomes)
        surfaces = self.step_surfaces(order)
        psi = self.initial
        pending = sorted(self.interactions, key=lambda ev: (ev[1][0], ev[0]))
        for k, (label, outcome) in enumerate(zip(order, outcomes)):
            due = [ev for ev in pending if not self._future(ev[1], surfaces[k])]
            pending = [ev for ev in pending if self._future(ev[1], surfaces[k])]
            for ev in due:
                if not self._future(ev[1], query):
                    psi = self._apply(psi, ev[3], ev[2])
            if flags[k]:
                if k in applied_reductions:
                    psi = self._detect(psi, label, outcome)
            elif not self._future(self.detectors[label][0], query):
                psi = self._detect(psi, label, outcome)
        for ev in pending:
            if not self._future(ev[1], query):
                psi = self._apply(psi, ev[3], ev[2])
        return psi.reshape(-1)


def check_query(expect: dict, result) -> int:
    """Check a surface-query result: "undefined", a bool from
    ``is_future_of``, or (subsystem labels, amplitudes) of a state."""
    kind = expect["kind"]
    if kind == "undefined":
        require(result == "undefined", "query crossing a reduction surface returned a state")
    elif kind == "future":
        require(result is expect["value"], f"is_future_of returned {result!r}")
    else:
        require(result != "undefined", "query clear of every reduction surface is undefined")
        labels, amps = result
        require(list(labels) == list(expect["labels"]), f"subsystems {labels}")
        want = expect["state"]
        require(amps.size == want.size, "state has the wrong size")
        require(abs(np.linalg.norm(amps) - 1.0) <= TOL, "state is not normalized")
        fid = abs(np.vdot(want, amps)) ** 2
        require(fid >= 1.0 - TOL, f"state fidelity {fid} with the reference")
    return 1


def ghz_model(axes, events, c=1.0) -> Model:
    """GHZ-N on spins s0.. with dimension-3 registers R0.. (pointer 1 for
    '+', 2 for '-'), matching ``inputs.ghz_scenario``."""
    n = len(axes)
    subsystems = [(f"s{k}", 2) for k in range(n)] + [(f"R{k}", 3) for k in range(n)]
    psi = np.zeros([2] * n + [3] * n, dtype=complex)
    psi[(0,) * n + (0,) * n] = 1 / math.sqrt(2.0)
    psi[(1,) * n + (0,) * n] = -1 / math.sqrt(2.0)
    detectors = {
        f"D{k}": (events[k], [f"s{k}"],
                  {s: spin_projector(axes[k], s) for s in "+-"},
                  f"R{k}", {"+": 1, "-": 2}, False)
        for k in range(n)
    }
    return Model(subsystems, psi, [], detectors, c)


#: The built-in split scenario's documented default layout (1+1 d, c = 1).
SPLIT_EVENTS = {"A": (3.0, (-4.0,)), "B": (3.0, (4.0,)), "C": (4.0, (0.0,)),
                "AA1": (1.0, (-2.0,)), "AA2": (1.0, (2.0,))}


def split_model() -> Model:
    subsystems = [("a", 2), ("b", 2), ("c1", 2), ("c2", 2), ("RA", 2), ("RB", 2), ("RC", 4)]
    psi = np.zeros([d for _, d in subsystems], dtype=complex)
    psi[1, 0, 0, 0, 0, 0, 0] = psi[0, 1, 0, 0, 0, 0, 0] = 1 / math.sqrt(2.0)
    copy = np.eye(4, dtype=complex)
    copy[[2, 3]] = copy[[3, 2]]
    interactions = [("AA1 copy", SPLIT_EVENTS["AA1"], ["a", "c1"], copy),
                    ("AA2 copy", SPLIT_EVENTS["AA2"], ["b", "c2"], copy)]
    occ = {"none": np.diag([1.0, 0.0]).astype(complex), "hit": np.diag([0.0, 1.0]).astype(complex)}
    cfg = {}
    for name, k in (("none", 0), ("c1", 2), ("c2", 1), ("both", 3)):
        p = np.zeros((4, 4), dtype=complex)
        p[k, k] = 1.0
        cfg[name] = p
    detectors = {
        "A": (SPLIT_EVENTS["A"], ["a"], occ, "RA", {"none": 0, "hit": 1}, True),
        "B": (SPLIT_EVENTS["B"], ["b"], occ, "RB", {"none": 0, "hit": 1}, True),
        "C": (SPLIT_EVENTS["C"], ["c1", "c2"], cfg, "RC",
              {"none": 0, "c1": 1, "c2": 2, "both": 3}, True),
    }
    return Model(subsystems, psi, interactions, detectors)
