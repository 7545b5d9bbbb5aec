"""Reduction-order evolution engine.

A scenario is evolved surface by surface: each detector, taken in a chosen
reduction order, adjoins its backward light cone to the current surface,
any interaction unitary that newly entered the surface's past is applied,
and the detector projects the state and shifts its pointer register.
Spacelike-separated detectors may reduce in any order; joint outcome
distributions are order independent because all their projectors act on
disjoint subsystems.

Pointer registers only ever undergo basis permutations, so branch states
carry them as separate basis-state factors (``BranchState``); the full
tensor is built only where a state is observed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from . import geometry, hilbert
from .errors import ConfigurationError
from .geometry import Event, Lcsh, Separation, SurfaceSide
from .hilbert import OutcomeSet, StateVector, SubsystemKind, SubsystemSpec

#: A measurement is classified as a non-reduction when some outcome is
#: certain to within this tolerance (scenarios are exact; this absorbs
#: roundoff only).
EPS_CERT = 1e-9

MAX_DETECTORS_FOR_ENUMERATION = 8
MAX_BRANCHES = 10**6

#: ``sample`` draws its uniforms in chunks of this many, so its memory does
#: not grow with the number of samples.
SAMPLE_CHUNK = 1 << 16


@dataclass(frozen=True)
class InteractionEvent:
    """A unitary anchored at a spacetime point, e.g. an AA copy gate."""

    name: str
    at: Event
    targets: tuple[str, ...]
    unitary: np.ndarray
    gate: dict | None = None  # structured description for serialization

    def __post_init__(self):
        u = np.asarray(self.unitary, dtype=complex)
        n = u.shape[0]
        if u.shape != (n, n) or np.abs(u @ u.conj().T - np.eye(n)).max() > hilbert.EPS_OP:
            raise ConfigurationError(f"interaction {self.name!r} is not unitary")
        u = np.array(u)
        u.flags.writeable = False
        object.__setattr__(self, "unitary", u)


@dataclass(frozen=True)
class DetectorEvent:
    """A local detector: an outcome set on the measured subsystems plus a
    pointer register.  ``pointers`` maps each outcome position to the
    register basis index recording it; index 0 is the ready state, reused
    by null ("nothing happened") outcomes.  Absorbing detectors digest the
    measured subsystems, resetting them to their 0 basis state, so each of
    their projectors must fix one basis configuration (rank 1, diagonal)."""

    label: str
    at: Event
    outcomes: OutcomeSet
    register: str
    absorbing: bool = False
    pointers: tuple[int, ...] = ()

    def __post_init__(self):
        if self.register in self.outcomes.targets:
            raise ConfigurationError(
                f"detector {self.label!r} register must be distinct from its targets"
            )
        if not self.pointers:
            object.__setattr__(
                self, "pointers", tuple(range(1, len(self.outcomes.outcomes) + 1))
            )
        if len(self.pointers) != len(self.outcomes.outcomes):
            raise ConfigurationError(
                f"detector {self.label!r} has {len(self.pointers)} pointers for "
                f"{len(self.outcomes.outcomes)} outcomes"
            )
        for outcome, p in self.outcomes.outcomes if self.absorbing else ():
            diag = np.diag(p).real
            if (np.abs(p - np.diag(diag)).max() > hilbert.EPS_OP
                    or abs(diag.sum() - 1.0) > hilbert.EPS_OP):
                raise ConfigurationError(
                    f"absorbing detector {self.label!r} requires rank-1 basis projectors "
                    f"(outcome {outcome!r} is not one)"
                )

    def pointer_for(self, outcome: str) -> int:
        return self.pointers[self.outcomes.labels.index(outcome)]


@dataclass(frozen=True)
class BranchState:
    """A branch state with its pointer registers kept out of the amplitude
    tensor: ``core`` spans the non-register subsystems, and each register
    is a single-subsystem unit basis vector in ``registers``.

    Exact because registers never entangle: only a detector's pointer
    shift (a basis permutation) acts on them, which ``validate_scenario``
    enforces.  ``materialize`` rebuilds the full tensor in the order of
    ``subsystems`` with the core's phase.
    """

    subsystems: tuple[SubsystemSpec, ...]
    core: StateVector
    registers: dict[str, StateVector]

    @classmethod
    def split(cls, state: StateVector) -> "BranchState":
        """Factor every register out of a full state.  Each register must
        sit in one basis state: every amplitude off the slice through the
        largest one is at most ``EPS_OP``."""
        psi = state.amplitudes.reshape(state.dims)
        mags = np.abs(psi)
        peak = np.unravel_index(int(np.argmax(mags)), psi.shape)
        is_reg = [sub.kind is SubsystemKind.REGISTER for sub in state.subsystems]
        index = tuple(int(k) if r else slice(None) for r, k in zip(is_reg, peak))
        mags[index] = 0.0
        if mags.max() > hilbert.EPS_OP:
            off = np.unravel_index(int(np.argmax(mags)), psi.shape)
            label = next(sub.label for sub, r, i, k in zip(state.subsystems, is_reg, off, peak)
                         if r and i != k)
            raise ConfigurationError(f"register {label!r} is not in a single basis state")
        registers = {sub.label: hilbert.basis_state((sub,), {sub.label: int(k)})
                     for sub, r, k in zip(state.subsystems, is_reg, peak) if r}
        core = tuple(sub for sub, r in zip(state.subsystems, is_reg) if not r)
        return cls(state.subsystems, StateVector(core, psi[index]), registers)

    def interact(self, ev: InteractionEvent) -> "BranchState":
        return replace(self, core=hilbert.apply_unitary(self.core, ev.unitary, ev.targets))

    def canonical(self) -> "BranchState":
        """Global phase fixed on the core by ``hilbert.phase_canonical``."""
        return replace(self, core=hilbert.phase_canonical(self.core))

    def materialize(self) -> StateVector:
        """The full tensor.  Register indices are fixed, so the core's
        amplitudes keep their order and a canonical core phase stays
        canonical."""
        psi = np.zeros(tuple(sub.dim for sub in self.subsystems), dtype=complex)
        index = tuple(
            int(np.argmax(np.abs(self.registers[sub.label].amplitudes)))
            if sub.label in self.registers else slice(None)
            for sub in self.subsystems
        )
        psi[index] = self.core.amplitudes.reshape(self.core.dims)
        return StateVector(self.subsystems, psi.reshape(-1))


@dataclass(frozen=True)
class Scenario:
    dim: int
    c: float
    subsystems: tuple[hilbert.SubsystemSpec, ...]
    initial_state: StateVector
    initial_t0: float  # -inf allowed
    interactions: tuple[InteractionEvent, ...]
    detectors: tuple[DetectorEvent, ...]
    charged_modes: tuple[str, ...] = ()
    worldlines: tuple[tuple[str, tuple[Event, ...]], ...] = ()  # diagram rendering only

    def initial_surface(self) -> Lcsh:
        return Lcsh(t0=self.initial_t0, apexes=(), c=self.c)

    @cached_property
    def initial_branch(self) -> BranchState:
        """The initial state with its registers split off, built once."""
        return BranchState.split(self.initial_state)

    def detector(self, label: str) -> DetectorEvent:
        for d in self.detectors:
            if d.label == label:
                return d
        raise ConfigurationError(f"unknown detector {label!r}")

    @property
    def detector_labels(self) -> tuple[str, ...]:
        return tuple(d.label for d in self.detectors)

    @property
    def events(self) -> tuple[Event, ...]:
        return tuple(ev.at for ev in self.interactions) + tuple(d.at for d in self.detectors)

    @cached_property
    def _support_box(self) -> tuple[tuple[float, float], ...]:
        """Unpadded spatial bounding box of all anchored events, built once."""
        pts = [e.x for e in self.events]
        pts += [p.x for _, line in self.worldlines for p in line]
        arr = np.array(pts) if pts else np.zeros((1, self.dim))
        return tuple((arr[:, k].min(), arr[:, k].max()) for k in range(self.dim))

    def support_region(self, pad: float = 1.0) -> tuple[tuple[float, float], ...]:
        """Spatial bounding box of all anchored events, padded."""
        return tuple((lo - pad, hi + pad) for lo, hi in self._support_box)


def _check_finite(s: Scenario) -> None:
    """Reject NaN and infinities in numeric input, which slip through
    tolerance checks such as ``abs(x - 1) > EPS`` (False for NaN).  Only
    the initial floor may be -inf."""
    geometry.check_speed_of_light(s.c)
    if not (math.isfinite(s.initial_t0) or s.initial_t0 == geometry.MINUS_INFINITY):
        raise ConfigurationError(f"initial surface t0 must be finite or -inf, got {s.initial_t0}")
    points = s.events + tuple(p for _, line in s.worldlines for p in line)
    for ev in points:
        if not all(map(math.isfinite, (ev.t,) + ev.x)):
            raise ConfigurationError(f"event {ev} has a non-finite coordinate")
    if not np.isfinite(s.initial_state.amplitudes).all():
        raise ConfigurationError("initial state has a non-finite amplitude")
    for ev in s.interactions:
        if not np.isfinite(ev.unitary).all():
            raise ConfigurationError(f"interaction {ev.name!r} has a non-finite unitary entry")
    for d in s.detectors:
        for label, p in d.outcomes.outcomes:
            if not np.isfinite(p).all():
                raise ConfigurationError(
                    f"detector {d.label!r} projector {label!r} has a non-finite entry"
                )


def validate_scenario(s: Scenario) -> None:
    _check_finite(s)
    labels = {sub.label for sub in s.subsystems}
    if s.initial_state.labels != tuple(sub.label for sub in s.subsystems):
        raise ConfigurationError("initial state subsystems do not match scenario subsystems")
    surface = s.initial_surface()
    for ev in s.events:
        if ev.dim != s.dim:
            raise ConfigurationError(f"event {ev} has dimension {ev.dim}, expected {s.dim}")
        if geometry.event_side_of_surface(ev, surface) is not SurfaceSide.FUTURE:
            raise ConfigurationError(f"event {ev} is not in the future of the initial surface")
    kinds = {sub.label: sub.kind for sub in s.initial_state.subsystems}
    for ev in s.interactions:
        for t in ev.targets:
            if t not in labels:
                raise ConfigurationError(f"interaction {ev.name!r} targets unknown subsystem {t!r}")
            if kinds[t] is SubsystemKind.REGISTER:
                raise ConfigurationError(f"interaction {ev.name!r} targets register {t!r}")
    seen = set()
    for d in s.detectors:
        if d.label in seen:
            raise ConfigurationError(f"duplicate detector label {d.label!r}")
        seen.add(d.label)
        for t in d.outcomes.targets + (d.register,):
            if t not in labels:
                raise ConfigurationError(f"detector {d.label!r} references unknown subsystem {t!r}")
        for t in d.outcomes.targets:
            if kinds[t] is SubsystemKind.REGISTER:
                raise ConfigurationError(f"detector {d.label!r} measures register {t!r}")
        reg = s.initial_state.spec_of(d.register)
        if reg.kind is not SubsystemKind.REGISTER:
            raise ConfigurationError(f"detector {d.label!r} register {d.register!r} is not a register")
        if max(d.pointers) >= reg.dim:
            raise ConfigurationError(
                f"detector {d.label!r} pointer {max(d.pointers)} exceeds register dim {reg.dim}"
            )
    for m in s.charged_modes:
        if s.initial_state.spec_of(m).kind is not SubsystemKind.MODE:
            raise ConfigurationError(f"charged subsystem {m!r} is not an occupation mode")
    norm = s.initial_state.norm
    if abs(norm - 1.0) > hilbert.EPS_NORM:
        raise ConfigurationError(f"initial state norm {norm} != 1")
    # splitting the registers off checks that each starts in a basis state
    s.initial_branch


# --- reduction orders ------------------------------------------------------

def validate_reduction_order(s: Scenario, order: tuple[str, ...]) -> list[tuple[str, str]]:
    """Violating detector pairs; empty list means the order is valid.

    Timelike pairs must reduce in time order.  Spacelike and lightlike
    pairs are unconstrained (delta-limit convention: lightlike counts as
    spacelike for ordering purposes).
    """
    if sorted(order) != sorted(s.detector_labels):
        raise ConfigurationError(
            f"order {order} is not a permutation of detectors {s.detector_labels}"
        )
    position = {label: i for i, label in enumerate(order)}
    violations = []
    for a, b in itertools.combinations(s.detector_labels, 2):
        da, db = s.detector(a), s.detector(b)
        if geometry.classify(da.at, db.at, s.c) is Separation.TIMELIKE:
            if (position[a] < position[b]) != (da.at.t < db.at.t):
                violations.append((a, b))
    return violations


def enumerate_valid_orders(s: Scenario) -> list[tuple[str, ...]]:
    n = len(s.detectors)
    if n > MAX_DETECTORS_FOR_ENUMERATION:
        raise ConfigurationError(
            f"refusing to enumerate orders for {n} detectors "
            f"(limit {MAX_DETECTORS_FOR_ENUMERATION})"
        )
    return [p for p in itertools.permutations(s.detector_labels)
            if not validate_reduction_order(s, p)]


# --- stepping --------------------------------------------------------------

@cache
def _swap(dim: int, index: int) -> np.ndarray:
    """Permutation swapping basis states 0 and ``index`` of a ``dim``-state
    space, built once per (dim, index) and read-only."""
    u = np.eye(dim, dtype=complex)
    u[[0, index]] = u[[index, 0]]
    u.flags.writeable = False
    return u


def _in_time_order(events):
    """Interactions sorted by (time, name).  Timelike pairs apply in time
    order; spacelike pairs commute, so this order is as good as any."""
    return sorted(events, key=lambda ev: (ev.at.t, ev.name))


def apply_detector(state: BranchState, det: DetectorEvent, outcome: str) -> BranchState:
    """Projection + pointer shift (+ absorption).  Shared with the
    Hellwig-Kraus comparator so both prescriptions use one primitive."""
    core = hilbert.project_and_normalize(state.core, det.outcomes, outcome)
    registers = state.registers
    pointer = det.pointer_for(outcome)
    if pointer != 0:
        factor = registers[det.register]
        shift = _swap(factor.dims[0], pointer)
        registers = {**registers, det.register: hilbert.apply_unitary(factor, shift, (det.register,))}
    if det.absorbing:
        p = det.outcomes.projector(outcome)
        config = int(np.argmax(np.diag(p).real))
        if config:
            # The projector fixed the measured configuration, so swapping it
            # with the empty configuration is an isometry on this branch.
            core = hilbert.apply_unitary(core, _swap(p.shape[0], config), det.outcomes.targets)
    return BranchState(state.subsystems, core, registers)


@dataclass(frozen=True)
class StepRecord:
    detector: str
    outcome: str
    probability: float
    reduction: bool
    surface_before: Lcsh
    surface_after: Lcsh
    state_before: StateVector  # on S_k-, after due interactions
    state_after: StateVector   # on S_k+
    interactions_applied: tuple[str, ...]


@dataclass(frozen=True)
class BranchNode:
    """One expanded node of the outcome-branch tree: the state on S_k-
    and the Born probability of each of the detector's outcomes there."""

    detector: DetectorEvent
    surface_before: Lcsh
    surface_after: Lcsh
    state_before: BranchState  # on S_k-, after due interactions
    probabilities: tuple[float, ...]  # in ``detector.outcomes.labels`` order
    interactions_applied: tuple[str, ...]

    @property
    def reduction(self) -> bool:
        return not any(p >= 1.0 - EPS_CERT for p in self.probabilities)


def _future_of(e: Event, surface: Lcsh) -> bool:
    return geometry.event_side_of_surface(e, surface) is SurfaceSide.FUTURE


def step(s: Scenario, surface: Lcsh, state: BranchState, detector: str) -> BranchNode:
    """Expand one node: adjoin the detector's backward light cone to
    ``surface`` (the state's surface S_{k-1}), apply the interactions that
    lie in the future of S_{k-1} but not of the new surface S_k, and
    compute every outcome's Born probability.

    Interactions exactly on the new surface are applied before the
    reduction (they belong to the minus side).  Branching is left to the
    caller: ``apply_detector`` on ``state_before`` gives the state on S_k+
    for a chosen outcome.
    """
    det = s.detector(detector)
    new_surface = geometry.adjoin_apex(surface, det.at)
    due = _in_time_order(ev for ev in s.interactions
                         if _future_of(ev.at, surface) and not _future_of(ev.at, new_surface))
    for ev in due:
        state = state.interact(ev)
    state = state.canonical()
    return BranchNode(
        detector=det,
        surface_before=surface,
        surface_after=new_surface,
        state_before=state,
        probabilities=tuple(hilbert.born_probability(state.core, det.outcomes, l)
                            for l in det.outcomes.labels),
        interactions_applied=tuple(ev.name for ev in due),
    )


@dataclass(frozen=True)
class RunRecord:
    scenario: Scenario
    order: tuple[str, ...]
    steps: tuple[StepRecord, ...]
    final_state: StateVector  # at t = +inf (all remaining interactions applied)
    total_probability: float

    def outcomes(self) -> tuple[str, ...]:
        """Outcome labels in scenario detector declaration order."""
        by_det = {st.detector: st.outcome for st in self.steps}
        return tuple(by_det[l] for l in self.scenario.detector_labels)


def _checked_seed(seed: int) -> int:
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    return seed


def _require_valid(s: Scenario, order: tuple[str, ...]) -> None:
    violations = validate_reduction_order(s, order)
    if violations:
        raise ConfigurationError(
            f"reduction order {order} violates time order for timelike pairs {violations}"
        )


def run(
    s: Scenario,
    order: tuple[str, ...],
    outcomes: tuple[str, ...] | None = None,
    seed: int | None = None,
) -> RunRecord:
    """Walk one path of the branch tree, then apply any remaining
    interactions (trivial Hamiltonian after the last event) to t = +inf.

    Each node is expanded once by ``step``; the branch taken is the fixed
    outcome, or is drawn from the node's Born probabilities with the
    stream ``default_rng(seed)``, one uniform per step.  The recorded
    states are full tensors.
    """
    _require_valid(s, order)
    if outcomes is not None and len(outcomes) != len(order):
        raise ConfigurationError("need one fixed outcome per detector in the order")
    rng = np.random.default_rng(_checked_seed(0 if seed is None else seed))

    surface = s.initial_surface()
    state = s.initial_branch
    steps: list[StepRecord] = []
    for k, label in enumerate(order):
        node = step(s, surface, state, label)
        labels = node.detector.outcomes.labels
        if outcomes is None:
            cum = np.cumsum(node.probabilities)
            outcome = labels[int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))]
        elif outcomes[k] in labels:
            outcome = outcomes[k]
        else:
            raise ConfigurationError(f"unknown outcome {outcomes[k]!r} for detector {label!r}")
        state = apply_detector(node.state_before, node.detector, outcome)
        steps.append(StepRecord(
            detector=label,
            outcome=outcome,
            probability=node.probabilities[labels.index(outcome)],
            reduction=node.reduction,
            surface_before=surface,
            surface_after=node.surface_after,
            state_before=node.state_before.materialize(),
            state_after=state.materialize(),
            interactions_applied=node.interactions_applied,
        ))
        surface = node.surface_after
    for ev in _in_time_order(ev for ev in s.interactions if _future_of(ev.at, surface)):
        state = state.interact(ev)
    total = math.prod(st.probability for st in steps) if steps else 1.0
    return RunRecord(s, tuple(order), tuple(steps), state.canonical().materialize(), total)


# --- exact enumeration and sampling ----------------------------------------

@dataclass(frozen=True)
class JointDistribution:
    """Exact probability map over outcome tuples, keyed in scenario
    detector declaration order."""

    detectors: tuple[str, ...]
    probabilities: dict[tuple[str, ...], float]

    def probability(self, key: tuple[str, ...]) -> float:
        return self.probabilities.get(tuple(key), 0.0)

    def max_deviation(self, other: "JointDistribution") -> float:
        keys = set(self.probabilities) | set(other.probabilities)
        return max((abs(self.probability(k) - other.probability(k)) for k in keys), default=0.0)


def joint_distribution(s: Scenario, order: tuple[str, ...]) -> JointDistribution:
    """Depth-first expansion of the whole branch tree, one ``step`` per
    node; outcomes with probability <= EPS_PROB are pruned."""
    _require_valid(s, order)
    branch_bound = math.prod(len(s.detector(l).outcomes.outcomes) for l in order)
    if branch_bound > MAX_BRANCHES:
        raise ConfigurationError(f"{branch_bound} outcome branches exceed limit {MAX_BRANCHES}")
    probs: dict[tuple[str, ...], float] = {}
    declared = s.detector_labels

    def descend(surface, state, k, acc_prob, chosen):
        if k == len(order):
            by_det = dict(zip(order, chosen))
            probs[tuple(by_det[l] for l in declared)] = acc_prob
            return
        node = step(s, surface, state, order[k])
        for label, p in zip(node.detector.outcomes.labels, node.probabilities):
            if p > hilbert.EPS_PROB:
                descend(node.surface_after, apply_detector(node.state_before, node.detector, label),
                        k + 1, acc_prob * p, chosen + (label,))

    descend(s.initial_surface(), s.initial_branch, 0, 1.0, ())
    return JointDistribution(declared, probs)


@dataclass(frozen=True)
class EmpiricalDistribution:
    detectors: tuple[str, ...]
    counts: dict[tuple[str, ...], int]
    n: int

    def frequency(self, key: tuple[str, ...]) -> float:
        return self.counts.get(tuple(key), 0) / self.n


def sample(s: Scenario, order: tuple[str, ...], n: int, seed: int = 0) -> EmpiricalDistribution:
    """n independent sampled runs: the exact leaves, then one draw.

    The branch tree is expanded once by ``joint_distribution``.  Run i
    takes the i-th uniform of the single stream ``default_rng(seed)`` and
    lands on the leaf whose interval of the cumulative leaf probabilities
    (in ``joint_distribution`` order) holds it.  A worker can start at run
    i with ``Generator(PCG64(seed).advance(i))``, so parallel and serial
    execution give identical counts.  The uniforms are drawn in chunks of
    ``SAMPLE_CHUNK`` from that one stream, which splitting leaves
    unchanged.
    """
    if n < 1:
        raise ConfigurationError(f"sample count must be >= 1, got {n}")
    rng = np.random.default_rng(_checked_seed(seed))
    dist = joint_distribution(s, order)
    keys = list(dist.probabilities)
    cum = np.cumsum(list(dist.probabilities.values()))
    tally = np.zeros(len(keys), dtype=np.int64)
    for start in range(0, n, SAMPLE_CHUNK):
        u = rng.random(min(SAMPLE_CHUNK, n - start)) * cum[-1]
        leaf = np.minimum(np.searchsorted(cum, u, side="right"), len(keys) - 1)
        tally += np.bincount(leaf, minlength=len(keys))
    return EmpiricalDistribution(
        dist.detectors, {k: int(c) for k, c in zip(keys, tally) if c}, n
    )


# --- transport to query surfaces -------------------------------------------

@dataclass(frozen=True)
class UndefinedState:
    """Marker for query surfaces on which no state vector exists because
    they cross a reduction surface."""

    reason: str


def state_on_hyperplane(
    record: RunRecord,
    query: Lcsh | float,
) -> StateVector | UndefinedState:
    """Transport the recorded history onto a query surface (a float is the
    flat surface t = query).

    Defined iff the query crosses no reduction surface of the record:
    for each reduction surface r, the query lies on or above r or on or
    below it over the scenario's ``support_region()``, both decided by one
    ``geometry.compare(query, r)``.  The test is region-local: far outside the
    region the envelopes may still cross.  Reductions whose surface lies
    below the query apply; on a query equal to a reduction surface, that
    reduction does not.  Local pieces (interaction unitaries,
    non-reduction measurements) apply whenever their anchoring event is in
    the query's past.  Raises ``ConfigurationError`` for a query whose
    apexes have another spatial dimension or speed of light than the
    scenario.
    """
    s = record.scenario
    if not isinstance(query, Lcsh):
        query = Lcsh(t0=float(query), apexes=(), c=s.c)
    if query.apexes and query.dim != s.dim:
        raise ConfigurationError(
            f"query surface has dimension {query.dim}, scenario has {s.dim}"
        )
    if query.apexes and query.c != s.c:
        raise ConfigurationError(
            f"query surface has speed of light {query.c}, scenario has {s.c}"
        )
    region = s.support_region()

    reduced: dict[str, bool] = {}
    for st in record.steps:
        if not st.reduction:
            continue
        above, below = geometry.compare(query, st.surface_after, region)
        if not (above or below):
            return UndefinedState(
                f"query surface crosses reduction surface of detector {st.detector!r}"
            )
        reduced[st.detector] = above and not below

    state = s.initial_branch
    applied = {ev.name: ev for ev in s.interactions}
    for st in record.steps:
        for name in st.interactions_applied:
            ev = applied.pop(name)
            if not _future_of(ev.at, query):
                state = state.interact(ev)
        det = s.detector(st.detector)
        if st.reduction:
            if reduced[st.detector]:
                state = apply_detector(state, det, st.outcome)
        elif not _future_of(det.at, query):
            state = apply_detector(state, det, st.outcome)
    for ev in _in_time_order(applied.values()):
        if not _future_of(ev.at, query):
            state = state.interact(ev)
    return state.canonical().materialize()
