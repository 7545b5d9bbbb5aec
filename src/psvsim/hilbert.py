"""Finite-dimensional quantum state algebra.

States are normalized complex amplitude tensors over an ordered list of
labelled subsystems (spins, occupation modes, detector registers).  All
operations return new states; nothing here mutates shared data.

Trust rule: an amplitude array from a caller is checked by
``StateVector(...)``: it is made a flat complex vector and its length must
be the product of the dims.  An array this module has just computed from a
checked state is already one, so its results are built by ``_built``,
which only marks the array read-only.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cache, cached_property, reduce

import numpy as np

from ._record import Record
from .errors import ConfigurationError, ImpossibleBranchError

#: An accepted initial state has |norm - 1| <= EPS_NORM, so its outcome
#: probabilities sum to norm^2 = 1 +- 1e-12, the scenario-file contract.
EPS_NORM = 5e-13
EPS_OP = 1e-12     # unitarity / hermiticity / projector checks
EPS_PROB = 1e-12   # impossible-branch threshold
EPS_TIE = 1e-9     # relative: moduli this close to the largest tie in phase_canonical


class SubsystemKind(Enum):
    SPIN = "spin"
    MODE = "mode"
    REGISTER = "register"


class SubsystemSpec(Record):
    """One tensor factor.  Spins and occupation modes are two-dimensional;
    registers hold detector pointer states (index 0 = ready)."""

    label: str
    dim: int
    kind: SubsystemKind

    def __post_init__(self):
        if self.kind in (SubsystemKind.SPIN, SubsystemKind.MODE) and self.dim != 2:
            raise ConfigurationError(f"{self.kind.value} subsystem {self.label!r} must have dim 2")
        if self.kind is SubsystemKind.REGISTER and self.dim < 2:
            raise ConfigurationError(f"register {self.label!r} must have dim >= 2, got {self.dim}")


class StateVector(Record):
    """A state: a read-only flat amplitude vector over the listed
    subsystems, in their order."""

    subsystems: tuple[SubsystemSpec, ...]
    amplitudes: np.ndarray  # flat complex vector of length prod(dims)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        check_layout(self.subsystems, amps.size)
        amps.flags.writeable = False
        self.__dict__["amplitudes"] = amps

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.subsystems)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.subsystems)

    @cached_property
    def basis_index(self) -> int:
        """The flat index of the first largest-modulus amplitude: which basis
        state a basis state is.  Found once per state, so a register factor
        that many branch states share is read once."""
        return int(np.abs(self.amplitudes).argmax())

    def axis_of(self, label: str) -> int:
        return _axis(self.labels, label)

    @property
    def norm(self) -> float:
        return math.sqrt(np.vdot(self.amplitudes, self.amplitudes).real)


def _axis(labels: tuple[str, ...], label: str) -> int:
    if label not in labels:
        raise ConfigurationError(f"unknown subsystem label {label!r}")
    return labels.index(label)


def _built(like: StateVector, amps: np.ndarray) -> StateVector:
    """A state over ``like``'s subsystems with amplitudes this module just
    computed from ``like``'s: already a flat complex vector of its length,
    so it is only made read-only, not re-checked."""
    amps.flags.writeable = False
    new = object.__new__(StateVector)
    new.__dict__.update(subsystems=like.subsystems, dims=like.dims, labels=like.labels,
                        amplitudes=amps)
    return new


def check_layout(subsystems: tuple[SubsystemSpec, ...], size: int) -> None:
    """``StateVector``'s check of ``size`` amplitudes over ``subsystems``,
    also run on a list held as its nonzero entries alone: the labels are
    distinct, then ``size`` is the product of the dims."""
    labels = [s.label for s in subsystems]
    if len(set(labels)) != len(labels):
        raise ConfigurationError(f"duplicate subsystem labels in {labels}")
    expected = math.prod([s.dim for s in subsystems])
    if size != expected:
        raise ConfigurationError(f"amplitude length {size} != product of dims {expected}")


def nonzero_bits(amps: np.ndarray) -> np.ndarray:
    """The flat indices of the entries of a complex vector that are not
    +0+0j bit for bit: a -0.0 part, like a NaN, counts as nonzero, so the
    entries these indices name, with +0+0j everywhere else, give back the
    vector's exact bits."""
    words = np.ascontiguousarray(amps).view(np.uint64).reshape(-1, 2)
    return np.flatnonzero(words[:, 0] | words[:, 1])  # not .any(axis=1), six times slower


def basis_state(subsystems: tuple[SubsystemSpec, ...], indices: dict[str, int] | None = None) -> StateVector:
    """Product basis state; unlisted subsystems sit at index 0."""
    indices = indices or {}
    dims = tuple(s.dim for s in subsystems)
    idx = tuple(indices.get(s.label, 0) for s in subsystems)
    amps = np.zeros(dims, dtype=complex)
    amps[idx] = 1.0
    return StateVector(tuple(subsystems), amps.reshape(-1))


def tensor(*states: StateVector) -> StateVector:
    """Kronecker product in subsystem order; labels must be disjoint."""
    subsystems = tuple(sub for st in states for sub in st.subsystems)
    amps = reduce(np.kron, (st.amplitudes for st in states))
    return StateVector(subsystems, amps)


def phase_canonical(state: StateVector) -> StateVector:
    """Fix global phase: largest-magnitude amplitude real and positive.
    Moduli within a relative EPS_TIE of the largest count as tied and the
    lowest index wins, so rounding cannot move the choice: a second call
    picks the same index.  That amplitude is real and positive only up to
    rounding, though, so a second call still moves each amplitude by an
    ulp or two; the map is not idempotent bit for bit.  Makes state
    equality testable."""
    amps = state.amplitudes
    mags = np.abs(amps)
    top = np.maximum.reduce(mags, initial=0.0)  # mags.max(initial=0.0), without its Python frame
    if top == 0.0:
        return state
    k = int((mags >= top * (1.0 - EPS_TIE)).argmax())
    mag = abs(amps[k])
    return _built(state, amps * (mag / amps[k]))


@cache
def _layout(subsystems: tuple[str, ...], dims: tuple[int, ...], targets: tuple[str, ...]) -> tuple:
    """How ``_apply_matrix`` maps the amplitudes of a state over the labels
    ``subsystems`` with ``dims`` for ``targets``, worked out once per
    layout and target tuple the process meets: ``(shape, None, None)``
    when the targets are adjacent and in order, so that they form the
    middle axis of a (pre, block, post) view; otherwise ``(dims, perm,
    back)``, where ``perm`` moves the targets together at the front
    (``np.moveaxis``'s order) and ``back`` is its inverse."""
    axes = [_axis(subsystems, l) for l in targets]
    block = math.prod(dims[a] for a in axes)
    first, last = axes[0], axes[-1] + 1
    if axes == list(range(first, last)):
        return (math.prod(dims[:first]), block, math.prod(dims[last:])), None, None
    perm = axes + [a for a in range(len(dims)) if a not in axes]
    return dims, tuple(perm), tuple(np.argsort(perm).tolist())


def _apply_matrix(state: StateVector, matrix: np.ndarray, labels: tuple[str, ...]) -> StateVector:
    """Apply a matrix acting on the listed subsystems, identity elsewhere.
    Its shape is trusted: ``validate_scenario`` checks each operator once.

    Targets that are adjacent and in order form the middle axis of a
    (pre, block, post) view, which one broadcast matmul maps; other target
    sets are first moved together at the front (see ``_layout``)."""
    shape, perm, back = _layout(state.labels, state.dims, labels)
    psi = state.amplitudes.reshape(shape)
    if perm is None:
        return _built(state, (matrix @ psi).reshape(-1))
    psi = psi.transpose(perm)
    moved = psi.shape
    psi = matrix @ psi.reshape(len(matrix), -1)
    return _built(state, psi.reshape(moved).transpose(back).reshape(-1))


def apply_unitary(state: StateVector, matrix: np.ndarray, labels: tuple[str, ...]) -> StateVector:
    """Apply a matrix unitary by construction: an interaction's, a register shift or a basis change."""
    return _apply_matrix(state, matrix, labels)


# --- spin axes -------------------------------------------------------------

class Axis(Record):
    """A measurement axis, stored as polar/azimuthal angles of the unit
    vector (Bloch parametrization)."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ConfigurationError(
                f"axis angles must be finite, got theta={self.theta}, phi={self.phi}"
            )

    @classmethod
    def from_xyz(cls, v) -> "Axis":
        v = np.asarray(v, dtype=float)
        if v.shape != (3,) or abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ConfigurationError(f"axis must be a unit 3-vector, got {v}")
        return cls(theta=math.atan2(math.hypot(v[0], v[1]), v[2]),
                   phi=math.atan2(v[1], v[0]))

    @property
    def xyz(self) -> tuple[float, float, float]:
        st = math.sin(self.theta)
        return (st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta))


X_AXIS = Axis(theta=math.pi / 2, phi=0.0)
Y_AXIS = Axis(theta=math.pi / 2, phi=math.pi / 2)
Z_AXIS = Axis(theta=0.0, phi=0.0)


def axis_eigenstate(axis: Axis, sign: int) -> np.ndarray:
    """The +-1/2 eigenvector of r.L in the standard Bloch convention:
    + -> (cos(t/2), e^{i phi} sin(t/2)), - -> (-e^{-i phi} sin(t/2), cos(t/2))."""
    if sign not in (+1, -1):
        raise ConfigurationError(f"sign must be +1 or -1, got {sign}")
    half = axis.theta / 2.0
    if sign > 0:
        return np.array([math.cos(half), np.exp(1j * axis.phi) * math.sin(half)])
    return np.array([-np.exp(-1j * axis.phi) * math.sin(half), math.cos(half)])


def spin_projector(axis: Axis, sign: int) -> np.ndarray:
    v = axis_eigenstate(axis, sign)
    return np.outer(v, v.conj())


# --- measurement -----------------------------------------------------------

class OutcomeSet(Record):
    """A complete set of mutually orthogonal projectors on the joint space
    of the target subsystems, one per outcome label, with finite entries."""

    targets: tuple[str, ...]
    outcomes: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self):
        targets, outcomes = self.targets, self.outcomes
        if type(targets) is not tuple or not targets or len(set(targets)) < len(targets):
            raise ConfigurationError(f"outcome set targets must be a non-empty tuple of "
                                     f"distinct labels, got {targets!r}")
        labels = [l for l, _ in outcomes]
        if not all(isinstance(l, str) for l in labels):
            raise ConfigurationError(f"outcome labels must be strings, got {labels}")
        if len(set(labels)) != len(labels):
            raise ConfigurationError(f"duplicate outcome labels {labels}")
        projs = [np.asarray(p, dtype=complex) for _, p in outcomes]
        d = projs[0].shape[0]
        for label, p in zip(labels, projs):
            if p.shape != (d, d):
                raise ConfigurationError(f"projector {label!r} has shape {p.shape}")
            if not np.isfinite(p).all():
                raise ConfigurationError(f"projector {label!r} has a non-finite entry")
            if np.abs(p).max(initial=0.0) > 1.0 + EPS_OP:  # and could overflow p @ p
                raise ConfigurationError(f"projector {label!r} has an entry of modulus above 1")
            if np.abs(p - p.conj().T).max() > EPS_OP:
                raise ConfigurationError(f"projector {label!r} is not Hermitian")
            if np.abs(p @ p - p).max() > EPS_OP:
                raise ConfigurationError(f"projector {label!r} is not idempotent")
        for i in range(len(projs)):
            for j in range(i + 1, len(projs)):
                if np.abs(projs[i] @ projs[j]).max() > EPS_OP:
                    raise ConfigurationError(
                        f"projectors {labels[i]!r} and {labels[j]!r} are not orthogonal"
                    )
        if np.abs(sum(projs) - np.eye(d)).max() > EPS_OP:
            raise ConfigurationError("projectors do not sum to the identity")
        self.__dict__["outcomes"] = tuple((l, _frozen(p)) for l, p in zip(labels, projs))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.outcomes)

    def projector(self, label: str) -> np.ndarray:
        for l, p in self.outcomes:
            if l == label:
                return p
        raise ConfigurationError(f"unknown outcome label {label!r}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.flags.writeable = False
    return a


def spin_outcome_set(target: str, axis: Axis) -> OutcomeSet:
    return OutcomeSet(
        targets=(target,),
        outcomes=(("+", spin_projector(axis, +1)), ("-", spin_projector(axis, -1))),
    )


def born_probability(state: StateVector, outcome_set: OutcomeSet, label: str) -> float:
    p = outcome_set.projector(label)
    projected = _apply_matrix(state, p, outcome_set.targets)
    prob = float(np.vdot(state.amplitudes, projected.amplitudes).real)
    if prob < -EPS_OP or prob > 1.0 + EPS_OP:
        raise ConfigurationError(f"Born probability {prob} outside [0, 1]")
    return min(max(prob, 0.0), 1.0)


def project_and_normalize(state: StateVector, outcome_set: OutcomeSet, label: str) -> StateVector:
    amps = _apply_matrix(state, outcome_set.projector(label), outcome_set.targets).amplitudes
    re, im = amps.real, amps.imag
    nrm = math.sqrt(re.dot(re) + im.dot(im))  # np.linalg.norm's arithmetic, without its checks
    if nrm * nrm <= EPS_PROB:
        raise ImpossibleBranchError(
            f"outcome {label!r} on {outcome_set.targets} has zero probability"
        )
    return phase_canonical(_built(state, amps / nrm))
