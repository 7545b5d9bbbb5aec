import contextlib
import math
from unittest import mock

import numpy as np

import _oracles
from psvsim import geometry, hilbert, scenarios
from psvsim.geometry import Event, Lcsh
from psvsim.hilbert import StateVector, X_AXIS, Z_AXIS


def _answers(pairs, cone, singlet, turned, triplet):
    return ([(_oracles.grid_covers(*p), _oracles.grid_compare(*p), _oracles.grid_is_future_of(*p))
             for p in pairs],
            _oracles.achronality_violation(cone, np.random.default_rng(3), n_pairs=500),
            _oracles.states_close(singlet, turned), _oracles.states_close(singlet, triplet))


def test_oracles_answer_without_the_code_they_check():
    """Every name bound to the program's surface evaluation, probe grid,
    default region or phase rule, in their modules and in ``_oracles``,
    raises: each oracle still gives its answer."""
    cone = Lcsh(t0=-1.0, apexes=(Event(2.0, (0.0, 1.0)), Event(1.5, (2.0, -1.0))), c=0.5)
    part, flat = Lcsh(t0=-1.0, apexes=cone.apexes[:1], c=0.5), Lcsh(t0=0.0)
    box = ((-3.0, 3.0), (-2.0, 2.0))
    pairs = [(cone, part, None), (part, cone, None), (cone, flat, box), (flat, cone, box)]
    singlet = scenarios.singlet(Z_AXIS, X_AXIS).initial.core
    args = (pairs, cone, singlet, StateVector(singlet.subsystems, singlet.amplitudes * np.exp(0.7j)),
            StateVector(singlet.subsystems, np.abs(singlet.amplitudes)))
    expected = _answers(*args)
    grids, achronal, same, different = expected
    assert {g[0] for g in grids} == {True, False} and same and not different
    assert -math.inf < achronal <= geometry.EPS_GEOM
    checked = (geometry.surface_times, geometry.probe_points, geometry._bounding_region,
               hilbert.phase_canonical)
    with contextlib.ExitStack() as stack:
        for module in (geometry, hilbert, _oracles):
            for name, value in list(vars(module).items()):
                if any(value is f for f in checked):
                    stack.enter_context(mock.patch.object(module, name, side_effect=AssertionError))
        assert _answers(*args) == expected
