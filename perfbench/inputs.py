"""Seeded inputs for the four workloads.

``make_workload(name, seed, workdir)`` returns the op cycle of a workload:
CLI argument lists (with the scenario JSON files they name written to
``workdir``) or surface-query specs, each with the reference record its
output is checked against.  The same seed always gives the same inputs;
psvsim sees only what is generated here.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import reference as ref

WORKLOADS = ("cli-mix", "ghz-ladder", "sample-mc", "surface-queries")

#: GHZ sizes of ghz-ladder; amplitudes grow as 6^N (spin and register per party).
LADDER_NS = (4, 5, 6, 7)
#: Draws per sample-mc op, and per sample op inside cli-mix.
SAMPLE_DRAWS = 25_000
MIX_SAMPLE_DRAWS = 2_000


@dataclass
class Op:
    """One request.  A CLI op has ``argv`` (arguments after ``psvsim``); a
    library op has ``query``.  ``expect`` is the reference record."""

    expect: dict
    argv: list[str] | None = None
    query: dict | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    #: What setup builds or loads: built-in scenarios and scenario files.
    scenarios: list[dict] = field(default_factory=list)
    #: surface-queries only: the runs whose records the queries read.
    records: list[dict] = field(default_factory=list)

    def setup_spec(self) -> dict:
        """What a fresh interpreter builds in set-up, as plain JSON data."""
        return {"scenarios": self.scenarios, "records": self.records}


def _axis(rng) -> tuple[float, float]:
    """A generic axis, rounded so the CLI token and the reference agree."""
    theta = math.acos(rng.uniform(-1.0, 1.0))
    return round(theta, 6), round(rng.uniform(0.0, 2 * math.pi), 6)


def _token(axis) -> str:
    return f"{axis[0]}:{axis[1]}"


def _pairs(a: np.ndarray) -> list:
    return np.stack([a.real, a.imag], axis=-1).tolist()


def ghz_events(rng, n: int, dim: int) -> list[tuple[float, tuple[float, ...]]]:
    """Mutually spacelike detector events: spaced 6 apart along the first
    axis, times within 3 +- 0.5, other coordinates within +-1."""
    events = []
    for k in range(n):
        x = [round(6.0 * k + rng.uniform(-0.5, 0.5), 3)]
        x += [round(rng.uniform(-1.0, 1.0), 3) for _ in range(dim - 1)]
        events.append((round(3.0 + rng.uniform(-0.5, 0.5), 3), tuple(x)))
    return events


def ghz_scenario(axes, events) -> dict:
    """Scenario JSON of GHZ-N: spins s0.. in (|0..0> - |1..1>)/sqrt2 and a
    dimension-3 register per detector, in psvsim's scenario schema."""
    n = len(axes)
    subsystems = ([{"label": f"s{k}", "dim": 2, "kind": "spin"} for k in range(n)]
                  + [{"label": f"R{k}", "dim": 3, "kind": "register"} for k in range(n)])
    dims = [2] * n + [3] * n
    amps = np.zeros(math.prod(dims), dtype=complex)
    amps[0] = 1 / math.sqrt(2.0)
    amps[np.ravel_multi_index((1,) * n + (0,) * n, dims)] = -1 / math.sqrt(2.0)
    detectors = [{
        "label": f"D{k}",
        "at": {"t": events[k][0], "x": list(events[k][1])},
        "register": f"R{k}",
        "absorbing": False,
        "targets": [f"s{k}"],
        "projectors": [
            {"label": s, "matrix": _pairs(ref.spin_projector(axes[k], s)), "pointer": ptr}
            for s, ptr in (("+", 1), ("-", 2))
        ],
    } for k in range(n)]
    return {
        "dim": len(events[0][1]),
        "c": 1.0,
        "subsystems": subsystems,
        "initial_state": {"subsystems": subsystems, "amplitudes": _pairs(amps)},
        "initial_surface": {"t0": "minus_infinity"},
        "interactions": [],
        "detectors": detectors,
    }


def _write_ghz(rng, workdir: str, tag: str, n: int, dim: int):
    axes = [_axis(rng) for _ in range(n)]
    events = ghz_events(rng, n, dim)
    path = os.path.join(workdir, f"{tag}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ghz_scenario(axes, events), fh)
    return path, axes, events


def _cli_mix(rng, seed: int) -> Workload:
    ai, aj, ak = _axis(rng), _axis(rng), _axis(rng)
    singlet_axes = f"i={_token(ai)},j={_token(aj)}"
    all_axes = f"{singlet_axes},k={_token(ak)}"
    singlet = ref.singlet_distribution(ai, aj)
    copies = ref.singlet_copies_distribution(ai, aj, ak)
    ghz = ref.ghz_distribution([ai, aj, ak])
    split = ref.split_distribution()
    perm = lambda labels: ",".join(rng.permutation(labels))
    split_key = ("hit", "none", "c1") if rng.random() < 0.5 else ("none", "hit", "c2")
    split_fixed = ",".join(f"{d}={o}" for d, o in zip("ABC", split_key))
    run_seed = str(int(rng.integers(0, 2**31)))
    ops = [
        Op({"kind": "dist", "dist": singlet},
           ["dist", "--scenario", "singlet", "--axes", singlet_axes]),
        Op({"kind": "dist", "json": True, "dist": copies},
           ["dist", "--scenario", "singlet", "--with-copies", "--axes", all_axes, "--json"]),
        Op({"kind": "dist", "json": True, "dist": ghz},
           ["dist", "--scenario", "ghz", "--axes", all_axes, "--json"]),
        Op({"kind": "dist", "dist": split}, ["dist", "--scenario", "split"]),
        Op({"kind": "orders", "json": True, "detectors": list("ABC")},
           ["orders", "--scenario", "split", "--json"]),
        Op({"kind": "orders", "detectors": list("ABC")},
           ["orders", "--scenario", "ghz", "--axes", all_axes]),
        Op({"kind": "sample", "json": True, "n": MIX_SAMPLE_DRAWS, "dist": singlet},
           ["sample", "--scenario", "singlet", "--axes", singlet_axes,
            "--samples", str(MIX_SAMPLE_DRAWS), "--seed", run_seed, "--json"]),
        Op({"kind": "sample", "n": MIX_SAMPLE_DRAWS, "dist": split},
           ["sample", "--scenario", "split", "--order", perm(list("ABC")),
            "--samples", str(MIX_SAMPLE_DRAWS), "--seed", run_seed]),
        Op({"kind": "run", "json": True, "dist": ghz},
           ["run", "--scenario", "ghz", "--axes", all_axes, "--order", perm(list("ABC")),
            "--seed", run_seed, "--json"]),
        Op({"kind": "run", "dist": split, "outcomes": list(split_key)},
           ["run", "--scenario", "split", "--order", perm(list("ABC")),
            "--outcomes", split_fixed]),
        Op({"kind": "run", "dist": copies},
           ["run", "--scenario", "singlet", "--with-copies", "--axes", all_axes,
            "--order", perm(list("ABC")), "--seed", run_seed]),
        Op({"kind": "compare-hk", "psv": ref.hk_psv_conditional(ai, aj, ak)},
           ["compare-hk", "--axes", all_axes]),
        Op({"kind": "svg", "texts": [f"{d}: {o}" for d, o in zip("ABC", split_key)]
            + [f"S{k}{side}" for k in (1, 2, 3) for side in "-+"]},
           ["diagram", "--scenario", "split", "--order", perm(list("ABC")),
            "--outcomes", split_fixed]),
        Op({"kind": "ascii", "detectors": list("ABC")},
           ["diagram", "--scenario", "singlet", "--with-copies", "--axes", all_axes,
            "--seed", run_seed, "--ascii"]),
    ]
    scenarios = [
        {"builtin": "split"},
        {"builtin": "singlet", "axes": [ai, aj]},
        {"builtin": "singlet", "axes": [ai, aj], "copy_basis": ak, "with_copies": True},
        {"builtin": "ghz", "axes": [ai, aj, ak]},
    ]
    return Workload("cli-mix", ops, scenarios)


def _ghz_ladder(rng, workdir: str, seed: int) -> Workload:
    ops, scenarios = [], []
    for n in LADDER_NS:
        path, axes, _ = _write_ghz(rng, workdir, f"ladder-ghz{n}-seed{seed}", n, 1)
        labels = [f"D{k}" for k in range(n)]
        ops.append(Op({"kind": "dist", "json": True, "dist": ref.ghz_distribution(axes)},
                      ["dist", "--json", "--scenario", path,
                       "--order", ",".join(rng.permutation(labels))]))
        scenarios.append({"file": path})
    return Workload("ghz-ladder", ops, scenarios)


def _sample_mc(rng, workdir: str, seed: int) -> Workload:
    ai, aj = _axis(rng), _axis(rng)
    path, axes, _ = _write_ghz(rng, workdir, f"sample-ghz5-seed{seed}", 5, 1)
    draws = str(SAMPLE_DRAWS)
    seeds = [str(int(s)) for s in rng.integers(0, 2**31, size=3)]
    ops = [
        Op({"kind": "sample", "json": True, "n": SAMPLE_DRAWS,
            "dist": ref.singlet_distribution(ai, aj)},
           ["sample", "--json", "--scenario", "singlet",
            "--axes", f"i={_token(ai)},j={_token(aj)}",
            "--samples", draws, "--seed", seeds[0]]),
        Op({"kind": "sample", "json": True, "n": SAMPLE_DRAWS, "dist": ref.split_distribution()},
           ["sample", "--json", "--scenario", "split", "--order", ",".join(rng.permutation(list("ABC"))),
            "--samples", draws, "--seed", seeds[1]]),
        Op({"kind": "sample", "json": True, "n": SAMPLE_DRAWS, "dist": ref.ghz_distribution(axes)},
           ["sample", "--json", "--scenario", path,
            "--order", ",".join(rng.permutation([f"D{k}" for k in range(5)])),
            "--samples", draws, "--seed", seeds[2]]),
    ]
    scenarios = [{"builtin": "singlet", "axes": [ai, aj]}, {"builtin": "split"}, {"file": path}]
    return Workload("sample-mc", ops, scenarios)


def _surface_queries(rng, workdir: str, seed: int) -> Workload:
    """Records of GHZ-4 in d = 2 and d = 3 and of the built-in split; per
    record, one flat time in each of three bands (below every reduction
    surface, crossing the first one, above every event), each step's own
    post-step surface, and both directions of ``is_future_of`` between the
    first and last step surfaces.  A crossing query stops at the first
    reduction surface and is cheaper, so every cycle has one of each."""
    scenarios, records, models = [], [], []
    for dim in (2, 3):
        path, axes, events = _write_ghz(rng, workdir, f"surface-ghz4-d{dim}-seed{seed}", 4, dim)
        scenarios.append({"file": path})
        labels = [f"D{k}" for k in range(4)]
        order = list(rng.permutation(labels))
        outcomes = [str(s) for s in rng.choice(["+", "-"], size=4)]
        records.append({"scenario": len(scenarios) - 1, "order": order, "outcomes": outcomes})
        models.append(ref.ghz_model(axes, events))
    scenarios.append({"builtin": "split"})
    branch = ("hit", "none", "c1") if rng.random() < 0.5 else ("none", "hit", "c2")
    order = list(rng.permutation(list("ABC")))
    by_det = dict(zip("ABC", branch))
    records.append({"scenario": 2, "order": order, "outcomes": [by_det[d] for d in order]})
    models.append(ref.split_model())

    ops = []
    for r, (rec, model) in enumerate(zip(records, models)):
        order, outcomes = rec["order"], rec["outcomes"]

        def state(query, applied):
            return {"kind": "state", "labels": model.labels,
                    "state": model.query_state(order, outcomes, query, applied)}

        flags = model.reductions(order, outcomes)
        reductions = [k for k, f in enumerate(flags) if f]
        events = [model.detectors[l][0] for l in model.detectors]
        events += [ev[1] for ev in model.interactions]
        ts = [t for t, _ in events]
        first = model.detectors[order[reductions[0]]][0][0]
        # Distance from any event to any point of the padded support box
        # bounds how far below its apex a cone can reach inside the box.
        lo = np.min([x for _, x in events], axis=0) - 1.0
        hi = np.max([x for _, x in events], axis=0) + 1.0
        reach = float(np.linalg.norm(hi - lo)) / model.c
        for band in range(3):
            u = float(rng.uniform(0.25, 0.75))
            if band == 0:
                t, applied = min(ts) - reach - u, []
            elif band == 1:
                t, applied = first - u / model.c, None
            else:
                t, applied = max(ts) + u, reductions
            t = round(t, 6)
            expect = {"kind": "undefined"} if applied is None else state(t, set(applied))
            ops.append(Op(expect, query={"record": r, "kind": "flat", "t": t}))
        surfaces = model.step_surfaces(order)
        for m in range(len(order)):
            # A query equal to a reduction surface gets the state on its minus
            # side: reductions before step m apply, step m's does not.
            ops.append(Op(state(surfaces[m], {k for k in reductions if k < m}),
                          query={"record": r, "kind": "step", "step": m}))
        last = len(order) - 1
        ops.append(Op({"kind": "future", "value": True},
                      query={"record": r, "kind": "future", "later": last, "earlier": 0}))
        ops.append(Op({"kind": "future", "value": False},
                      query={"record": r, "kind": "future", "later": 0, "earlier": last}))
    return Workload("surface-queries", ops, scenarios, records)


def make_workload(name: str, seed: int, workdir: str) -> Workload:
    """The op cycle of ``name`` for ``seed``; writes the scenario files it
    names under ``workdir``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "cli-mix":
        return _cli_mix(rng, seed)
    if name == "ghz-ladder":
        return _ghz_ladder(rng, workdir, seed)
    if name == "sample-mc":
        return _sample_mc(rng, workdir, seed)
    return _surface_queries(rng, workdir, seed)
