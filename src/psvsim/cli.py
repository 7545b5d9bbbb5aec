"""Command-line front end.

Subcommands: run, dist, orders, sample, compare-hk, diagram.  Exit codes:
0 success, 1 validation/configuration problem, 2 physically impossible
request, 3 I/O failure.  With --json, errors are emitted as JSON on
stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from . import diagram, engine, hellwig_kraus, scenarios, serialization
from .errors import ConfigurationError, PhysicsError
from .hilbert import Axis, X_AXIS, Y_AXIS, Z_AXIS


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigurationError(message)


_NAMED_AXES = {"x": X_AXIS, "y": Y_AXIS, "z": Z_AXIS}


def parse_axis(token: str) -> Axis:
    """Axis shorthand: x|y|z, optionally negated (-z), or theta[:phi]."""
    token = token.strip().lower()
    flipped = token.startswith("-") and token[1:] in _NAMED_AXES
    name = token[1:] if flipped else token
    if name in _NAMED_AXES:
        a = _NAMED_AXES[name]
        if flipped:
            x, y, z = a.xyz
            return Axis.from_xyz((-x, -y, -z))
        return a
    try:
        parts = [float(p) for p in token.split(":")]
    except ValueError:
        raise ConfigurationError(f"cannot parse axis {token!r}") from None
    if len(parts) == 1:
        return Axis(theta=parts[0])
    if len(parts) == 2:
        return Axis(theta=parts[0], phi=parts[1])
    raise ConfigurationError(f"cannot parse axis {token!r}")


def _parse_kv(text: str | None, what: str) -> dict[str, str]:
    if not text:
        return {}
    out = {}
    for item in text.split(","):
        if "=" not in item:
            raise ConfigurationError(f"malformed {what} entry {item!r}, expected key=value")
        k, v = (part.strip() for part in item.split("=", 1))
        if k in out:
            raise ConfigurationError(f"{what} sets {k!r} twice")
        out[k] = v
    return out


def _axes(args, keys: tuple[str, ...], reader: str) -> dict[str, Axis]:
    """``--axes`` parsed, with a ``ConfigurationError`` for a key not in ``keys``."""
    given = _parse_kv(args.axes, "--axes")
    unread = [k for k in given if k not in keys]
    if unread:
        raise ConfigurationError(f"--axes keys {unread} do not apply to {reader}")
    return {k: parse_axis(v) for k, v in given.items()}


#: The ``--axes`` keys each built-in scenario reads; a scenario file reads
#: none.  ``k``, the copy basis, is read by ``singlet`` only with copies:
#: without them it just rewrites the singlet in another basis.
_AXIS_KEYS = {"split": (), "singlet": ("i", "j"), "ghz": ("i", "j", "k")}


def build_scenario(args) -> engine.Scenario:
    """The scenario named by ``--scenario``.  An option the scenario would
    not read (``--with-copies`` off ``singlet``, an ``--axes`` key it has
    no axis for, ``--c`` on a file) is a ``ConfigurationError``."""
    name = args.scenario
    if args.with_copies and name != "singlet":
        raise ConfigurationError(f"--with-copies applies only to singlet, not {name!r}")
    keys = ("i", "j", "k") if args.with_copies else _AXIS_KEYS.get(name, ())
    axes = _axes(args, keys, f"scenario {name!r}")
    if args.c is not None and name not in _AXIS_KEYS:
        raise ConfigurationError("--c does not apply to a scenario file; set \"c\" in the file")
    c = 1.0 if args.c is None else args.c
    if name == "split":
        return scenarios.split_particle(c=c)
    if name == "singlet":
        return scenarios.singlet(
            axes.get("i", Z_AXIS),
            axes.get("j", X_AXIS),
            with_copies=args.with_copies,
            copy_basis=axes.get("k", Z_AXIS),
            c=c,
        )
    if name == "ghz":
        return scenarios.ghz(
            axes=(axes.get("i", X_AXIS), axes.get("j", Y_AXIS), axes.get("k", Y_AXIS)),
            c=c,
        )
    try:
        with open(name, encoding="utf-8") as fh:
            return _read_scenario(fh)
    except FileNotFoundError as exc:
        raise ConfigurationError(f"scenario file {name!r} not found") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"scenario file {name!r} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"scenario file {name!r} is not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise ConfigurationError(f"scenario file {name!r} is nested too deeply: {exc}") from exc


def _read_scenario(fh) -> engine.Scenario:
    """Parse and build a scenario file with the cyclic garbage collector
    paused.  A dense file holds hundreds of thousands of [re, im] lists,
    none of them garbage, which the collector would otherwise rescan
    while they are built and again once it is back on.  They are freed
    before it resumes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return serialization.scenario_from_dict(json.load(fh))
    finally:
        if enabled:
            gc.enable()


def _order(args, scenario) -> tuple[str, ...]:
    if args.order:
        return tuple(tok.strip() for tok in args.order.split(","))
    return scenario.detector_labels


def _outcomes(args, order) -> tuple[str, ...] | None:
    """Outcomes fixed by ``--outcomes``, in ``order``.  Keys match detector
    labels exactly, and there is one key per detector in the order."""
    mapping = _parse_kv(args.outcomes, "--outcomes")
    if not mapping:
        return None
    unknown = [k for k in mapping if k not in order]
    if unknown:
        raise ConfigurationError(f"--outcomes names no detector of the order: {unknown}")
    missing = [l for l in order if l not in mapping]
    if missing:
        raise ConfigurationError(f"--outcomes missing entries for detectors {missing}")
    return tuple(mapping[l] for l in order)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    scenario = build_scenario(args)
    order = _order(args, scenario)
    record = engine.run(scenario, order, outcomes=_outcomes(args, order),
                        seed=args.seed)
    if args.json:
        _emit(args, json.dumps(serialization.run_record_to_dict(record), indent=2) + "\n")
        return 0
    lines = [f"reduction order: {', '.join(record.order)}"]
    for k, st in enumerate(record.steps):
        kind = "reduction" if st.reduction else "no reduction"
        lines.append(
            f"  S{k + 1}: detector {st.detector} -> {st.outcome} "
            f"(p = {st.probability:.6g}, {kind}; applied: "
            f"{', '.join(st.interactions_applied) or 'nothing'})"
        )
    lines.append(f"outcomes: {', '.join(record.outcomes())}")
    lines.append(f"total probability: {record.total_probability:.6g}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_dist(args) -> int:
    scenario = build_scenario(args)
    dist = engine.joint_distribution(scenario, _order(args, scenario))
    if args.json:
        _emit(args, json.dumps(serialization.distribution_to_dict(dist), indent=2) + "\n")
        return 0
    lines = ["  ".join(dist.detectors) + "  probability"]
    for key, p in sorted(dist.probabilities.items()):
        lines.append("  ".join(key) + f"  {p:.12g}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_orders(args) -> int:
    scenario = build_scenario(args)
    orders = engine.enumerate_valid_orders(scenario)
    dists = [engine.joint_distribution(scenario, o) for o in orders]
    deviation = max(
        (dists[0].max_deviation(d) for d in dists[1:]), default=0.0
    )
    if args.json:
        _emit(args, json.dumps({
            "orders": [list(o) for o in orders],
            "max_deviation": deviation,
        }, indent=2) + "\n")
        return 0
    lines = [f"{len(orders)} valid reduction orders:"]
    lines += ["  " + ", ".join(o) for o in orders]
    lines.append(f"max entrywise deviation between distributions: {deviation:.3g}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_sample(args) -> int:
    scenario = build_scenario(args)
    emp = engine.sample(scenario, _order(args, scenario), args.samples, seed=args.seed)
    if args.json:
        _emit(args, json.dumps(serialization.empirical_to_dict(emp), indent=2) + "\n")
        return 0
    lines = [f"n = {emp.n}, seed = {args.seed}",
             "  ".join(emp.detectors) + "  frequency"]
    for key, count in sorted(emp.counts.items()):
        lines.append("  ".join(key) + f"  {count / emp.n:.6g}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_compare_hk(args) -> int:
    axes = _axes(args, ("i", "j", "k"), "compare-hk")
    result = hellwig_kraus.hk_copy_inconsistency(
        axes.get("i", X_AXIS), axes.get("j", Z_AXIS), axes.get("k", Z_AXIS)
    )
    payload = {
        "hk": result.hk_conditional,
        "psv": result.psv_conditional,
        "axes": {
            "i": serialization.axis_to_dict(result.axis_a),
            "j": serialization.axis_to_dict(result.axis_b),
            "k": serialization.axis_to_dict(result.copy_basis),
        },
    }
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_diagram(args) -> int:
    scenario = build_scenario(args)
    order = _order(args, scenario)
    record = engine.run(scenario, order, outcomes=_outcomes(args, order), seed=args.seed)
    text = diagram.render_ascii(record) if args.ascii else diagram.render_svg(record)
    _emit(args, text)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="psvsim",
                     description="Light-cone state-vector reduction simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_command(name, help, *extra):
        """A subcommand on a scenario, with the options in ``extra`` too."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--scenario", default="singlet",
                       help="split | singlet | ghz | path to a scenario JSON file")
        p.add_argument("--axes", help="built-in scenarios: axis assignments, "
                                      "e.g. i=z,j=x or i=1.05:0.3 (theta:phi)")
        p.add_argument("--c", type=float,
                       help="built-in scenarios: speed of light (default 1)")
        p.add_argument("--with-copies", action="store_true",
                       help="singlet only: include the copy devices and detector C")
        p.add_argument("--json", action="store_true")
        p.add_argument("--out", help="write output to this path instead of stdout")
        if "order" in extra:
            p.add_argument("--order", help="comma-separated detector labels, e.g. A,B,C")
        if "outcomes" in extra:
            p.add_argument("--outcomes", help="fixed outcomes, e.g. A=+,B=-")
        if "seed" in extra:
            p.add_argument("--seed", type=int, default=0)
        return p

    scenario_command("run", "one run, sampled or with fixed outcomes",
                     "order", "outcomes", "seed")
    scenario_command("dist", "exact joint outcome distribution", "order")
    scenario_command("orders", "enumerate valid reduction orders and "
                               "verify distribution equality")
    sample = scenario_command("sample", "Monte Carlo sampling", "order", "seed")
    sample.add_argument("--samples", type=int, default=10_000)
    hk = sub.add_parser("compare-hk", help="Hellwig-Kraus vs engine conditional "
                                           "probability on the singlet with copies")
    hk.add_argument("--axes", help="i=<A axis>,j=<B axis>,k=<copy basis>")
    hk.add_argument("--out")
    hk.set_defaults(json=True)
    dg = scenario_command("diagram", "spacetime diagram of a run (SVG)",
                          "order", "outcomes", "seed")
    dg.add_argument("--ascii", action="store_true", help="character grid instead of SVG")
    return parser


_COMMANDS = {
    "run": cmd_run,
    "dist": cmd_dist,
    "orders": cmd_orders,
    "sample": cmd_sample,
    "compare-hk": cmd_compare_hk,
    "diagram": cmd_diagram,
}


def _report(args, kind: str, exc: Exception) -> None:
    if args is not None and getattr(args, "json", False):
        sys.stderr.write(json.dumps({"error": kind, "message": str(exc)}) + "\n")
    else:
        sys.stderr.write(f"error ({kind}): {exc}\n")


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        _report(args, "validation", exc)
        return 1
    except PhysicsError as exc:
        _report(args, "physics", exc)
        return 2
    except OSError as exc:
        _report(args, "io", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
