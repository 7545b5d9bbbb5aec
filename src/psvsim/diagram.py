"""Spacetime diagrams (SVG 1.1, plus a coarse ASCII fallback).

Time runs upward, space horizontal; only 1+1-dimensional scenarios can be
drawn.  Output is deterministic byte for byte for identical inputs, so
diagrams are golden-file testable.
"""

from __future__ import annotations

import math

import numpy as np

from .engine import RunRecord, Scenario
from .errors import ConfigurationError
from .geometry import Lcsh, surface_times

WIDTH, HEIGHT, MARGIN = 640, 480, 48
COLUMNS, ROWS = 71, 25  # the ASCII grid
SURFACE_SAMPLES = 201

_SURFACE_COLORS = ("#c0392b", "#2471a3", "#1e8449", "#9a7d0a", "#6c3483", "#566573")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _text(cls: str, x: str | int, y: str | int, size: int, text: str, fill: str = "") -> str:
    """A text element; ``text`` is escaped as SVG character data."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    fill = f' fill="{fill}"' if fill else ""
    return f'<text class="{cls}" x="{x}" y="{y}" font-size="{size}"{fill}>{text}</text>'


class _Frame:
    def __init__(self, x_range, t_range):
        self.x0, self.x1 = x_range
        self.t0, self.t1 = t_range

    def px(self, x: float) -> float:
        return MARGIN + (x - self.x0) / (self.x1 - self.x0) * (WIDTH - 2 * MARGIN)

    def py(self, t: float) -> float:
        return MARGIN + (self.t1 - t) / (self.t1 - self.t0) * (HEIGHT - 2 * MARGIN)

    def point(self, x: float, t: float) -> str:
        return f"{_fmt(self.px(x))},{_fmt(self.py(t))}"


def _bounds(scenario: Scenario) -> tuple[tuple[float, float], tuple[float, float]]:
    """The drawn x and t ranges.  Coordinates near the float limit can
    make a range or its span overflow, and then no point can be placed:
    that is a ``ConfigurationError``."""
    points = [*scenario.events, *(p for _, line in scenario.worldlines for p in line)]
    xs = [p.x[0] for p in points] or [0.0]
    x_range = (min(xs) - 1.5, max(xs) + 1.5)
    ts = [p.t for p in points]
    if math.isfinite(scenario.initial_t0):
        ts.append(scenario.initial_t0)
    if not ts:
        ts = [0.0]
    tspan = max(ts) - min(ts) or 1.0
    t_range = (min(ts) - 0.6 * tspan - 0.5, max(ts) + 0.4 * tspan + 0.5)
    (x0, x1), (t0, t1) = x_range, t_range
    if not (math.isfinite(x1 - x0) and math.isfinite(t1 - t0)):
        raise ConfigurationError(f"scenario too large to draw: x from {x0:g} to {x1:g}, "
                                 f"t from {t0:g} to {t1:g}")
    return x_range, t_range


def _surface_path(surface: Lcsh, frame: _Frame) -> str:
    xs = np.linspace(frame.x0, frame.x1, SURFACE_SAMPLES)
    ts = surface_times(surface, xs.reshape(-1, 1))
    ts = np.clip(ts, frame.t0, frame.t1)
    return " ".join(frame.point(x, t) for x, t in zip(xs, ts))


def _scenario_1d(record: RunRecord) -> Scenario:
    """The record's scenario, which must have 1 spatial dimension."""
    scenario = record.scenario
    if scenario.dim != 1:
        raise ConfigurationError(
            f"diagrams are only drawn for 1 spatial dimension, scenario has {scenario.dim}"
        )
    return scenario


def render_svg(record: RunRecord) -> str:
    """Render a run record: the scenario's geometry plus the sequence of
    reduction surfaces."""
    scenario = _scenario_1d(record)
    frame = _Frame(*_bounds(scenario))
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect class="background" x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<rect class="frame" x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#202020"/>',
        _text("axis-label", WIDTH - MARGIN + 6, HEIGHT - MARGIN + 14, 12, "x"),
        _text("axis-label", MARGIN - 18, MARGIN - 8, 12, "t"),
    ]

    if math.isfinite(scenario.initial_t0):
        y = _fmt(frame.py(scenario.initial_t0))
        parts.append(
            f'<line class="initial-surface" x1="{_fmt(frame.px(frame.x0))}" y1="{y}" '
            f'x2="{_fmt(frame.px(frame.x1))}" y2="{y}" stroke="#707070" stroke-dasharray="2,3"/>'
        )
        parts.append(_text("surface-label", MARGIN + 4, _fmt(frame.py(scenario.initial_t0) - 4), 11,
                           "S0", "#707070"))

    for k, step in enumerate(record.steps):
        color = _SURFACE_COLORS[k % len(_SURFACE_COLORS)]
        path = _surface_path(step.surface_after, frame)
        first = path.split(" ", 1)[0]
        last = path.rsplit(" ", 1)[-1]
        bottom = f"{last.split(',')[0]},{_fmt(frame.py(frame.t0))} {first.split(',')[0]},{_fmt(frame.py(frame.t0))}"
        parts.append(
            f'<polygon class="surface-past" points="{path} {bottom}" fill="{color}" '
            f'fill-opacity="0.06" stroke="none"/>'
        )
        parts.append(
            f'<polyline class="surface" points="{path}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        apex = step.surface_after.apexes[-1]
        label_x, y = _fmt(frame.px(apex.x[0]) + 6), frame.py(apex.t)
        parts.append(_text("surface-label", label_x, _fmt(y + 14), 11, f"S{k + 1}-", color))
        parts.append(_text("surface-label", label_x, _fmt(y - 8), 11, f"S{k + 1}+", color))

    for label, line in scenario.worldlines:
        pts = " ".join(frame.point(p.x[0], p.t) for p in line)
        parts.append(
            f'<polyline class="worldline" points="{pts}" fill="none" stroke="#404040" '
            f'stroke-dasharray="5,3"/>'
        )
        end = line[-1]
        parts.append(_text("worldline-label", _fmt(frame.px(end.x[0]) - 14),
                           _fmt(frame.py(end.t) + 4), 10, label, "#404040"))

    for ev in scenario.interactions:
        x, y = frame.px(ev.at.x[0]), frame.py(ev.at.t)
        parts.append(
            f'<rect class="interaction" x="{_fmt(x - 4)}" y="{_fmt(y - 4)}" width="8" height="8" '
            f'fill="#d68910" stroke="#202020"/>'
        )
        parts.append(_text("interaction-label", _fmt(x + 7), _fmt(y + 4), 10, ev.name))

    outcome_by_det = {s.detector: s.outcome for s in record.steps}
    for det in scenario.detectors:
        x, y = frame.px(det.at.x[0]), frame.py(det.at.t)
        parts.append(
            f'<circle class="detector" cx="{_fmt(x)}" cy="{_fmt(y)}" r="5" '
            f'fill="#1a5276" stroke="#202020"/>'
        )
        text = det.label
        if det.label in outcome_by_det:
            text += f": {outcome_by_det[det.label]}"
        parts.append(_text("detector-label", _fmt(x + 8), _fmt(y - 6), 11, text))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_ascii(record: RunRecord) -> str:
    """Coarse character-grid rendering of the same content."""
    scenario = _scenario_1d(record)
    (x0, x1), (t0, t1) = _bounds(scenario)
    grid = [[" "] * COLUMNS for _ in range(ROWS)]

    def put(x: float, t: float, ch: str):
        col = int(round((x - x0) / (x1 - x0) * (COLUMNS - 1)))
        row = int(round((t1 - t) / (t1 - t0) * (ROWS - 1)))
        if 0 <= row < ROWS and 0 <= col < COLUMNS:
            grid[row][col] = ch

    for step in record.steps:
        xs = np.linspace(x0, x1, COLUMNS)
        ts = surface_times(step.surface_after, xs.reshape(-1, 1))
        for x, t in zip(xs, ts):
            if t0 <= t <= t1:
                put(x, t, "~")
    for _, line in scenario.worldlines:
        for a, b in zip(line, line[1:]):
            for f in np.linspace(0.0, 1.0, 40):
                put(a.x[0] + f * (b.x[0] - a.x[0]), a.t + f * (b.t - a.t), ".")
    for ev in scenario.interactions:
        put(ev.at.x[0], ev.at.t, "*")
    for det in scenario.detectors:
        put(det.at.x[0], det.at.t, det.label[0])
    return "\n".join("".join(row).rstrip() for row in grid) + "\n"
