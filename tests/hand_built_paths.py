"""Hand-built paths at the edges of the float range (numpy scalars where
floats are expected, a -0.0 angle, subnormal and 1e300 coordinates), and
readers of a path's rows, shared by the test modules."""

from __future__ import annotations

import math
from operator import itemgetter

import numpy as np

from parammp import (
    CaseASwap,
    ConfigurationQuery,
    FrameMode,
    PiecewisePath,
    PlanResult,
    arc_row,
    classify,
    line_row,
    make_frame,
)
from parammp.paths import ANGLE, END, RADIUS, VECTORS, row_final, row_initial

TINY = 5e-324  # the smallest subnormal


def extreme_rows() -> list:
    """The entries of :func:`extreme_path`, as ``from_rows`` takes them."""
    arc = arc_row(
        [1e300, 0.0], np.float64(1e299), [1.0, 0.0], [0.0, 1.0],
        np.float64(-0.0), np.float64(math.pi),
    )
    low, high = [TINY, -0.0], [-TINY, 2.5e-310]
    return [[(0, 4, arc)], [(0, 1, line_row(low, low)), (1, 4, line_row(low, high))]]


def extreme_path() -> PiecewisePath:
    """Robot 0 swings a half circle of np.float64 radius 1e299 about
    (1e300, 0), from np.float64 angle -0.0 to np.float64 pi; robot 1 rests,
    then moves between subnormal points, on ticks over 4."""
    rows = extreme_rows()
    query = ConfigurationQuery(
        starts=[row_initial(per[0][2], 2) for per in rows],
        goals=[row_final(per[-1][2], 2) for per in rows],
        obstacles=[[0.0, 1.0]],
    )
    return PiecewisePath.from_rows(query, 4, rows)


def extreme_plan() -> PlanResult:
    """:func:`extreme_path` as a plan result in the fixed frame."""
    path = extreme_path()
    frame = make_frame(path.query, FrameMode.FIXED)
    return PlanResult(path=path, region=classify(path.query, frame), swaps=(), frame=frame)


def path_rows(path: PiecewisePath) -> list:
    """Per robot, the ``(start tick, stop tick, row)`` entries that
    ``from_rows`` builds ``path`` from, read back from its body table by
    named rows: a line's origin, then its final point; an arc's origin (its
    center), radius, basis_u, basis_v, start angle and end angle, then its
    initial and final points.  The rows the path keeps are not read."""
    columns, d = path._columns, path.query.dim

    def vector(k):
        return range(VECTORS + k * d, VECTORS + (k + 1) * d)

    line = itemgetter(*vector(0), *vector(5))
    arc = itemgetter(*vector(0), RADIUS, *vector(2), *vector(3), ANGLE, END, *vector(4), *vector(5))
    entries = [
        (start, stop, (arc if is_arc else line)(column))
        for start, stop, is_arc, column in zip(
            *columns.ticks.tolist(),
            columns.arc.tolist(),
            columns.table[:, : len(columns.arc)].T.tolist(),
        )
    ]
    return [
        entries[lo : lo + count]
        for lo, count in zip(columns.first.tolist(), columns.counts.tolist())
    ]


def case_a_radii(result: PlanResult) -> list:
    """The arc radius of each Case A swap of a generic query's plan, in swap
    order: swap i's left robot plays its arc on tick 3i + 1."""
    rows, d = path_rows(result.path), result.path.query.dim
    return [
        row_fields(row, d)["radius"]
        for i, swap in enumerate(result.swaps)
        if isinstance(swap, CaseASwap)
        for start, _, row in rows[swap.left]
        if start == 3 * i + 1
    ]


def row_fields(row, d: int) -> dict:
    """The plan-JSON fields of ``row``, a row in R^d, by name, its ``kind``
    and its ``initial`` and ``final`` points; points as arrays."""
    if len(row) == 2 * d:
        fields = {"kind": "linear", "start": row[:d], "end": row[d:]}
    else:
        fields = {
            "kind": "arc",
            "center": row[:d],
            "radius": row[d],
            "basis_u": row[d + 1 : 2 * d + 1],
            "basis_v": row[2 * d + 1 : 3 * d + 1],
            "angle_start": row[3 * d + 1],
            "angle_end": row[3 * d + 2],
        }
    fields["initial"], fields["final"] = row_initial(row, d), row_final(row, d)
    return {
        name: np.array(value) if isinstance(value, tuple) else value
        for name, value in fields.items()
    }


def row_at(row, d: int, u) -> np.ndarray:
    """Positions (len(u), d) along ``row``, a row in R^d, at local times
    ``u``, by the line and arc formulas written out apart from the
    library's."""
    u = np.asarray(u, dtype=float)[:, None]
    f = row_fields(row, d)
    if f["kind"] == "linear":
        return f["start"] + u * (f["end"] - f["start"])
    theta = f["angle_start"] + u * (f["angle_end"] - f["angle_start"])
    along, across = f["radius"] * np.cos(theta), f["radius"] * np.sin(theta)
    return f["center"] + along * f["basis_u"] + across * f["basis_v"]
