"""Hand-built paths at the edges of the float range, shared by the test
modules: numpy scalars where floats are expected, a -0.0 angle, subnormal
and 1e300 coordinates."""

from __future__ import annotations

import math

import numpy as np

from parammp import (
    ArcMove,
    ConfigurationQuery,
    FrameMode,
    LinearMove,
    PathSegment,
    PiecewisePath,
    PlanResult,
    classify,
    make_frame,
)

TINY = 5e-324  # the smallest subnormal


def extreme_path() -> PiecewisePath:
    """Robot 0 swings a half circle of np.float64 radius 1e299 about
    (1e300, 0), from np.float64 angle -0.0 to np.float64 pi; robot 1 rests,
    then moves between subnormal points, on ticks over 4."""
    arc = ArcMove(
        center=np.array([1e300, 0.0]),
        radius=np.float64(1e299),
        basis_u=np.array([1.0, 0.0]),
        basis_v=np.array([0.0, 1.0]),
        angle_start=np.float64(-0.0),
        angle_end=np.float64(math.pi),
    )
    low, high = np.array([TINY, -0.0]), np.array([-TINY, 2.5e-310])
    query = ConfigurationQuery(
        starts=[arc.initial, low], goals=[arc.final, high], obstacles=[[0.0, 1.0]]
    )
    segments = [
        [PathSegment(0, 4, 4, arc)],
        [PathSegment(0, 1, 4, LinearMove(low, low)), PathSegment(1, 4, 4, LinearMove(low, high))],
    ]
    return PiecewisePath(query=query, segments=segments)


def extreme_plan() -> PlanResult:
    """:func:`extreme_path` as a plan result in the fixed frame."""
    path = extreme_path()
    frame = make_frame(path.query, FrameMode.FIXED)
    return PlanResult(path=path, region=classify(path.query, frame), swaps=(), frame=frame)
