"""Independent checks on planned paths: separation certificates, partition
sweeps, continuity probes and an exact-arithmetic classification oracle.

Nothing here reuses the planner's internals beyond evaluating the emitted
segments; the point is to catch construction bugs rather than restate them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from typing import Sequence, Union

import numpy as np

from .errors import ParammpError, QueryValidationError, RegionCrossingError
from .geometry import (
    ConfigurationQuery,
    Frame,
    FrameMode,
    RegionLabel,
    classify,
    make_frame,
    orderings,
)
from .paths import LinearMove, PiecewisePath
from .planner import plan

__all__ = [
    "MAX_SAMPLES_PER_SEGMENT",
    "PairSeparation",
    "PartitionReport",
    "QueryPerturbation",
    "SeparationCertificate",
    "certify_separation",
    "check_partition",
    "classify_oracle",
    "continuity_probe",
    "degenerate_query",
    "evaluate_path",
    "random_query",
    "random_rational_query",
]

# Bounds samples_per_segment: a certificate window holds (samples + 1) x (n + m) x d floats.
MAX_SAMPLES_PER_SEGMENT = 4096


def evaluate_path(path: PiecewisePath, t: float):
    """Robot positions at global time t plus the (unchanged) obstacles."""
    if t < 0 or t > 1:
        raise ValueError(f"time {t} outside [0, 1]")
    return path.configuration(t), path.obstacles


@dataclass(frozen=True)
class PairSeparation:
    """Certified separation between one pair of bodies along the whole path.

    ``certified_lower_bound`` is the sampled minimum minus the Lipschitz
    slack accumulated between samples; it never exceeds ``sampled_min`` and
    the pair passes iff it is strictly positive.  ``samples_per_segment``
    counts samples per window of the union of all robots' segment bounds.
    """

    kind: str  # "robot-robot" or "robot-obstacle"
    first: int
    second: int
    sampled_min: float
    certified_lower_bound: float
    samples_per_segment: int

    @property
    def passes(self) -> bool:
        return self.certified_lower_bound > 0.0


@dataclass(frozen=True)
class SeparationCertificate:
    pairs: tuple[PairSeparation, ...]
    samples_per_segment: int

    @property
    def passed(self) -> bool:
        return all(pair.passes for pair in self.pairs)

    @property
    def min_certified(self) -> float:
        return min(pair.certified_lower_bound for pair in self.pairs)

    def pair(self, kind: str, first: int, second: int) -> PairSeparation:
        for p in self.pairs:
            if (p.kind, p.first, p.second) == (kind, first, second):
                return p
        raise KeyError((kind, first, second))


def certify_separation(
    path: PiecewisePath, samples_per_segment: int = 64
) -> SeparationCertificate:
    """Sampled-plus-slack lower bounds on every pairwise distance.

    The time grid is the union of every robot's segment bounds, so on each of
    its windows every body follows a single segment.  Each window is sampled
    ``samples_per_segment + 1`` times, for all pairs at once and one
    coordinate at a time (memory per window is O(samples x pairs)).  Between
    adjacent samples f_l, f_r spaced h apart a pair's distance is at least
    (f_l + f_r - L*h) / 2 (two-sided Lipschitz cone), where L bounds the
    pair's relative speed on the window: the exact norm of the relative
    velocity for two straight segments, otherwise the sum of the two segment
    speed bounds.  The cone is exact for a straight-line approach and refines
    monotonically; an unsound path yields a failing certificate, never an
    exception.
    """
    if not (
        isinstance(samples_per_segment, Integral)
        and 2 <= samples_per_segment <= MAX_SAMPLES_PER_SEGMENT
    ):
        raise ValueError(
            "samples_per_segment must be an integer >= 2 and "
            f"<= {MAX_SAMPLES_PER_SEGMENT}, got {samples_per_segment!r}"
        )
    n, m, d = path.robot_count, path.obstacles.shape[0], path.query.dim
    segments = [seg for per_robot in path.segments for seg in per_robot]
    cuts = sorted({Fraction(0)} | {seg.t1 for seg in segments})
    cut_index = {t: w for w, t in enumerate(cuts)}
    # bodies[w] indexes the segment each robot follows on window w, then one
    # index past the segments, standing for a body at rest, per obstacle.
    spans = [cut_index[seg.t1] - cut_index[seg.t0] for seg in segments]
    active = np.repeat(np.arange(len(segments)), spans).reshape(n, -1).T
    bodies = np.hstack([active, np.full((len(active), m), len(segments))])
    # A body's velocity is a constant vector plus a part of bounded norm: a
    # straight segment has no bounded part, an arc no constant part and a
    # body at rest neither.  |v_a - v_b| + w_a + w_b is then the rule for L.
    constant = np.zeros((len(segments) + 1, d))
    bounded = np.zeros(len(segments) + 1)
    for index, seg in enumerate(segments):
        if isinstance(seg.move, LinearMove):
            constant[index] = (seg.move.end - seg.move.start) / float(seg.duration)
        else:
            bounded[index] = seg.speed_bound()

    # Robot-robot pairs i < k, then robot-obstacle pairs (i, j) as bodies n + j.
    first, second = np.triu_indices(n, 1)
    first = np.concatenate([first, np.repeat(np.arange(n), m)])
    second = np.concatenate([second, n + np.tile(np.arange(m), n)])
    sampled = np.full(len(first), np.inf)
    cone_min = np.full(len(first), np.inf)
    at = np.empty((samples_per_segment + 1, n + m, d))
    at[:, n:] = path.obstacles
    bounds = [float(t) for t in cuts]
    for lo, hi, body in zip(bounds, bounds[1:], bodies):
        ts = np.linspace(lo, hi, samples_per_segment + 1)
        at[:, :n] = np.stack([segments[s].at_many(ts) for s in body[:n]], axis=1)
        f = np.sqrt(sum((at[:, first, c] - at[:, second, c]) ** 2 for c in range(d)))
        a, b = body[first], body[second]
        speed = np.linalg.norm(constant[a] - constant[b], axis=1) + bounded[a] + bounded[b]
        h = (hi - lo) / samples_per_segment
        cone = 0.5 * (f[:-1] + f[1:] - speed * h)
        sampled = np.minimum(sampled, f.min(axis=0))
        cone_min = np.minimum(cone_min, cone.min(axis=0))

    kinds = np.where(second < n, "robot-robot", "robot-obstacle").tolist()
    seconds = np.where(second < n, second, second - n).tolist()
    certified = np.minimum(sampled, cone_min).tolist()
    rows = zip(kinds, first.tolist(), seconds, sampled.tolist(), certified)
    return SeparationCertificate(
        pairs=tuple(PairSeparation(*row, samples_per_segment) for row in rows),
        samples_per_segment=samples_per_segment,
    )


@dataclass(frozen=True)
class PartitionReport:
    trials: int
    histogram: dict  # domain index c -> count
    out_of_range: int

    @property
    def realized(self) -> set[int]:
        return set(self.histogram)


def random_query(
    rng: np.random.Generator,
    n: int,
    m: int,
    d: int,
    low: float = -10.0,
    high: float = 10.0,
) -> ConfigurationQuery:
    """Uniform random query in a box, resampled until structurally valid."""
    while True:
        try:
            return ConfigurationQuery(
                starts=rng.uniform(low, high, size=(n, d)),
                goals=rng.uniform(low, high, size=(n, d)),
                obstacles=rng.uniform(low, high, size=(m, d)),
            )
        except QueryValidationError:  # pragma: no cover - measure-zero event
            continue


def random_rational_query(
    rng: np.random.Generator,
    n: int,
    m: int,
    d: int,
    denominator: int = 32,
    span: int = 320,
) -> ConfigurationQuery:
    """Random query with dyadic-rational coordinates k/denominator.

    The coarse grid makes projection coincidences common, which is exactly
    what exercises the degenerate classification branches, while every
    coordinate and every fixed-axis dot product stays exactly representable.
    """
    while True:
        try:
            return ConfigurationQuery(
                starts=rng.integers(-span, span + 1, size=(n, d)) / denominator,
                goals=rng.integers(-span, span + 1, size=(n, d)) / denominator,
                obstacles=rng.integers(-span, span + 1, size=(m, d)) / denominator,
            )
        except QueryValidationError:
            continue


def degenerate_query(
    n: int, m: int, d: int, j: int, t: int, mode: FrameMode = FrameMode.FIXED
) -> ConfigurationQuery:
    """A query whose classification is exactly (j, t) in the given mode.

    Obstacles realize t distinct first-axis values; j robot slots get fresh
    values and the remaining 2n - j slots reuse the first obstacle value.
    Perpendicular coordinates keep all points distinct.  For obstacle-pair
    mode the first two obstacles span the first axis, so projections are
    first-axis values there as well (up to the positive factor |o2 - o1|).
    """
    if not (0 <= j <= 2 * n and 1 <= t <= m):
        raise ValueError(f"no region with j={j}, t={t} for n={n}, m={m}")
    if mode is FrameMode.OBSTACLE_PAIR and t < 2:
        raise ValueError("obstacle-pair mode forces t >= 2")
    obstacles = np.zeros((m, d))
    for k in range(m):
        obstacles[k, 0] = float(min(k, t - 1))
        # In obstacle-pair mode the first two obstacles must span the first
        # axis so that projections stay first-axis values.
        if mode is FrameMode.OBSTACLE_PAIR and k < 2:
            obstacles[k, 1] = 0.0
        else:
            obstacles[k, 1] = float(k + 1)
    starts = np.zeros((n, d))
    goals = np.zeros((n, d))
    fresh = 100.0
    for slot in range(2 * n):
        arr, row = (starts, slot) if slot < n else (goals, slot - n)
        if slot < j:
            arr[row, 0] = fresh
            fresh += 1.0
        else:
            arr[row, 0] = obstacles[0, 0]
        arr[row, 1] = float(-1 - slot)
    return ConfigurationQuery(starts=starts, goals=goals, obstacles=obstacles)


def check_partition(
    n: int,
    m: int,
    d: int,
    mode: Union[FrameMode, str] = FrameMode.FIXED,
    trials: int = 1000,
    seed: int = 0,
    snap_tol: float = 0.0,
) -> PartitionReport:
    """Classify random queries and report the realized domain indices.

    Every query must land in exactly one region with 0 <= j <= 2n and
    1 <= t <= m; counts of c = j + t outside [1, 2n + m] are tallied in
    ``out_of_range`` (and should always be zero).
    """
    mode = FrameMode(mode)
    rng = np.random.default_rng(seed)
    histogram: dict[int, int] = {}
    out_of_range = 0
    for _ in range(trials):
        query = random_query(rng, n, m, d)
        frame = make_frame(query, mode)
        label = classify(query, frame, snap_tol)
        low = 2 if mode is FrameMode.OBSTACLE_PAIR else 1
        if not (0 <= label.j <= 2 * n and 1 <= label.t <= m and low <= label.c <= 2 * n + m):
            out_of_range += 1
        histogram[label.c] = histogram.get(label.c, 0) + 1
    return PartitionReport(trials=trials, histogram=histogram, out_of_range=out_of_range)


@dataclass(frozen=True)
class QueryPerturbation:
    """A direction in query space: per-point displacement arrays."""

    dstarts: np.ndarray
    dgoals: np.ndarray
    dobstacles: np.ndarray

    def apply(self, query: ConfigurationQuery, eps: float) -> ConfigurationQuery:
        return ConfigurationQuery(
            starts=query.starts + eps * np.asarray(self.dstarts, dtype=float),
            goals=query.goals + eps * np.asarray(self.dgoals, dtype=float),
            obstacles=query.obstacles + eps * np.asarray(self.dobstacles, dtype=float),
        )


def continuity_probe(
    query: ConfigurationQuery,
    direction: QueryPerturbation,
    epsilons: Sequence[float],
    mode: Union[FrameMode, str, None] = None,
    time_samples: int = 256,
    snap_tol: float = 0.0,
) -> list[float]:
    """Sup-distance between the base path and paths of perturbed queries.

    All perturbed queries must classify into the same region and ordering
    pair as the base query; otherwise the probe cannot say anything about
    continuity and raises :class:`RegionCrossingError`.

    Returns one sup-distance D(eps) per epsilon, where the supremum runs over
    the sampled times and all robots.
    """
    base = plan(query, mode=mode, snap_tol=snap_tol)
    frame = base.frame
    base_label = classify(query, frame, snap_tol)
    base_patterns = None
    try:
        pair = orderings(query, frame, snap_tol)
        base_patterns = (pair.start_pattern(), pair.goal_pattern())
    except ParammpError:
        pass
    ts = np.linspace(0.0, 1.0, time_samples)
    base_samples = [base.path.positions_at(r, ts) for r in range(query.robot_count)]

    out: list[float] = []
    for eps in epsilons:
        perturbed = direction.apply(query, eps)
        p_frame = make_frame(perturbed, base.mode)
        p_label = classify(perturbed, p_frame, snap_tol)
        if p_label != base_label:
            raise RegionCrossingError(
                f"perturbation eps={eps} moved the query from {base_label} to {p_label}"
            )
        if base_patterns is not None:
            p_pair = orderings(perturbed, p_frame, snap_tol)
            if (p_pair.start_pattern(), p_pair.goal_pattern()) != base_patterns:
                raise RegionCrossingError(
                    f"perturbation eps={eps} changed the ordering pair"
                )
        result = plan(perturbed, mode=base.mode, snap_tol=snap_tol)
        worst = 0.0
        for r in range(query.robot_count):
            delta = result.path.positions_at(r, ts) - base_samples[r]
            worst = max(worst, float(np.max(np.linalg.norm(delta, axis=1))))
        out.append(worst)
    return out


def _exact_values(points: np.ndarray, axis_fractions) -> list:
    values = []
    for row in points:
        acc = Fraction(0)
        for coord, a in zip(row, axis_fractions):
            acc += Fraction(float(coord)) * a
        values.append(acc)
    return values


def classify_oracle(query: ConfigurationQuery, frame: Frame) -> RegionLabel:
    """Classification recomputed with exact rational arithmetic.

    Uses the frame's mode to rebuild the comparison direction exactly: the
    first coordinate axis for fixed frames, the unnormalized difference
    o2 - o1 for obstacle-pair frames.  Floating-point coordinates convert to
    rationals losslessly, so the returned label is exact; it must agree with
    :func:`classify` at snap tolerance 0.
    """
    d = query.dim
    if frame.mode is FrameMode.FIXED:
        axis = [Fraction(1)] + [Fraction(0)] * (d - 1)
    else:
        axis = [
            Fraction(float(query.obstacles[1][k])) - Fraction(float(query.obstacles[0][k]))
            for k in range(d)
        ]
    start_vals = _exact_values(query.starts, axis)
    goal_vals = _exact_values(query.goals, axis)
    obst_vals = _exact_values(query.obstacles, axis)
    obstacle_set = set(obst_vals)
    robot_only = {v for v in start_vals + goal_vals if v not in obstacle_set}
    return RegionLabel(j=len(robot_only), t=len(obstacle_set))
