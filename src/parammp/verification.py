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
from .paths import ArcMove, LinearMove, PiecewisePath
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
    "random_query",
    "random_rational_query",
]

# Bounds samples_per_segment: a fallback entry holds (samples + 1) x d floats.
MAX_SAMPLES_PER_SEGMENT = 4096
# (window, pair) entries per block of certification work, so that memory stays
# flat however many pairs a path touches.
_BLOCK = 1 << 10
_EPS = float(np.finfo(float).eps)
# Body kinds on a window, in the order that puts a pair's higher kind first.
_POINT, _LINE, _ARC = 0, 1, 2


@dataclass(frozen=True)
class PairSeparation:
    """Certified separation between one pair of bodies along the whole path.

    ``sampled_min`` is the smallest distance the certifier evaluated on the
    path and ``certified_lower_bound`` a lower bound on the true minimum: the
    closed-form minimum of each window less a rounding margin, or, for the
    fallback pairs (an arc against a moving line or another arc), the sampled
    Lipschitz cone less that margin (see :func:`certify_separation`).  The
    bound never exceeds ``sampled_min`` and the pair passes iff it is
    strictly positive.  ``samples_per_segment`` counts samples per window of
    the union of all robots' segment bounds; only fallback pairs are sampled.
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
    """Lower bounds on every pairwise distance, in closed form where the
    pair's motion allows it.

    The time grid is the union of every robot's segment bounds, so on each of
    its windows [lo, hi] every body follows one segment.  A body is a *point*
    there (an obstacle, a rest or a zero-sweep arc), a *line* (a moving
    straight segment, affine in t) or an *arc*.  A robot is touched on a
    window when it moves there or changes segment at its start; only the
    (window, pair) entries with a touched body are evaluated, because a pair
    of resting bodies keeps its distance.  Each entry's minimum distance is:

    - point-point: the distance, evaluated once;
    - line-point and line-line: the relative position is A + tau D for tau in
      [0, 1], smallest at tau* = clamp(-A.D / D.D, 0, 1), or 0 if D.D = 0;
    - arc-point: with p the point less the center, at the angle
      atan2(p.basis_v, p.basis_u), moved by whole turns next to the window's
      angle range, if it falls in that range, and else at an end;
    - arc-arc and arc-line (the fallback): sampled ``samples_per_segment + 1``
      times, between neighbouring samples f_l, f_r spaced h apart at least
      (f_l + f_r - L h) / 2, where L is the exact norm of the relative
      velocity of straight segments plus the arcs' speed bounds.

    Each closed form evaluates the distance at both window ends and at the
    minimizer's time, with the segments' own position formulas, and
    ``sampled_min`` is the smallest distance evaluated.  The bound is
    ``sampled_min`` less a margin; a point-point pair has none, as its
    distance is the same float at every time.  The margin rule:

    - E = (8 + d) eps (M_a + M_b) bounds the rounding of one evaluated
      distance.  M is |x| for an obstacle, |start| + 4 |end - start| for a
      straight segment and |center| + r (2 + |angle_start| + 2 |sweep|) for
      an arc; an arc whose basis is beta away from orthonormal adds 8 r beta
      to E, its distance from a true circle.
    - delta bounds the minimizer's error: for lines, in window fraction,
      delta = 7 E (|A| + |D|) / |D|^2 + 2 eps / (hi - lo); for arcs, in angle,
      delta = (2 E + 4 beta |p|) / rho + (8 + d) eps (4 + |angle_start| +
      |sweep| (2 + 1 / duration)), rho being the length of p in the arc's
      plane.  The distance at the evaluated time then exceeds the minimum by
      at most s = 2 L delta (lines, L = |D| in the 1-norm) or
      s = 2 delta sqrt(r max(r, rho)) (arcs), and its square by at most s^2.
      The excess is thus at most min(s, s^2 / (f* - E), V), where f* is the
      distance evaluated at the minimizer and V bounds the distance's
      variation on the window: L for lines, and for arcs r times the angle
      range or 2 min(r, rho).  The s^2 term is used only when f* > E, and
      for lines only when delta < 1.
    - The margin is E plus the excess; a fallback entry's is E alone.
    - Lines and points have a second bound, which needs no minimizer and so
      holds up where delta >= 1 (as when |D|^2 is near the rounding of A.D):
      on tau in [0, 1], |A + tau D|^2 >= |A|^2 + 2 min(0, A.D).  E also
      bounds the error of an evaluated relative position, so the rounding of
      that square is at most 10 E (|A| + |D| + E); the bound is the square
      root of the square less this margin (none where that is negative).
      The entry keeps the larger of its two bounds, capped at
      ``sampled_min``.

    Entries are gathered from the touched robots' pair rows and processed in
    blocks of at most ``_BLOCK``, with no loop over windows and no
    windows-by-pairs array.  An unsound path yields a failing certificate,
    never an exception; so does a path whose arithmetic overflows, as a bound
    that is not finite becomes -inf.
    """
    if not (
        isinstance(samples_per_segment, Integral)
        and 2 <= samples_per_segment <= MAX_SAMPLES_PER_SEGMENT
    ):
        raise ValueError(
            "samples_per_segment must be an integer >= 2 and "
            f"<= {MAX_SAMPLES_PER_SEGMENT}, got {samples_per_segment!r}"
        )
    n, m = path.robot_count, path.obstacles.shape[0]
    segments = [seg for per_robot in path.segments for seg in per_robot]
    # The union grid on the path's integer ticks: int true division rounds
    # tick / den exactly as float(Fraction(tick, den)) does.
    ticks = [seg.stop for seg in segments]
    cuts = sorted({0, *ticks})
    cut_index = {t: w for w, t in enumerate(cuts)}
    # Windows per segment: up to its end, from the previous segment's end or,
    # for a robot's first segment, from 0.
    ends = np.array([cut_index[t] for t in ticks])
    spans = np.diff(ends, prepend=0)
    firsts = np.cumsum([0] + [len(per_robot) for per_robot in path.segments[:-1]])
    spans[firsts] = ends[firsts]
    # active[w, r] is the segment robot r follows on window w.
    active = np.repeat(np.arange(len(segments)), spans).reshape(n, -1).T
    bounds = np.array([t / path.den for t in cuts])

    # Robot-robot pairs i < k, then robot-obstacle pairs (i, j) as bodies n + j;
    # pair_of[r, k] is the pair of robot r and body k.
    first, second = np.triu_indices(n, 1)
    first = np.concatenate([first, np.repeat(np.arange(n), m)])
    second = np.concatenate([second, n + np.tile(np.arange(m), n)])
    pair_of = np.full((n, n + m), -1)
    pair_of[first, second] = np.arange(len(first))
    robot_pairs = np.flatnonzero(second < n)
    pair_of[second[robot_pairs], first[robot_pairs]] = robot_pairs
    sampled = np.full(len(first), np.inf)
    certified = np.full(len(first), np.inf)
    with np.errstate(all="ignore"):
        bodies = _Bodies(segments, path.obstacles)
        rest = bodies.kind[: len(segments)] == _POINT
        touched = np.ones(active.shape, dtype=bool)
        touched[1:] = (active[1:] != active[:-1]) | ~rest[active[1:]]
        # Each touched robot meets every obstacle and every robot that is
        # untouched or, touched too, comes after it: each entry once.
        item_w, item_r = np.nonzero(touched)
        robots = np.arange(n)
        chunk = max(1, _BLOCK // (n + m))
        for block in range(0, len(item_w), chunk):
            w, r = item_w[block : block + chunk], item_r[block : block + chunk]
            keep = np.ones((len(w), n + m), dtype=bool)
            keep[:, :n] = ~touched[w] | (robots > r[:, None])
            row, other = np.nonzero(keep)
            w, r = w[row], r[row]
            partner = np.where(
                other < n, active[w, np.minimum(other, n - 1)], len(segments) + other - n
            )
            low, bound = bodies.minima(
                active[w, r], partner, bounds[w], bounds[w + 1], samples_per_segment
            )
            pairs = pair_of[r, other]
            np.minimum.at(sampled, pairs, low)
            np.minimum.at(certified, pairs, bound)
    certified[~np.isfinite(certified)] = -np.inf

    kinds = np.where(second < n, "robot-robot", "robot-obstacle").tolist()
    seconds = np.where(second < n, second, second - n).tolist()
    rows = zip(kinds, first.tolist(), seconds, sampled.tolist(), certified.tolist())
    return SeparationCertificate(
        pairs=tuple(PairSeparation(*row, samples_per_segment) for row in rows),
        samples_per_segment=samples_per_segment,
    )


def _distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise |a - b| of (d, k) arrays, summing squares in coordinate order."""
    return np.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return sum(x * y for x, y in zip(a, b))


class _Bodies:
    """Every segment of a path, then every obstacle, as columns of arrays
    (coordinates first): the body's kind, the operands of its position
    formula, and the rounding slack of one evaluation."""

    def __init__(self, segments, obstacles: np.ndarray):
        count, (m, d) = len(segments), obstacles.shape
        moves = [seg.move for seg in segments]
        lines = [i for i, move in enumerate(moves) if isinstance(move, LinearMove)]
        arcs = [i for i, move in enumerate(moves) if isinstance(move, ArcMove)]
        self.t0 = np.array([seg._float_t0 for seg in segments] + [0.0] * m)
        self.duration = np.array([seg._float_duration for seg in segments] + [1.0] * m)
        origin = np.empty((count + m, d))
        origin[count:] = obstacles
        step = np.zeros((count + m, d))  # end - start of a straight segment
        basis_u, basis_v = np.zeros((count + m, d)), np.zeros((count + m, d))
        self.radius = np.zeros(count + m)
        self.angle = np.zeros(count + m)
        self.sweep = np.zeros(count + m)
        if lines:
            origin[lines] = [moves[i].start for i in lines]
            step[lines] = [moves[i].end for i in lines] - origin[lines]
        if arcs:
            origin[arcs] = [moves[i].center for i in arcs]
            basis_u[arcs] = [moves[i].basis_u for i in arcs]
            basis_v[arcs] = [moves[i].basis_v for i in arcs]
            self.radius[arcs] = [moves[i].radius for i in arcs]
            self.angle[arcs] = [moves[i].angle_start for i in arcs]
            self.sweep[arcs] = [moves[i].angle_end for i in arcs] - self.angle[arcs]
        self.origin, self.step = origin.T.copy(), step.T.copy()
        self.basis_u, self.basis_v = basis_u.T.copy(), basis_v.T.copy()
        # A velocity is a constant vector plus a part of bounded norm: a
        # straight segment has no bounded part, an arc no constant part.
        self.constant = self.step / self.duration
        self.bounded = self.radius * np.abs(self.sweep) / self.duration
        arc = self.radius > 0
        self.kind = np.where(arc, _ARC, _LINE)
        self.kind[(self.bounded == 0) & ~self.constant.any(axis=0)] = _POINT
        # beta: how far an arc's basis is from orthonormal.
        u, v = self.basis_u, self.basis_v
        self.beta = np.maximum.reduce(
            [abs(np.sqrt(_dot(u, u)) - 1), abs(np.sqrt(_dot(v, v)) - 1), abs(_dot(u, v))]
        )
        self.beta[~arc] = 0.0
        size = np.sqrt(_dot(self.origin, self.origin)) + np.where(
            arc,
            self.radius * (2 + np.abs(self.angle) + 2 * np.abs(self.sweep)),
            4 * np.sqrt(_dot(self.step, self.step)),
        )
        self.slack = (8 + d) * _EPS * size + 8 * self.radius * self.beta

    def at(self, body: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Positions (d, k) of the bodies at global times t, by the segments'
        own formulas: a straight segment has radius 0 and an arc no step, and
        those zero terms leave every float as the segment computes it."""
        u = (t - self.t0.take(body)) / self.duration.take(body)
        theta = self.angle.take(body) + u * self.sweep.take(body)
        radius = self.radius.take(body)
        out = self.origin.take(body, axis=1)
        out += u * self.step.take(body, axis=1)
        out += radius * np.cos(theta) * self.basis_u.take(body, axis=1)
        out += radius * np.sin(theta) * self.basis_v.take(body, axis=1)
        return out

    def minima(self, a, b, lo, hi, samples: int):
        """(smallest evaluated distance, certified lower bound) of bodies a
        and b on each window [lo, hi]."""
        # Put the higher kind first: point < line < arc.
        swap = self.kind[a] < self.kind[b]
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        k, both = len(a), np.concatenate([a, b])
        start, end = (self.at(both, np.concatenate([s, s])) for s in (lo, hi))
        start_a, start_b, end_a, end_b = start[:, :k], start[:, k:], end[:, :k], end[:, k:]
        kind_a, kind_b = self.kind[a], self.kind[b]
        slack = self.slack[a] + self.slack[b]
        f_lo, f_hi = _distance(start_a, start_b), _distance(end_a, end_b)

        # Lines and points: the relative position A + tau D, tau in [0, 1].
        rel = start_a - start_b
        step = end_a - end_b - rel
        dd = _dot(step, step)
        tau = np.where(dd > 0, np.clip(-_dot(rel, step) / dd, 0.0, 1.0), 0.0)
        t = np.minimum(lo + tau * (hi - lo), hi)
        span = np.abs(step).sum(axis=0)
        delta = 7 * slack * (f_lo + np.sqrt(dd)) / dd + 2 * _EPS / (hi - lo)
        quadratic = span * delta < span
        excess, variation = 2 * span * delta, span

        # An arc against a point: the angle nearest the point, if in range.
        arc = np.flatnonzero((kind_a == _ARC) & (kind_b == _POINT))
        if arc.size:
            c, lo_c, hi_c = a[arc], lo[arc], hi[arc]
            t0, duration = self.t0[c], self.duration[c]
            radius, angle, sweep = self.radius[c], self.angle[c], self.sweep[c]
            p = start_b[:, arc] - self.origin[:, c]
            x, y = _dot(p, self.basis_u[:, c]), _dot(p, self.basis_v[:, c])
            rho = np.hypot(x, y)
            first = angle + (lo_c - t0) / duration * sweep
            last = angle + (hi_c - t0) / duration * sweep
            theta = np.arctan2(y, x)
            theta += 2 * np.pi * np.round((0.5 * (first + last) - theta) / (2 * np.pi))
            inside = (theta - first) * (theta - last) <= 0
            t_arc = np.clip(t0 + (theta - angle) / sweep * duration, lo_c, hi_c)
            t[arc] = np.where(inside, t_arc, lo_c)
            error = (2 * slack[arc] + 4 * self.beta[c] * np.sqrt(_dot(p, p))) / rho + (
                8 + len(p)
            ) * _EPS * (4 + np.abs(angle) + np.abs(sweep) * (2 + 1 / duration))
            excess[arc] = 2 * error * np.sqrt(radius * np.maximum(radius, rho))
            variation[arc] = np.minimum(
                radius * np.abs(last - first), 2 * np.minimum(radius, rho)
            )
            quadratic[arc] = True

        star = self.at(both, np.concatenate([t, t]))
        f_star = _distance(star[:, :k], star[:, k:])
        low = np.minimum(np.minimum(f_lo, f_hi), f_star)
        above = f_star - slack
        quadratic &= above > 0
        excess = np.fmin(
            np.fmin(excess, np.where(quadratic, excess * excess / above, np.inf)), variation
        )
        points = (kind_a == _POINT) & (kind_b == _POINT)
        bound = low - np.where(points, 0.0, slack + excess)
        # Lines and points, also: |A + tau D|^2 >= |A|^2 + 2 min(0, A.D).
        square = f_lo * f_lo + 2 * np.minimum(0.0, _dot(rel, step))
        square -= 10 * slack * (f_lo + np.sqrt(dd) + slack)
        straight = (kind_a != _ARC) & ~points
        bound[straight] = np.fmax(bound[straight], np.minimum(low, np.sqrt(square))[straight])

        # Arc-arc and arc-line: the sampled Lipschitz cone, less E.
        fallback = np.flatnonzero((kind_a == _ARC) & (kind_b != _POINT))
        chunk = max(1, _BLOCK // (samples + 1))
        for block in range(0, len(fallback), chunk):
            j = fallback[block : block + chunk]
            low[j], bound[j] = self._cone(a[j], b[j], lo[j], hi[j], samples)
            bound[j] -= slack[j]
        return low, bound

    def _cone(self, a, b, lo, hi, samples: int):
        ts = np.linspace(lo, hi, samples + 1)
        flat = ts.ravel()
        f = _distance(
            self.at(np.tile(a, samples + 1), flat), self.at(np.tile(b, samples + 1), flat)
        ).reshape(ts.shape)
        relative = self.constant[:, a] - self.constant[:, b]
        speed = np.sqrt(_dot(relative, relative)) + self.bounded[a] + self.bounded[b]
        cone = 0.5 * (f[:-1] + f[1:] - speed * (hi - lo) / samples)
        low = f.min(axis=0)
        return low, np.minimum(low, cone.min(axis=0))


@dataclass(frozen=True)
class PartitionReport:
    trials: int
    histogram: dict  # domain index c -> count
    out_of_range: int


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
) -> PartitionReport:
    """Classify random queries and report the domain indices reached.

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
        label = classify(query, frame)
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
) -> list[float]:
    """Sup-distance between the base path and paths of perturbed queries.

    All perturbed queries must classify into the same region and ordering
    pair as the base query; otherwise the probe cannot say anything about
    continuity and raises :class:`RegionCrossingError`.

    Returns one sup-distance D(eps) per epsilon, where the supremum runs over
    the sampled times and all robots.
    """
    base = plan(query, mode=mode)
    frame = base.frame
    base_label = classify(query, frame)
    base_pair = None
    try:
        base_pair = orderings(query, frame)
    except ParammpError:
        pass
    ts = np.linspace(0.0, 1.0, time_samples)
    base_samples = [base.path.positions_at(r, ts) for r in range(query.robot_count)]

    out: list[float] = []
    for eps in epsilons:
        perturbed = direction.apply(query, eps)
        p_frame = make_frame(perturbed, base.mode)
        p_label = classify(perturbed, p_frame)
        if p_label != base_label:
            raise RegionCrossingError(
                f"perturbation eps={eps} moved the query from {base_label} to {p_label}"
            )
        if base_pair is not None and orderings(perturbed, p_frame) != base_pair:
            raise RegionCrossingError(f"perturbation eps={eps} changed the ordering pair")
        result = plan(perturbed, mode=base.mode)
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
