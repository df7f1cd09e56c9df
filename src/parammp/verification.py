"""Independent checks on planned paths: separation certificates, partition
sweeps, continuity probes and an exact-arithmetic classification oracle.

Nothing here reuses the planner's internals beyond reading the emitted
path's table and its position formula; the point is to catch construction
bugs rather than restate them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Integral
from typing import NamedTuple, Sequence, Union

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
from .paths import (
    ANGLE, BETA, DURATION, END, RADIUS, SWEEP, T0, VECTORS, PiecewisePath, _norm, evaluate,
)
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
# (window, pair) entries per block of certification work, so that work memory
# stays flat however many pairs a path touches.  A block of 4096 takes the
# largest certificate of the benchmark's verify-swaps corpus (n = m = 8,
# 3,653 entries) in one pass, which peaks at about 1.3 MB under tracemalloc:
# each entry's work arrays are its gathered positions and values and some
# thirty arrays of one number per entry.  Between the passes each entry that
# pass 1 keeps holds 56 + 32d bytes: its ids, values and cone bound.
_BLOCK = 1 << 12
_EPS = float(np.finfo(float).eps)
PROBE_TIMES = 256  # continuity_probe's times, evenly spaced over [0, 1]
# Body kinds on a window: a pair's kind is its higher kind, then its lower.
# A half turn is an arc that sweeps exactly float pi, as a Case A arc does.
_POINT, _LINE, _ARC, _HALF_TURN = 0, 1, 2, 3


class PairSeparation(NamedTuple):
    """Certified separation between one pair of bodies along the whole path.

    ``sampled_min`` is the smallest distance the certifier evaluated on the
    path and ``certified_lower_bound`` a lower bound on the true minimum,
    the smallest of one bound per window (see :func:`certify_separation`):
    for straight pairs (lines and points), the segment bound; for an arc
    against a point, the closed-form minimum less its margin, else the
    circle's bound; for a Case A pair, its closed form; for the fallback
    pairs (an arc against a moving line, or against another arc that is not
    its Case A twin), the sampled Lipschitz cone less a rounding margin.
    The bound never exceeds ``sampled_min`` and the pair passes iff it is
    strictly positive.
    """

    kind: str  # "robot-robot" or "robot-obstacle"
    first: int
    second: int
    sampled_min: float
    certified_lower_bound: float

    @property
    def passes(self) -> bool:
        return self.certified_lower_bound > 0.0


@dataclass(frozen=True)
class SeparationCertificate:
    """One :class:`PairSeparation` per pair of bodies."""

    pairs: tuple[PairSeparation, ...]

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
    - a Case A pair: two arcs with the same center, radius, basis, start
      time and duration, whose sweeps and start-angle gap are each float pi
      (pi~) as exact reals, checked by TwoSum with a zero error term.  Their
      angles then stay pi~ apart, so they are 2 r sin(pi~ / 2) |s u - c v|
      apart for a unit (s, c): at least 2 r sqrt(1 - 3 beta), with beta
      below;
    - arc-arc and arc-line otherwise (the fallback): sampled
      ``samples_per_segment + 1`` times, between neighbouring samples f_l,
      f_r spaced h apart at least (f_l + f_r - L h) / 2, where L is the
      exact norm of the relative velocity of straight segments plus the
      arcs' speed bounds.  No path the planner builds has such a pair, so
      ``samples_per_segment`` matters only for paths built elsewhere.

    Each closed form evaluates the distance at both window ends and at the
    minimizer's time, with the path's position formula, and ``sampled_min``
    is the smallest distance evaluated.  A line's minimizer is evaluated
    too, although its bound needs none: so ``sampled_min``, which caps every
    bound, keeps the floats it had when lines had a minimizer bound.  Each
    entry has one bound:

    - E = (8 + d) eps (M_a + M_b) bounds the rounding of one evaluated
      distance.  M is |x| for an obstacle, |start| + 4 |end - start| for a
      straight segment and |center| + r (2 + |angle_start| + 2 |sweep|) for
      an arc; an arc whose basis is beta away from orthonormal adds 8 r beta
      to E, its distance from a true circle.
    - Two points: the distance, which is the same float at every time, with
      no margin.
    - Lines and points otherwise: the distance from 0 to the segment from A
      to A + D, in real arithmetic, capped at ``sampled_min`` (a bound that
      is NaN stays NaN there, and so fails).  Where neither body is an arc, A and A + D are within
      eps (M_a + M_b) of the true relative positions: a straight formula
      rounds by at most eps M / 2 at a window end, a point's not at all,
      and the subtraction by at most eps |A| / 2.  The true motion between
      them is affine, so the true distance is at least the segment's less
      eps (M_a + M_b).  The segment's distance is |A| where A.D >= 0 (it
      moves away from 0 from its start), |A + D| where (A + D).D <= 0 (it
      moves toward 0 up to its end), and else at least its line's,
      |A - (A.D / D.D) D|.  The dot products round by less than
      (d + 2) eps |D| times |A| or |A + D|, so the first two are taken
      where they clear 0 by that much; rounding D and the residual moves
      the third by at most eps |D| + (2d + 8) eps |A|, and each norm rounds
      by less than (d + 2) eps of itself.  An arc, even one with no sweep,
      has no such bound.
    - An arc against a point: the distance evaluated at the minimizer less
      E and its excess.  delta bounds the minimizer's angle error,
      delta = (2 E + 4 beta |p|) / rho + (8 + d) eps (4 + |angle_start| +
      |sweep| (2 + 1 / duration)), rho being the length of p in the arc's
      plane.  The distance at the evaluated time then exceeds the minimum by
      at most s = 2 delta sqrt(r max(r, rho)), and its square by at most
      s^2.  The excess is thus at most min(s, s^2 / (f* - E), V), where f*
      is the distance evaluated at the minimizer and V = min(r times the
      angle range, 2 min(r, rho)) bounds the distance's variation on the
      window; the s^2 term is used only when f* > E.  Where that bound is
      not positive, the entry takes, capped at ``sampled_min``, the point's
      distance from the arc's circle if it is larger: at least |rho - r|,
      less E + ((d + 8) eps + 4 beta) |p|.  E covers the point's rounding
      and the arc's distance from a true circle; the basis is within 3 beta
      of that circle's orthonormal one, which moves rho by at most
      3 beta |p|, and rounding p and rho moves it by less than
      (d + 4) eps |p|.
    - A Case A pair: 2 r sqrt(1 - 3 (beta + (d + 4) eps)) (1 - 8 eps),
      capped at ``sampled_min``: the eps terms cover the rounding of beta
      and of the bound, and sin(pi~ / 2) < 1.
    - A fallback entry: its sampled cone less E.

    Most entries cannot hold their pair's minimum: the rule keeps bodies
    apart along the frame line, and in a stage only a swapping pair, or a
    robot and the block it crosses, come close.  So the entries are read in
    two passes, a broad phase (as in sort-and-sweep) before the closed forms:

    - Pass 1 reads every entry's window-end positions and their distances
      f_lo and f_hi, and takes each pair's smallest, S.  Every closed form
      and the fallback evaluate both window ends, so S >= ``sampled_min``.
    - Pass 2 runs the closed forms only on the entries whose cone bound
      c = (f_lo + f_hi - V (hi - lo)) / 2 - 3E is at most their pair's S,
      or is not finite (NaN or infinite); the others are skipped.  V = V_a +
      V_b, a body's speed bound being |step| / duration + r |sweep| /
      duration, 0 for a point: the bound the fallback cone reads.  Pass 1
      drops an entry already when c exceeds its pair's smallest distance so
      far, which is at least S, and keeps the window ends it read for pass 2.

    The margin 3E.  The true distance D of two bodies (an arc's circle, from
    which E keeps its formula) changes at most V (hi - lo) across the window
    in total, so D(t) >= (D(lo) + D(hi) - V (hi - lo)) / 2 on it; and every
    evaluated distance, f_lo and f_hi included, is within E of D at its
    time.  So the true minimum, and every distance evaluated in the window,
    is at least (f_lo + f_hi - V (hi - lo)) / 2 - 2E, for V and hi - lo
    exact.  Rounding V (|step| in a d-term sum), hi - lo and the cone's sums
    moves the half below E, by at most (2 + d / 16) eps (M_a + M_b): f_lo
    and f_hi are at most M_a + M_b, and the window lies inside both bodies'
    segments, so V (hi - lo) <= |step| + r |sweep| over both bodies, at
    most (M_a + M_b) / 2.  The last subtraction and the comparison with S
    round monotonically, so an entry is skipped only if its exact cone, less
    2E, exceeds S.  Hence:

    - ``sampled_min`` is unchanged bit for bit: a skipped entry's evaluated
      distances all exceed S, and the end that attains S is a kept entry's;
    - a ``certified_lower_bound`` can only rise, and only where a skipped
      entry's margin decided it: a skipped entry's true minimum exceeds S,
      which is at least every bound of the pair;
    - the kept entries depend on S alone, not on the blocks.

    Only the path's column table is read, as the path built it: the union
    grid is its distinct stop ticks, and the bodies are the columns of its
    body table (each segment, then each obstacle), whose beta the path
    worked out when it checked its arcs.  The terms of each body (its kind,
    slack, speed bound and place in the position table) are a few
    operations on whole rows of that table.  All window-end positions come
    from one call of the formula, into a position table: a moving segment
    is evaluated once at each bound of its span, and a body whose formula
    reads no time (a rest, a zero-sweep arc, an obstacle) once, as it gives
    the same floats at every time from its start.  In pass 1 each entry
    gathers its bodies' cone terms and their positions at both window ends
    once, into one array of values that pass 2 reads, with the kinds and
    slacks of the entries it keeps.  Where the minimizer's time is a window
    end, the entry reuses that end's positions: the same columns at the
    same float time give the same floats.  Only entries
    whose minimizer lies strictly inside the window evaluate the formula
    again, and only entries that read body columns (an arc against a point,
    an interior minimizer, a Case A check, a fallback cone) gather them.
    Entries are gathered from the touched robots' pair rows and processed
    in blocks of at most ``_BLOCK``, with no loop over windows and no
    windows-by-pairs array; an entry's arithmetic reads only its own
    operands, so the block size changes no float.  An unsound path yields a
    failing certificate, never an exception; so does a path whose
    arithmetic overflows, as a bound that is not finite becomes -inf.
    ``samples_per_segment`` must be an integer, not a bool, from 2 to
    ``MAX_SAMPLES_PER_SEGMENT`` (ValueError).
    """
    if isinstance(samples_per_segment, bool) or not (
        isinstance(samples_per_segment, Integral)
        and 2 <= samples_per_segment <= MAX_SAMPLES_PER_SEGMENT
    ):
        raise ValueError(
            "samples_per_segment must be an integer >= 2 and "
            f"<= {MAX_SAMPLES_PER_SEGMENT}, got {samples_per_segment!r}"
        )
    n, m = path.robot_count, path.obstacles.shape[0]
    columns = path._columns
    count = len(columns.stop)
    # The union grid on the path's integer ticks, which are below 2**53, so
    # tick / den rounds exactly as float(Fraction(tick, den)) does: 0 and
    # every distinct stop tick.  Each body spans windows up to its end
    # bound: a segment from the previous segment's end or, for a robot's
    # first segment, from 0; an obstacle all of them.  (np.unique would
    # import numpy.ma on first use, about 15 ms and 0.8 MB.)
    cuts = np.sort(columns.stop)
    cuts = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]
    windows = len(cuts)
    bounds = np.zeros(windows + 1)
    np.divide(cuts, path.den, out=bounds[1:])
    ends = np.empty(count + m, dtype=np.intp)
    ends[:count], ends[count:] = cuts.searchsorted(columns.stop, "right"), windows
    spans = ends.copy()
    spans[1:count] -= ends[: count - 1]
    spans[columns.first] = ends[columns.first]
    # active[w, k] is the body robot k follows on window w, or obstacle
    # k - n.
    active = np.arange(count + m).repeat(spans).reshape(n + m, windows).T

    pair_of, labels = _pairs(n, m)
    sampled = np.empty(len(labels[0]))
    sampled.fill(np.inf)
    certified = sampled.copy()
    with np.errstate(all="ignore"):
        bodies = _Bodies(path, bounds, spans, ends)
        robots = active[:, :n]
        touched = np.empty((windows, n), dtype=bool)
        touched[0] = True
        np.not_equal(robots[1:], robots[:-1], out=touched[1:])
        touched[1:] |= (bodies.kind != _POINT)[robots[1:]]
        # Each touched robot meets every obstacle and every robot that is
        # untouched or, touched too, comes after it: each entry once.
        # (Obstacles, bodies n + j, come after every robot.)
        item_w, item_r = touched.nonzero()
        untouched, partner = ~touched, np.arange(n + m)
        chunk = max(1, _BLOCK // (n + m))
        # Pass 1: every entry's window-end distances, into sampled.  An entry
        # whose cone already lies above its pair's smallest distance so far
        # lies above the pair's final one too, and is dropped at once.
        blocks = []
        for block in range(0, len(item_w), chunk):
            w, r = item_w[block : block + chunk], item_r[block : block + chunk]
            keep = partner > r[:, None]
            keep[:, :n] |= untouched[w]
            row, other = keep.nonzero()
            w, r = w[row], r[row]
            a, b = active[w, np.array((r, other))]
            ids = np.array((pair_of[r, other], a, b, w))
            values, nearest, cone = bodies.ends(a, b, w)
            np.minimum.at(sampled, ids[0], nearest)
            blocks.append(_kept([ids, values, cone], sampled))
        # Pass 2: the closed forms on the entries whose cone reaches their
        # pair's smallest window-end distance over the whole path (a lone
        # block was filtered against it in pass 1).
        reach = sampled.copy() if len(blocks) > 1 else None
        for entries in blocks:
            (pairs, *ids), values, _ = entries if reach is None else _kept(entries, reach)
            if len(pairs):
                low, bound = bodies.minima(*ids, values, samples_per_segment)
                np.minimum.at(sampled, pairs, low)
                np.minimum.at(certified, pairs, bound)
    certified[~np.isfinite(certified)] = -np.inf

    rows = zip(*labels, sampled.tolist(), certified.tolist())
    return SeparationCertificate(pairs=tuple(map(PairSeparation._make, rows)))


@lru_cache(maxsize=32)
def _pairs(n: int, m: int):
    """Robot-robot pairs i < k, then robot-obstacle pairs (i, j) as bodies
    n + j: pair_of[r, k] is the pair of robot r and body k, and ``labels``
    each pair's kind, first and second index.  Shared, so read-only."""
    first, second = np.triu_indices(n, 1)
    first = np.concatenate([first, np.repeat(np.arange(n), m)])
    second = np.concatenate([second, n + np.tile(np.arange(m), n)])
    pair_of = np.full((n, n + m), -1)
    pair_of[first, second] = np.arange(len(first))
    robot_pairs = np.flatnonzero(second < n)
    pair_of[second[robot_pairs], first[robot_pairs]] = robot_pairs
    pair_of.setflags(write=False)
    kinds = np.where(second < n, "robot-robot", "robot-obstacle")
    labels = (kinds, first, np.where(second < n, second, second - n))
    return pair_of, tuple(tuple(label.tolist()) for label in labels)


def _may_set_minimum(cone, reach) -> np.ndarray:
    """Which entries :func:`certify_separation` certifies: those whose cone
    bound is not above ``reach``, their pair's smallest window-end distance,
    or is not finite."""
    return ~((cone > reach) & (cone < np.inf))


def _kept(entries, reach):
    """The entries that :func:`_may_set_minimum` keeps against ``reach``,
    of arrays whose last axis runs over entries: their ids (pair, bodies a
    and b, window) first, their cone bounds last."""
    kept = _may_set_minimum(entries[-1], reach[entries[0][0]]).nonzero()[0]
    return [x.take(kept, axis=-1) for x in entries]


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise dot products of the (d, ...) arrays stacked in a with b,
    summed as :func:`_norm` sums, from +0.0."""
    return np.add.reduce(a * b, axis=1, initial=0.0)


def _two_sum(x: np.ndarray, y: np.ndarray):
    """x + y rounded, and the error of that rounding, exactly (Knuth's
    TwoSum): the error is 0 iff the rounded sum is the exact one."""
    total = x + y
    y_part = total - x
    return total, (x - (total - y_part)) + (y - y_part)


def _nearest_tau(rel, final, f_lo, f_hi, lo, hi):
    """For lines and points, whose relative position A + tau D runs from
    rel to final: the time of the nearest tau in [0, 1], and the segment's
    distance from 0 less its rounding margin, the bound of
    :func:`certify_separation`."""
    d = len(rel)
    step = final - rel
    dd, along, ahead = _dots(np.array((step, rel, final)), step)
    length = np.sqrt(dd)
    sure = (d + 2) * _EPS * length
    line = _norm(rel - along / dd * step) - ((2 * d + 8) * _EPS * f_lo + _EPS * length)
    segment = np.where(along >= sure * f_lo, f_lo, np.where(ahead <= -sure * f_hi, f_hi, line))
    segment *= 1 - (d + 2) * _EPS
    tau = np.where(dd > 0, np.minimum(np.maximum(-along / dd, 0.0), 1.0), 0.0)
    return np.minimum(lo + tau * (hi - lo), hi), segment


def _nearest_angle(c, point, slack, lo, hi):
    """For arcs (body table columns c) against points (positions point): the
    time of the arc's angle nearest the point if in [lo, hi], else lo, the
    excess and variation bounds of :func:`certify_separation`, and its bound
    by the arc's circle."""
    angle, beta, (t0, duration, sweep, radius) = c[ANGLE], c[BETA], c[T0:VECTORS]
    origin, _, basis_u, basis_v = c[VECTORS:].reshape(6, -1, c.shape[1])[:4]
    p = point - origin
    x, y, square = _dots(np.array((basis_u, basis_v, p)), p)
    rho = np.hypot(x, y)
    # The arc's angles at the window's ends.
    first, last = angle + (np.array((lo, hi)) - t0) / duration * sweep
    theta = np.arctan2(y, x)
    theta += 2 * np.pi * np.rint((0.5 * (first + last) - theta) / (2 * np.pi))
    inside = (theta - first) * (theta - last) <= 0
    t = np.minimum(np.maximum(t0 + (theta - angle) / sweep * duration, lo), hi)
    error = (2 * slack + 4 * beta * np.sqrt(square)) / rho + (8 + len(p)) * _EPS * (
        4 + np.abs(angle) + np.abs(sweep) * (2 + 1 / duration)
    )
    excess = 2 * error * np.sqrt(radius * np.maximum(radius, rho))
    variation = np.minimum(radius * np.abs(last - first), 2 * np.minimum(radius, rho))
    circle = np.abs(rho - radius) - ((len(p) + 8) * _EPS + 4 * beta) * np.sqrt(square)
    return np.where(inside, t, lo), excess, variation, circle - slack


class _Bodies:
    """Every body of a path, as the columns of its body table (each segment,
    then each obstacle, which rests at its origin), with the terms of
    :func:`certify_separation` per body: its ``kind``, and in ``terms`` its
    speed bound V (0 for a point) and three times its rounding slack, which
    the cone reads, then that slack, its kind and eps M (inf for an arc),
    which the closed forms read.

    ``positions`` is the position table of :func:`certify_separation`: a
    body spanning ``spans`` windows up to bound ``ends`` has a column per
    bound of its span, and a body whose formula reads no time (a point with
    no sweep) one column.  A body's position at window bound w is column
    ``offset + w * stride`` (``layout``)."""

    def __init__(self, path: PiecewisePath, bounds, spans, ends):
        self.table = table = path._columns.table
        self.bounds, self.widths = bounds, bounds[1:] - bounds[:-1]
        d = path.query.dim
        angle, duration, sweep, radius = table[ANGLE], table[DURATION], table[SWEEP], table[RADIUS]
        origin_step = table[VECTORS : VECTORS + 2 * d].reshape(2, d, -1)
        size, length = np.sqrt(_dots(origin_step, origin_step))
        # A velocity is a constant vector plus a part of bounded norm: a
        # straight segment has no bounded part, an arc no constant part.  The
        # constant part, step / duration with duration <= 1, is 0 iff step is.
        turn = np.abs(sweep)
        bounded = radius * turn / duration
        point = (bounded == 0) & ~np.logical_or.reduce(origin_step[1], axis=0)
        arc = radius > 0
        self.kind = kind = np.where(arc, _ARC, _LINE)
        # A half turn's sweep is float pi and angle_end - angle_start exactly.
        kind[(sweep == np.pi) & (_two_sum(table[END], -angle)[1] == 0)] = _HALF_TURN
        kind[point] = _POINT
        size += np.where(arc, radius * (2 + np.abs(angle) + 2 * turn), 4 * length)
        slack = (8 + d) * _EPS * size + 8 * radius * table[BETA]
        exact = np.where(arc, np.inf, _EPS * size)
        self.terms = np.array((length / duration + bounded, 3 * slack, slack, kind, exact))

        # Each body's last column is ``top``, at its last bound.
        stride = ~point | (sweep != 0)
        reps = stride * spans
        reps += 1
        top = reps.cumsum()
        top -= 1
        self.layout = np.array((top - ends * stride, stride))
        at = np.arange(top[-1] + 1) - (top - ends).repeat(reps)
        self.positions = evaluate(table.repeat(reps, axis=1), bounds.take(at)[None])[:, 0]

    def ends(self, a, b, w):
        """Bodies a and b at both ends of each window w, [bounds[w],
        bounds[w + 1]], read from the position table: (4d + 2, k) values,
        the positions as (d, 2, 2, k) columns (coordinate, window end, body)
        and then their distances f_lo and f_hi there; the smaller distance;
        and the cone bound of :func:`certify_separation`."""
        k, d = len(a), len(self.positions)
        ab = np.concatenate([a, b])
        speed, margin = self.terms[:2].take(ab, axis=1).reshape(2, 2, k).sum(axis=1)
        # Each body's column at the window's start, then at its end.  Each
        # block-sized temporary is freed before the next one is made, and
        # mode "clip" (every index is in range) lets take write into the
        # values without a buffer.
        offset, stride = self.layout.take(ab, axis=1).reshape(2, 2, k)
        index = np.empty((2, 2, k), dtype=np.intp)
        np.multiply(w, stride, out=index[0])
        index[0] += offset
        np.add(index[0], stride, out=index[1])
        del offset, stride
        values = np.empty((4 * d + 2, k))
        at = values[: 4 * d].reshape(d, 2, 2, k)
        self.positions.take(index, axis=1, out=at, mode="clip")
        del index
        square = at[:, :, 0] - at[:, :, 1]
        square *= square
        f_lo, f_hi = f = values[4 * d :]
        np.sqrt(np.add.reduce(square, axis=0), out=f)
        del square
        cone = 0.5 * (f_lo + f_hi - speed * self.widths[w]) - margin
        return values, np.minimum(f_lo, f_hi), cone

    def minima(self, a, b, w, values, samples: int):
        """(smallest evaluated distance, certified lower bound) of bodies a
        and b on each window w, from :meth:`ends`' values."""
        k = len(a)
        lo, hi = self.bounds[w], self.bounds[w + 1]
        at = values[:-2].reshape(-1, 2, 2, k)
        f_lo, f_hi = values[-2:]
        slack, kind, exact = self.terms[2:].take(np.concatenate([a, b]), axis=1).reshape(3, 2, k)
        slack, exact = slack[0] + slack[1], exact[0] + exact[1]
        kind_a, kind_b = kind
        high, lowest = np.maximum(kind_a, kind_b), np.minimum(kind_a, kind_b)
        rel, final = (at[:, :, 0] - at[:, :, 1]).transpose(1, 0, 2)
        t, bound = _nearest_tau(rel, final, f_lo, f_hi, lo, hi)
        del rel, final
        # The segment's bound: -inf for an entry with an arc.
        bound -= exact
        # An arc against a point: the angle nearest the point, if in range,
        # and the circle's bound.
        arc = ((high >= _ARC) & (lowest == _POINT)).nonzero()[0]
        if arc.size:
            first = kind_a[arc] >= _ARC
            t[arc], excess, variation, circle = _nearest_angle(
                self.table.take(np.where(first, a[arc], b[arc]), axis=1),
                at[:, 0, first.view(np.int8), arc],
                slack[arc],
                lo[arc],
                hi[arc],
            )
        del at

        # The minimizer's distance: at a window end, the one evaluated there
        # (the same columns at the same float time), else evaluated here.
        f_star = np.where(t == hi, f_hi, f_lo)
        inner = ((t != lo) & (t != hi)).nonzero()[0]
        if inner.size:
            g = self.table.take(np.concatenate([a[inner], b[inner]]), axis=1)
            star = evaluate(g, t[np.concatenate([inner, inner])][None])[:, 0]
            f_star[inner] = _norm(star[:, : len(inner)] - star[:, len(inner) :])
        low = np.minimum(np.minimum(f_lo, f_hi), f_star)
        # Lines and points: the segment's bound, capped at sampled_min; two
        # points, their distance.
        bound = np.where(high == _POINT, low, np.minimum(low, bound))
        # An arc against a point: the minimizer's distance less its margin,
        # or where that is not positive the circle's bound if larger.
        if arc.size:
            above = f_star[arc] - slack[arc]
            quadratic = np.where(above > 0, excess * excess / above, np.inf)
            closed = low[arc] - (slack[arc] + np.fmin(np.fmin(excess, quadratic), variation))
            circle = np.fmax(closed, np.minimum(low[arc], circle))
            bound[arc] = np.where(closed <= 0, circle, closed)

        # A Case A pair: two half turns that agree on every operand from T0
        # on (not on their end points) and start exactly float pi apart.
        fallback = (high >= _ARC) & (lowest != _POINT)
        twin = (lowest == _HALF_TURN).nonzero()[0]
        if twin.size:
            g_a, g_b = self.table.take(a[twin], axis=1), self.table.take(b[twin], axis=1)
            gap, error = _two_sum(g_a[ANGLE], -g_b[ANGLE])
            operands = slice(T0, VECTORS + 4 * len(self.positions))
            same = (g_a[operands] == g_b[operands]).all(axis=0)
            keep = same & (np.abs(gap) == np.pi) & (error == 0)
            twin, radius, beta = twin[keep], g_a[RADIUS, keep], g_a[BETA, keep]
            # How far apart the two half turns stay, rounded down.
            beta += (len(self.positions) + 4) * _EPS
            apart = 2 * radius * np.sqrt(np.maximum(0.0, 1 - 3 * beta)) * (1 - 8 * _EPS)
            bound[twin] = np.minimum(low[twin], apart)
            fallback[twin] = False
        # Other arc-arc and arc-line pairs: the sampled Lipschitz cone, less E.
        fallback = fallback.nonzero()[0]
        chunk = max(1, _BLOCK // (samples + 1))
        for block in range(0, len(fallback), chunk):
            j = fallback[block : block + chunk]
            g = self.table.take(np.concatenate([a[j], b[j]]), axis=1)
            low[j], bound[j] = self._cone(g, lo[j], hi[j], samples)
            bound[j] -= slack[j]
        return low, bound

    @staticmethod
    def _cone(g: np.ndarray, lo, hi, samples: int):
        """(smallest sampled distance, cone bound) on each window [lo, hi] of
        the pairs whose first bodies' table columns come first in g, then
        their second bodies'."""
        k = len(lo)
        ts = np.linspace(lo, hi, samples + 1)
        at = evaluate(g, np.concatenate([ts, ts], axis=1))
        f = _norm(at[..., :k] - at[..., k:])
        step = g[VECTORS:].reshape(6, -1, 2 * k)[1]
        constant = step / g[DURATION]
        bounded = g[RADIUS] * np.abs(g[SWEEP]) / g[DURATION]
        speed = _norm(constant[:, :k] - constant[:, k:]) + bounded[:k] + bounded[k:]
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
    return _resampled(lambda shape: rng.uniform(low, high, size=shape), n, m, d)


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
    return _resampled(
        lambda shape: rng.integers(-span, span + 1, size=shape) / denominator, n, m, d
    )


def _resampled(draw, n: int, m: int, d: int) -> ConfigurationQuery:
    """The first structurally valid query whose starts, goals and obstacles
    ``draw(shape)`` draws, in that order."""
    while True:
        try:
            return ConfigurationQuery(
                starts=draw((n, d)), goals=draw((n, d)), obstacles=draw((m, d))
            )
        except QueryValidationError:  # an invalid draw: draw again
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
) -> list[float]:
    """Sup-distance between the base path and paths of perturbed queries.

    All perturbed queries must classify into the same region and ordering
    pair as the base query; otherwise the probe cannot say anything about
    continuity and raises :class:`RegionCrossingError`.

    Returns one sup-distance D(eps) per epsilon, where the supremum runs over
    ``PROBE_TIMES`` evenly spaced times in [0, 1] and all robots.
    """
    base = plan(query, mode=mode)
    frame = base.frame
    base_label = classify(query, frame)
    base_pair = None
    try:
        base_pair = orderings(query, frame)
    except ParammpError:
        pass
    robots, ts = range(query.robot_count), np.linspace(0.0, 1.0, PROBE_TIMES).tolist()
    base_samples = base.path._positions(robots, ts)

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
        delta = plan(perturbed, mode=base.mode).path._positions(robots, ts) - base_samples
        out.append(float(np.linalg.norm(delta, axis=2).max()))
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
