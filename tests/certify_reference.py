"""The certification kernel in its plainest form, with no position table and
no Case A closed form, kept as a reference that the current kernel must
match bit for bit on every pair without a Case A twin entry, when both
certify every entry (``verification._may_set_minimum`` replaced by
:func:`keep_all`).  Straight pairs (lines and points) take the segment
bound, capped at the smallest evaluated distance, and two points their
distance; an arc against a point takes its closed form less its margin,
else the circle's bound; the other pairs with an arc take the sampled cone.
``certify_separation`` runs it when ``verification._Bodies`` is replaced by
:func:`reference_bodies`, which builds it from the segment fields of the
path's plan JSON rather than from the path's table.  It takes from the
certifier only the float bounds of the union grid's windows, and evaluates
every position itself, at both ends of every window and at every minimizer,
with its own arithmetic.  :func:`reference_table` builds the path's body
table again from the same fields.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from parammp import FrameMode, PlanResult, classify, make_frame, serialize_plan

_BLOCK = 1 << 10
_EPS = float(np.finfo(float).eps)
_POINT, _LINE, _ARC = 0, 1, 2


def _distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise |a - b| of (d, k) arrays, summing squares in coordinate order."""
    return np.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return sum(x * y for x, y in zip(a, b))


def keep_all(cone, reach) -> np.ndarray:
    """The unpruned pass: every entry is certified, whatever its cone bound."""
    return np.ones(len(cone), dtype=bool)


def plan_segments(path) -> list:
    """The segment objects the plan JSON of ``path`` writes, robot after
    robot (the frame and region written beside them are not read)."""
    frame = make_frame(path.query, FrameMode.FIXED)
    result = PlanResult(path=path, region=classify(path.query, frame), swaps=(), frame=frame)
    robots = json.loads(serialize_plan(result))["robots"]
    return [segment for robot in robots for segment in robot["segments"]]


def reference_bodies(path, bounds, *spans) -> "ReferenceBodies":
    """:class:`ReferenceBodies` for ``certify_separation``, which constructs
    its bodies from the path and the window ``bounds`` of its union grid:
    from the segments its plan JSON writes.  The segments' window spans,
    which the certifier's own bodies read to lay out their positions, are
    not needed."""
    return ReferenceBodies(plan_segments(path), path.obstacles, bounds)


def reference_table(path) -> np.ndarray:
    """The body table of ``path`` (``paths`` names its rows), built again
    in Python floats from the segments its plan JSON writes and from its
    obstacles, by the rules the ``paths`` module states for each kind.  An
    arc's end points are its formula's floats at local times 0 and 1, as
    ``arc_row`` evaluates them."""
    d = path.query.dim
    columns = []
    for seg in plan_segments(path):
        t0, t1 = Fraction(seg["t0"]), Fraction(seg["t1"])
        times = [float(t0), float(t1 - t0)]
        if seg["kind"] == "linear":
            start, end = seg["start"], seg["end"]
            step = [b - a for a, b in zip(start, end)]
            basis = [0.0] * 2 * d
            columns.append([0.0] * 3 + times + [0.0, -0.0, *start, *step, *basis, *start, *end])
            continue
        center, radius, u, v = seg["center"], seg["radius"], seg["basis_u"], seg["basis_v"]
        first, last = seg["angle_start"], seg["angle_end"]
        beta = max(
            abs(math.sqrt(sum(x * x for x in u)) - 1.0),
            abs(math.sqrt(sum(x * x for x in v)) - 1.0),
            abs(sum(x * y for x, y in zip(u, v))),
        )
        ends = []
        for w in (0.0, 1.0):
            theta = first + w * (last - first)
            along, across = radius * math.cos(theta), radius * math.sin(theta)
            ends += [c + along * x + across * y for c, x, y in zip(center, u, v)]
        columns.append(
            [last, beta, first, *times, last - first, radius, *center, *[-0.0] * d, *u, *v, *ends]
        )
    for obstacle in path.obstacles.tolist():
        columns.append([0.0] * 4 + [1.0] + [0.0] * 2 + obstacle + [0.0] * 5 * d)
    return np.array(columns).T


class ReferenceBodies:
    """Every segment of a path, then every obstacle, as columns of arrays
    (coordinates first): the body's kind, the operands of its position
    formula, and the rounding slack of one evaluation."""

    def __init__(self, segments, obstacles: np.ndarray, bounds: np.ndarray):
        """``segments`` are plan-JSON segment objects; window w is [bounds[w],
        bounds[w + 1]]."""
        count, (m, d) = len(segments), obstacles.shape
        self.bounds = bounds
        lines = [i for i, seg in enumerate(segments) if seg["kind"] == "linear"]
        arcs = [i for i, seg in enumerate(segments) if seg["kind"] == "arc"]
        t0, t1 = ([Fraction(seg[name]) for seg in segments] for name in ("t0", "t1"))
        self.t0 = np.array([float(t) for t in t0] + [0.0] * m)
        self.duration = np.array([float(b - a) for a, b in zip(t0, t1)] + [1.0] * m)
        origin = np.empty((count + m, d))
        origin[count:] = obstacles
        step = np.zeros((count + m, d))  # end - start of a straight segment
        basis_u, basis_v = np.zeros((count + m, d)), np.zeros((count + m, d))
        self.radius = np.zeros(count + m)
        self.angle = np.zeros(count + m)
        self.sweep = np.zeros(count + m)
        if lines:
            origin[lines] = [segments[i]["start"] for i in lines]
            step[lines] = [segments[i]["end"] for i in lines] - origin[lines]
        if arcs:
            origin[arcs] = [segments[i]["center"] for i in arcs]
            basis_u[arcs] = [segments[i]["basis_u"] for i in arcs]
            basis_v[arcs] = [segments[i]["basis_v"] for i in arcs]
            self.radius[arcs] = [segments[i]["radius"] for i in arcs]
            self.angle[arcs] = [segments[i]["angle_start"] for i in arcs]
            self.sweep[arcs] = [segments[i]["angle_end"] for i in arcs] - self.angle[arcs]
        self.origin, self.step = origin.T.copy(), step.T.copy()
        self.basis_u, self.basis_v = basis_u.T.copy(), basis_v.T.copy()
        # A velocity is a constant vector plus a part of bounded norm: a
        # straight segment has no bounded part, an arc no constant part.
        self.constant = self.step / self.duration
        self.bounded = self.radius * np.abs(self.sweep) / self.duration
        self.speed = np.sqrt(_dot(self.constant, self.constant)) + self.bounded
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
        self.exact = np.where(arc, np.inf, _EPS * size)

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

    def ends(self, a, b, w):
        """Bodies a and b at both ends of each window w, as (d, 4, k) columns
        (a and b at the start, then at the end), the smaller of their
        distances there, and the cone bound that decides which entries are
        certified."""
        lo, hi = self.bounds[w], self.bounds[w + 1]
        k, both = len(a), np.concatenate([a, b])
        at = np.stack([self.at(both, np.concatenate([s, s])) for s in (lo, hi)], axis=1)
        at = at.reshape(len(at), 4, k)
        f_lo, f_hi = _distance(at[:, 0], at[:, 1]), _distance(at[:, 2], at[:, 3])
        speed = self.speed[a] + self.speed[b]
        slack = self.slack[a] + self.slack[b]
        cone = 0.5 * (f_lo + f_hi - speed * (hi - lo)) - 3 * slack
        return at, np.minimum(f_lo, f_hi), cone

    def minima(self, a, b, w, at, samples: int):
        """(smallest evaluated distance, certified lower bound) of bodies a
        and b on each window w.  The window ends :meth:`ends` gave are
        evaluated again."""
        lo, hi = self.bounds[w], self.bounds[w + 1]
        # Put the higher kind first: point < line < arc.
        swap = self.kind[a] < self.kind[b]
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        k, both = len(a), np.concatenate([a, b])
        start, end = (self.at(both, np.concatenate([s, s])) for s in (lo, hi))
        start_a, start_b, end_a, end_b = start[:, :k], start[:, k:], end[:, :k], end[:, k:]
        kind_a, kind_b = self.kind[a], self.kind[b]
        slack = self.slack[a] + self.slack[b]
        f_lo, f_hi = _distance(start_a, start_b), _distance(end_a, end_b)

        # Lines and points: the relative position A + tau D, tau in [0, 1],
        # nearest 0 at tau*; and the distance from 0 to the segment from A
        # to A + D, less its margins: at an end where the segment moves away
        # from 0 there.
        rel = start_a - start_b
        step = end_a - end_b - rel
        dd, along = _dot(step, step), _dot(rel, step)
        tau = np.where(dd > 0, np.clip(-along / dd, 0.0, 1.0), 0.0)
        t = np.minimum(lo + tau * (hi - lo), hi)
        sure = (len(rel) + 2) * _EPS * np.sqrt(dd)
        segment = _distance(rel, along / dd * step)
        segment -= (2 * len(rel) + 8) * _EPS * f_lo + _EPS * np.sqrt(dd)
        ahead = _dot(end_a - end_b, step) <= -sure * f_hi
        segment[ahead] = f_hi[ahead]
        segment[along >= sure * f_lo] = f_lo[along >= sure * f_lo]
        segment *= 1 - (len(rel) + 2) * _EPS
        segment -= self.exact[a] + self.exact[b]

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
            excess = 2 * error * np.sqrt(radius * np.maximum(radius, rho))
            circle = np.abs(rho - radius) - (
                (len(p) + 8) * _EPS + 4 * self.beta[c]
            ) * np.sqrt(_dot(p, p))
            variation = np.minimum(radius * np.abs(last - first), 2 * np.minimum(radius, rho))

        star = self.at(both, np.concatenate([t, t]))
        f_star = _distance(star[:, :k], star[:, k:])
        low = np.minimum(np.minimum(f_lo, f_hi), f_star)
        # Lines and points: the segment's distance, capped at the smallest
        # evaluated one; two points: their distance.
        bound = np.minimum(low, segment)
        points = (kind_a == _POINT) & (kind_b == _POINT)
        bound[points] = low[points]
        # An arc against a point: the minimizer's distance less its margin;
        # where that is not positive, the point's distance from the circle
        # if larger.
        if arc.size:
            above = f_star[arc] - slack[arc]
            excess = np.fmin(
                np.fmin(excess, np.where(above > 0, excess * excess / above, np.inf)), variation
            )
            closed = low[arc] - (slack[arc] + excess)
            circle = np.fmax(closed, np.minimum(low[arc], circle - slack[arc]))
            bound[arc] = np.where(closed <= 0, circle, closed)

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

