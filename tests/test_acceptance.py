"""Acceptance suite: the headline guarantees, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
live); stated runtime budgets are asserted alongside the functional checks.
"""

from __future__ import annotations

import itertools
import time
from collections import deque

import numpy as np
import pytest

from parammp import (
    ConfigurationQuery,
    FrameMode,
    NotGenericError,
    QueryPerturbation,
    Side,
    certify_separation,
    classify,
    classify_oracle,
    component_count,
    continuity_probe,
    degenerate_query,
    desingularize,
    make_frame,
    orderings,
    plan,
    random_query,
    random_rational_query,
    transposition_sequence,
)
from parammp.paths import row_final
from checked_swaps import checked_case_a, checked_case_b, checked_clearance
from hand_built_paths import row_at


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] {name}: {status}{suffix}")
    assert ok, f"{name}: {detail}"


class TestAcceptance:
    def test_domain_count_general_mode(self):
        """Constructed queries realize every domain index c in {1..2n+m} for
        (n, m) in {(1,1), (1,2), (2,2)} at d=3, and random queries never
        leave that range."""
        started = time.perf_counter()
        ok = True
        details = []
        for n, m in [(1, 1), (1, 2), (2, 2)]:
            realized = set()
            for j in range(0, 2 * n + 1):
                for t in range(1, m + 1):
                    q = degenerate_query(n, m, 3, j, t)
                    result = plan(q, mode="fixed")
                    if (result.region.j, result.region.t) != (j, t):
                        ok = False
                    realized.add(result.domain_index)
            if realized != set(range(1, 2 * n + m + 1)):
                ok = False
                details.append(f"(n,m)=({n},{m}) realized only {sorted(realized)}")
            rng = np.random.default_rng(1000 + n * 10 + m)
            for _ in range(10_000):
                q = random_query(rng, n, m, 3)
                label = classify(q, make_frame(q, FrameMode.FIXED))
                if not (1 <= label.c <= 2 * n + m):
                    ok = False
                    details.append(f"out-of-range c={label.c} for (n,m)=({n},{m})")
                    break
        elapsed = time.perf_counter() - started
        ok = ok and elapsed < 30.0
        report(
            "domain count, general mode",
            ok,
            f"3x10^4 random + constructed suites in {elapsed:.1f}s" + "; ".join(details),
        )

    def test_domain_count_even_mode(self):
        """For (n, m) = (1, 2) at d=2 in obstacle-pair mode the realized
        domain indices are exactly {2, ..., 2n+m}: one domain fewer."""
        started = time.perf_counter()
        n, m = 1, 2
        realized = set()
        ok = True
        for j in range(0, 2 * n + 1):
            for t in range(2, m + 1):
                q = degenerate_query(n, m, 2, j, t, mode=FrameMode.OBSTACLE_PAIR)
                result = plan(q, mode="obstacle_pair")
                if (result.region.j, result.region.t) != (j, t):
                    ok = False
                realized.add(result.domain_index)
        rng = np.random.default_rng(77)
        for _ in range(10_000):
            q = random_query(rng, n, m, 2)
            label = classify(q, make_frame(q, FrameMode.OBSTACLE_PAIR))
            realized_c = label.c
            if not (2 <= realized_c <= 2 * n + m):
                ok = False
                break
            realized.add(realized_c)
        expected = set(range(2, 2 * n + m + 1))
        ok = ok and realized == expected
        elapsed = time.perf_counter() - started
        ok = ok and elapsed < 30.0
        report(
            "domain count, even mode",
            ok,
            f"realized {sorted(realized)} = {sorted(expected)} in {elapsed:.1f}s",
        )

    def test_component_counts(self):
        """((n+m)!)^2 / m! at the two published checkpoints, exactly."""
        started = time.perf_counter()
        ok = component_count(2, 2) == 288 and component_count(5, 3) == 270_950_400
        elapsed = time.perf_counter() - started
        ok = ok and elapsed < 1.0
        report("component counts", ok, f"288 and 270950400 in {elapsed * 1e3:.0f}ms")

    def test_soundness_battery(self):
        """500 random queries across five (n, m, d, mode) combinations:
        certified separation, exact endpoints, stationary obstacles."""
        started = time.perf_counter()
        combos = [
            (1, 1, 3, FrameMode.FIXED),
            (1, 2, 3, FrameMode.FIXED),
            (2, 2, 3, FrameMode.FIXED),
            (2, 3, 4, FrameMode.OBSTACLE_PAIR),
            (1, 2, 2, FrameMode.OBSTACLE_PAIR),
        ]
        failures = []
        rng = np.random.default_rng(2024)
        for n, m, d, mode in combos:
            for k in range(100):
                q = random_query(rng, n, m, d)
                result = plan(q, mode=mode)
                cert = certify_separation(result.path)
                if not cert.passed:
                    failures.append(f"certificate {n},{m},{d},{mode.value}#{k}")
                    continue
                start_err = float(np.abs(result.path.configuration(0.0) - q.starts).max())
                goal_err = float(np.abs(result.path.configuration(1.0) - q.goals).max())
                if start_err > 1e-9 or goal_err > 1e-9:
                    failures.append(f"endpoints {n},{m},{d},{mode.value}#{k}")
                if not np.array_equal(result.path.obstacles, q.obstacles):
                    failures.append(f"obstacles {n},{m},{d},{mode.value}#{k}")
        elapsed = time.perf_counter() - started
        ok = not failures and elapsed < 60.0
        report(
            "soundness battery",
            ok,
            f"500 queries in {elapsed:.1f}s" + ("; " + "; ".join(failures[:3]) if failures else ""),
        )

    def test_elementary_motion_exactness(self):
        """Case A stays antipodal to 1e-9; Case B lands exactly at
        o_j - (eta/2) e to 1e-12; splitting shifts land in the generic region
        with the obstacle pattern unchanged."""
        rng = np.random.default_rng(9)
        ok = True
        # Case A: constant gap during the exchange circle
        checked_a = 0
        while checked_a < 200:
            q = random_query(rng, 3, 2, 3)
            f = make_frame(q, FrameMode.FIXED)
            try:
                pair = orderings(q, f)
            except NotGenericError:
                continue
            adjacent = None
            for a, b in zip(pair.sigma, pair.sigma[1:]):
                if isinstance(a, int) and isinstance(b, int):
                    adjacent = (a, b)
                    break
            if adjacent is None:
                continue
            checked_a += 1
            exchange = checked_case_a(q, f, *adjacent)[1]
            gap = abs(float((q.starts[adjacent[1]] - q.starts[adjacent[0]]) @ f.e))
            us = np.linspace(0, 1, 33)
            left, right = (row_at(exchange[r], 3, us) for r in adjacent)
            sep = np.linalg.norm(left - right, axis=1)
            if (abs(sep - gap) > 1e-9).any():
                ok = False
        # Case B: exact landing point
        checked_b = 0
        while checked_b < 200:
            q = random_query(rng, 2, 2, 3)
            f = make_frame(q, FrameMode.FIXED)
            try:
                pair = orderings(q, f)
            except NotGenericError:
                continue
            found = None
            for a, b in zip(pair.sigma, pair.sigma[1:]):
                if isinstance(a, int) and isinstance(b, frozenset):
                    found = (a, min(b), Side.RIGHT)
                    break
                if isinstance(a, frozenset) and isinstance(b, int):
                    found = (b, min(a), Side.LEFT)
                    break
            if found is None:
                continue
            checked_b += 1
            robot, obstacle, side = found
            eta = checked_clearance(q, f, robot, obstacle, side)
            landing = row_final(checked_case_b(q, f, robot, obstacle, side)[-1][robot], 3)
            sign = 1.0 if side is Side.LEFT else -1.0
            expected = q.obstacles[obstacle] - sign * (eta / 2.0) * f.e
            if float(np.linalg.norm(landing - expected)) > 1e-12:
                ok = False
        # splitting shifts reach the generic region, t unchanged
        for _ in range(200):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            q = random_query(rng, n, m, 3)
            starts = np.array(q.starts)
            goals = np.array(q.goals)
            starts[:, 0] = rng.choice([0.0, 1.0], size=n)
            goals[:, 0] = rng.choice([0.0, 1.0], size=n)
            q = ConfigurationQuery(starts=starts, goals=goals, obstacles=q.obstacles)
            f = make_frame(q, FrameMode.FIXED)
            before = classify(q, f)
            after = classify(desingularize(q, f), f)
            if after.j != 2 * n or after.t != before.t:
                ok = False
        report(
            "elementary-motion exactness",
            ok,
            "200 case-A, 200 case-B, 200 splitting checks",
        )

    def test_oracle_agreement(self):
        """classify versus the exact rational oracle: zero mismatches on
        10^4 random rational queries across modes and dimensions."""
        started = time.perf_counter()
        rng = np.random.default_rng(5150)
        combos = [
            (1, 1, 2, FrameMode.FIXED),
            (1, 2, 3, FrameMode.FIXED),
            (2, 2, 3, FrameMode.FIXED),
            (1, 2, 2, FrameMode.OBSTACLE_PAIR),
            (2, 2, 4, FrameMode.OBSTACLE_PAIR),
        ]
        mismatches = 0
        for n, m, d, mode in combos:
            for _ in range(2000):
                q = random_rational_query(rng, n, m, d)
                frame = make_frame(q, mode)
                if classify(q, frame) != classify_oracle(q, frame):
                    mismatches += 1
        elapsed = time.perf_counter() - started
        ok = mismatches == 0
        report(
            "oracle agreement",
            ok,
            f"10^4 rational queries, {mismatches} mismatches, {elapsed:.1f}s",
        )

    def test_continuity_probe(self):
        """On 20 seeded generic queries with pre-validated directions, the
        probe distances decrease over eps in {1e-2, 1e-3, 1e-4} and
        D(1e-4) <= 10."""
        rng = np.random.default_rng(31337)
        epsilons = [1e-2, 1e-3, 1e-4]
        probed = 0
        attempts = 0
        ok = True
        worst = 0.0
        while probed < 20 and attempts < 500:
            attempts += 1
            q = random_query(rng, 2, 2, 3)
            f = make_frame(q, FrameMode.FIXED)
            direction = QueryPerturbation(
                dstarts=rng.normal(size=q.starts.shape),
                dgoals=rng.normal(size=q.goals.shape),
                dobstacles=np.zeros(q.obstacles.shape),
            )
            # pre-validate: all perturbed queries stay in the same ordering pair
            try:
                base_pair = orderings(q, f)
                stable = all(
                    orderings(direction.apply(q, eps), f) == base_pair for eps in epsilons
                )
            except NotGenericError:
                continue
            if not stable:
                continue
            probed += 1
            values = continuity_probe(q, direction, epsilons, mode="fixed")
            if not (values[0] > values[1] > values[2]):
                ok = False
            worst = max(worst, values[2])
        ok = ok and probed == 20 and worst <= 10.0
        report(
            "continuity probe",
            ok,
            f"{probed} probes, max D(1e-4) = {worst:.2e}",
        )

    def test_swap_sequence_minimality(self):
        """Production swap sequences have exactly the length of the shortest
        legal adjacent-transposition path (BFS) on every ordering pair with
        n + m <= 5."""
        started = time.perf_counter()
        ok = True
        pairs_checked = 0
        for n in range(1, 5):
            for m in range(1, 6 - n):
                for t in range(1, m + 1):
                    abstract = _abstract_patterns(n, t)
                    distance = _bfs_distances(abstract)
                    for blocks in _ordered_partitions(list(range(m)), t):
                        orderings_ = _materialize(abstract, blocks)
                        for (pat_a, sigma) in orderings_:
                            for (pat_b, sigma_prime) in orderings_:
                                swaps = transposition_sequence(sigma, sigma_prime)
                                pairs_checked += 1
                                if len(swaps) != distance[(pat_a, pat_b)]:
                                    ok = False
        elapsed = time.perf_counter() - started
        report(
            "swap-sequence minimality",
            ok,
            f"{pairs_checked} ordering pairs vs BFS in {elapsed:.1f}s",
        )


def _abstract_patterns(n, t):
    tokens = [("r", i) for i in range(n)] + [("o", (k,)) for k in range(t)]
    out = []
    for perm in itertools.permutations(tokens):
        blocks = [tok for tok in perm if tok[0] == "o"]
        if blocks == sorted(blocks):
            out.append(perm)
    return out


def _bfs_distances(patterns):
    distance = {}
    for source in patterns:
        seen = {source: 0}
        frontier = deque([source])
        while frontier:
            state = frontier.popleft()
            for p in range(len(state) - 1):
                if state[p][0] == "o" and state[p + 1][0] == "o":
                    continue
                swapped = list(state)
                swapped[p], swapped[p + 1] = swapped[p + 1], swapped[p]
                swapped = tuple(swapped)
                if swapped not in seen:
                    seen[swapped] = seen[state] + 1
                    frontier.append(swapped)
        for target, dist in seen.items():
            distance[(source, target)] = dist
    return distance


def _ordered_partitions(items, t):
    """All ways to distribute ``items`` over t ordered non-empty blocks."""
    for assignment in itertools.product(range(t), repeat=len(items)):
        if set(assignment) != set(range(t)):
            continue
        blocks = [frozenset(i for i, slot in zip(items, assignment) if slot == k)
                  for k in range(t)]
        yield blocks


def _materialize(abstract_patterns, blocks):
    """Each abstract pattern with its ordering: robot indices, and the block
    ``blocks[k]`` for block slot k."""
    return [
        (pattern, tuple(payload if kind == "r" else blocks[payload[0]] for kind, payload in pattern))
        for pattern in abstract_patterns
    ]
