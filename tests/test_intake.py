"""Bulk intake against the point-by-point checks it replaced.

``parse_problem`` and ``ConfigurationQuery`` decide on whole arrays and word
errors only when a check fails.  The references below are the checks as they
ran before, on every input: each coordinate through ``isinstance`` and
``float()``, and the pairwise coincidence listing for every query.  Random
documents with injected defects must give an equal document or the identical
error list either way.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from parammp import ConfigurationQuery, QueryValidationError, formats, geometry, parse_problem


def _reference_check_points(name: str, value, dim: int, errors: list[str]) -> tuple:
    """``formats._check_points`` before the bulk path: every coordinate
    checked and converted on its own."""
    if not isinstance(value, list) or not value:
        errors.append(f"{name}: expected a non-empty array of points")
        return ()
    points = []
    for idx, point in enumerate(value):
        if not isinstance(point, list) or len(point) != dim:
            errors.append(f"{name}[{idx}]: expected {dim} coordinates")
            continue
        coords = []
        for cidx, coord in enumerate(point):
            if isinstance(coord, bool) or not isinstance(coord, (int, float)):
                errors.append(f"{name}[{idx}][{cidx}]: not a number")
                continue
            try:
                coords.append(float(coord))
            except OverflowError:  # JSON integers have no size limit
                errors.append(f"{name}[{idx}][{cidx}]: beyond float range")
        if len(coords) == dim:
            points.append(tuple(coords))
    return tuple(points)


def _reference_coincidences(named: dict[str, np.ndarray]) -> list[str]:
    """``geometry._coincidences``, which ran on every query before the bulk
    distinctness check."""
    rows = {name: list(map(tuple, arr.tolist())) for name, arr in named.items()}
    where: dict[tuple, dict[str, list[int]]] = {}
    for name, keys in rows.items():
        for k, key in enumerate(keys):
            where.setdefault(key, {}).setdefault(name, []).append(k)
    pairs = [(name, name) for name in rows] + [("starts", "obstacles"), ("goals", "obstacles")]
    return [
        f"{a}[{i}] coincides with {b}[{k}]"
        for a, b in pairs
        for i, key in enumerate(rows[a])
        for k in where[key].get(b, ())
        if a != b or i < k
    ]


def _outcome(call, *args):
    """What ``call(*args)`` gives: ("ok", result) or ("errors", list)."""
    try:
        return "ok", call(*args)
    except QueryValidationError as exc:
        return "errors", exc.errors


def _reference(call, *args):
    """``_outcome`` with the point-by-point checks of the references."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_check_points", _reference_check_points)
        patch.setattr(geometry, "_distinct", lambda named: False)
        patch.setattr(geometry, "_coincidences", _reference_coincidences)
        return _outcome(call, *args)


# Coordinates a defect puts in place of one coordinate.
_BAD_COORDINATES = st.sampled_from(
    [
        True,
        False,
        "1.0",
        None,
        [1.0],
        10**400,  # beyond float range
        -(10**400),
        2**53 + 1,  # not a float: rounds
        -(2**64) - 3,
        7,
        math.nan,
        math.inf,
        -math.inf,
        -0.0,
    ]
)


def _points(rng, size: int, dim: int, grid: bool, integers: bool) -> list:
    """``size`` random points as JSON lists.  Grid points make coincidences
    common, with -0.0 and 0.0 both present; ``integers`` mixes in ints."""
    if grid:
        coords = rng.choice([0.0, -0.0, 0.5, -1.0, 2.0], size=(size, dim))
    else:
        coords = rng.uniform(-1e3, 1e3, size=(size, dim)).round(3)
    points = coords.tolist()
    if integers:
        for i, k in zip(rng.integers(0, size, size), rng.integers(0, dim, size)):
            points[i][k] = int(rng.integers(-3, 4))
    return points


@st.composite
def _defect(draw, arrays: dict[str, list], dim: int):
    """Apply one defect to ``arrays`` in place."""
    name = draw(st.sampled_from(sorted(arrays)))
    points = arrays[name]
    kind = draw(
        st.sampled_from(["coordinate", "short", "long", "non-list", "array", "copy", "copy-zero"])
    )
    if kind == "array":
        arrays[name] = draw(st.sampled_from([[], {}, 3, None, "points", [[]]]))
        return
    if not isinstance(points, list) or not points:
        return
    i = draw(st.integers(0, len(points) - 1))
    if not isinstance(points[i], list) or not points[i]:
        return
    if kind == "coordinate":
        points[i] = list(points[i])
        points[i][draw(st.integers(0, len(points[i]) - 1))] = draw(_BAD_COORDINATES)
    elif kind == "short":
        points[i] = points[i][: draw(st.integers(0, dim - 1))]
    elif kind == "long":
        points[i] = points[i] + [0.25]
    elif kind == "non-list":
        points[i] = draw(st.sampled_from([1.0, "p", None, {}]))
    else:  # a duplicate within or across arrays, zeros as -0.0 for copy-zero
        target = arrays[draw(st.sampled_from(sorted(arrays)))]
        if isinstance(target, list) and target:
            point = list(points[i])
            if kind == "copy-zero":
                point = [-0.0 if x == 0 else x for x in point]
            target[draw(st.integers(0, len(target) - 1))] = point


@st.composite
def _documents(draw, max_size=200, defects=4):
    """Problem texts with n, m up to ``max_size``, d in {2, 3, 4}, and up to
    ``defects`` injected defects.  Hypothesis draws the shape and the
    defects; a seeded numpy generator fills in the points."""
    dim = draw(st.sampled_from([2, 3, 4]))
    n, m = draw(st.integers(1, max_size)), draw(st.integers(1, max_size))
    grid, integers = draw(st.booleans()), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arrays = {
        name: _points(rng, size, dim, grid, integers)
        for name, size in (("starts", n), ("goals", n), ("obstacles", m))
    }
    for _ in range(draw(st.integers(0, defects))):
        draw(_defect(arrays, dim))
    return json.dumps({"version": "1", "dim": dim, **arrays})


# A fixed search: the same examples on every run.
_SEARCH = settings(database=None, derandomize=True, max_examples=2000)


class TestParseParity:
    @settings(max_examples=300, deadline=None)
    @given(_documents())
    def test_documents_and_errors_match_the_reference(self, text):
        got, ref = _outcome(parse_problem, text), _reference(parse_problem, text)
        assert got[0] == ref[0]
        if got[0] == "ok":
            # repr tells 1 from 1.0 and -0.0 from 0.0, which == does not
            assert repr(got[1]) == repr(ref[1])
        else:
            assert got[1] == ref[1]

    @pytest.mark.parametrize(
        "message",
        ["not a number", "beyond float range", "coordinates", "non-empty array",
         "coincides", "non-finite", None],
    )
    def test_the_defects_reach_every_outcome(self, message):
        # The strategy must word every kind of error, and pass some documents.
        def reached(text):
            kind, value = _outcome(parse_problem, text)
            if message is None:
                return kind == "ok"
            return kind == "errors" and any(message in e for e in value)

        find(_documents(max_size=6), reached, settings=_SEARCH)


class TestQueryParity:
    @settings(max_examples=300, deadline=None)
    @given(_documents(defects=0), st.data())
    def test_query_errors_match_the_reference(self, text, data):
        raw = json.loads(text)
        arrays = [np.array(raw[name], dtype=float) for name in ("starts", "goals", "obstacles")]
        # Coincidences across arrays (as -0.0 for 0.0 too) and non-finite values
        for _ in range(data.draw(st.integers(0, 3))):
            src, dst = data.draw(st.sampled_from(arrays)), data.draw(st.sampled_from(arrays))
            i, k = data.draw(st.integers(0, len(src) - 1)), data.draw(st.integers(0, len(dst) - 1))
            dst[k] = src[i]
            if data.draw(st.booleans()):
                dst[k][dst[k] == 0] = -0.0
            if data.draw(st.integers(0, 9)) == 0:
                dst[k, 0] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        got = _outcome(ConfigurationQuery, *arrays)
        ref = _reference(ConfigurationQuery, *arrays)
        assert got[0] == ref[0]
        if got[0] == "ok":
            for name in ("starts", "goals", "obstacles"):
                assert np.array_equal(getattr(got[1], name), getattr(ref[1], name))
        else:
            assert got[1] == ref[1]
