"""Bulk intake against the point-by-point checks it replaced.

``parse_problem`` and ``ConfigurationQuery`` decide on whole arrays and word
errors only when a check fails.  The references below are the checks as they
ran before, on every input: each coordinate through ``isinstance`` and
``float()``, and the pairwise coincidence listing for every query, on a text
read by ``json.loads`` alone.  Random documents with injected defects, and a
battery of tokens that orjson reads otherwise than json or not at all, must
give an equal document or the identical error list either way.  orjson's
numbers must have the bits of json's on every text both read.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import orjson
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from parammp import ConfigurationQuery, QueryValidationError, formats, geometry, parse_problem
from query_strategies import document_key


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
    """``_outcome`` with the point-by-point checks of the references, and
    problem texts read by ``json.loads`` alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_loads", json.loads)
        patch.setattr(formats, "_flat_points", lambda *args: None)  # every array checked
        patch.setattr(formats, "_check_points", _reference_check_points)
        patch.setattr(geometry, "_distinct", lambda *args: False)
        patch.setattr(geometry, "_coincidences", _reference_coincidences)
        return _outcome(call, *args)


def _same_outcome(text):
    """``parse_problem``'s outcome on ``text``, checked against the reference's."""
    got, ref = _outcome(parse_problem, text), _reference(parse_problem, text)
    assert got[0] == ref[0]
    if got[0] == "ok":
        assert document_key(got[1]) == document_key(ref[1])
    else:
        assert got[1] == ref[1]
    return got


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
        _same_outcome(text)

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


# Tokens orjson refuses, reads as another type, or reads as json does, put
# in place of one scalar of a valid document.
_TOKENS = [
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400",
    str(2**63), str(2**64), str(-(2**63) - 1), str(10**20), str(10**30), str(10**400),
    "1" + "0" * 4999,  # json refuses integers above 4300 digits
    str(2**1024 - 2**970), str(2**1024 - 2**970 - 1),  # float() overflows; the largest float
    str(2**53 + 1), "-0", "-0.0", "2", "64", "0.5",
    '"\\ud800"', '"1"', '"fixed"', "null", "true", "[]", "{}",
    "01", "-01", "00.5",  # leading zeros
]

# A valid document as (key, JSON text) fields, its options as one field.
_FIELDS = [
    ("version", '"1"'), ("dim", "2"), ("mode", '"fixed"'), ("starts", "[[0.0, 1.0]]"),
    ("goals", "[[2.0, 0.0]]"), ("obstacles", "[[1.0, 0.0], [3.0, 0.0]]"),
]
_OPTIONS = [("snap_tolerance", "0.0"), ("samples_per_segment", "64")]


def _object(fields) -> str:
    return "{" + ", ".join(f'"{key}": {value}' for key, value in fields) + "}"


def _battery(token: str) -> dict[str, str]:
    """Documents with ``token`` at each scalar position, as a coordinate, and
    beside the valid value under the same key (first and last), by name."""
    texts = {}
    for at, (key, value) in enumerate(_FIELDS[:3] + _OPTIONS):
        for order, pair in (("", [(key, token)]), (" first", [(key, token), (key, value)]),
                            (" last", [(key, value), (key, token)])):
            if at < 3:
                fields, options = _FIELDS[:at] + pair + _FIELDS[at + 1 :], _OPTIONS
            else:
                fields, options = _FIELDS, [o for o in _OPTIONS if o[0] != key] + pair
            texts[key + order] = _object(fields + [("options", _object(options))])
    texts["coordinate"] = _object(
        [("starts", f"[[{token}, 1.0]]") if key == "starts" else (key, value)
         for key, value in _FIELDS]
    )
    return texts


class TestTokenBattery:
    @pytest.mark.parametrize(
        "token", _TOKENS, ids=lambda token: token if len(token) < 25 else f"{len(token)}-digits"
    )
    def test_each_position_matches_the_json_reading(self, token):
        for where, text in _battery(token).items():
            try:
                _same_outcome(text)
            except AssertionError as exc:
                raise AssertionError(f"{token[:20]} at {where}") from exc

    @pytest.mark.parametrize(
        "text",
        [
            "\ufeff" + _object(_FIELDS),  # a UTF-8 BOM
            _object(_FIELDS) + " x",
            _object(_FIELDS) + " {}",
            _object(_FIELDS) + "\n",
            "[" + _object(_FIELDS) + "]",
            _object(_FIELDS)[:-1],
            _object(_FIELDS).replace("0.0", "0.", 1),
        ],
        ids=["bom", "trailing-word", "trailing-object", "trailing-newline", "array", "truncated",
             "bare-point"],
    )
    def test_whole_text_variants_match_the_json_reading(self, text):
        _same_outcome(text)

    def test_the_battery_reaches_every_kind_of_outcome(self):
        # Accepted documents, a wide integer orjson reads as a float, and
        # errors worded from json's reading of a text orjson refuses.
        table = _same_outcome(_battery(str(10**20))["coordinate"])[1].to_query()._points
        assert table[0].tolist() == [1e20, 1.0]
        errors = _same_outcome(_battery(str(10**30))["samples_per_segment"])[1]
        assert errors[0].endswith(f"got {10**30}")
        assert isinstance(orjson.loads(str(10**30)), float)
        errors = _same_outcome(_battery("NaN")["snap_tolerance"])[1]
        assert errors == ["options.snap_tolerance: expected a finite number >= 0, got nan"]


def _bits_equal_or_refused(text: str):
    """orjson reads ``text`` to the bits of json's float, or refuses the
    text where json reads an infinity."""
    expected = float(json.loads(text))
    if not math.isfinite(expected):
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(text)
    else:
        assert float(orjson.loads(text)).hex() == expected.hex(), text


def _exact_decimal(value: Fraction) -> str:
    """The exact decimal text of a dyadic rational, as digits and an
    exponent."""
    k = value.denominator.bit_length() - 1
    return f"{value.numerator * 5**k}e-{k}"


@st.composite
def _near_midpoints(draw):
    """The exact midpoint of two adjacent doubles (subnormals included), as
    many digits as it takes, or its first 17-40 significant digits (just below it), or those digits
    plus one in the last place (just above it)."""
    low = draw(st.floats(min_value=0.0, allow_infinity=False))
    high = math.nextafter(low, math.inf)
    # above the largest double, the midpoint with 2**1024, where json overflows
    mid = (Fraction(low) + (Fraction(high) if high < math.inf else Fraction(2**1024))) / 2
    digits, exponent = _exact_decimal(mid).split("e")
    cut = draw(st.integers(17, 40))
    if len(digits) > cut and draw(st.booleans()):
        digits, exponent = digits[:cut], int(exponent) + len(digits) - cut
        digits = str(int(digits) + draw(st.integers(0, 1)))
    return draw(st.sampled_from(["", "-"])) + f"{digits}e{exponent}"


class TestDecoderBits:
    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_repr_of_a_double(self, value):
        _bits_equal_or_refused(repr(value))

    @settings(max_examples=500, deadline=None)
    @given(st.integers(10**16, 10**40 - 1), st.integers(-370, 300), st.sampled_from(["", "-"]))
    def test_decimal_strings_of_17_to_40_digits(self, digits, exponent, sign):
        _bits_equal_or_refused(f"{sign}{digits}e{exponent}")

    @settings(max_examples=500, deadline=None)
    @given(_near_midpoints())
    def test_midpoints_of_adjacent_doubles(self, text):
        _bits_equal_or_refused(text)

    @settings(max_examples=500, deadline=None)
    @given(st.integers(2**53, 2**1023), st.sampled_from([1, -1]))
    def test_integer_literals_read_as_float_does(self, value, sign):
        # json reads an integer, orjson a float beyond 64 bits: as float()
        _bits_equal_or_refused(str(sign * value))


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


# Coordinates that tell equal rows from nearly equal ones: both zeros, the
# smallest subnormals, a subnormal and the smallest normal, and one.
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-323, 1e-310, 2.2250738585072014e-308, 1.0]


@st.composite
def _point_arrays(draw):
    """starts, goals and obstacles with n, m up to 200 and d in {2, 3, 4}:
    random floats, some of them replaced by special values, then rows copied
    within each array, from starts or goals to obstacles and back, and from
    starts to goals (which is allowed), some with their zeros negated."""
    dim = draw(st.sampled_from([2, 3, 4]))
    n, m = draw(st.integers(1, 200)), draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.uniform(-1.0, 1.0, size=(2 * n + m, dim))
    special = rng.random(rows.shape) < draw(st.sampled_from([0.0, 0.3, 0.9]))
    rows[special] = rng.choice(_SPECIAL, size=int(special.sum()))
    blocks = {"starts": rows[:n], "goals": rows[n : 2 * n], "obstacles": rows[2 * n :]}
    pairs = [(name, name) for name in blocks] + [
        ("starts", "obstacles"), ("obstacles", "starts"),
        ("goals", "obstacles"), ("obstacles", "goals"), ("starts", "goals"),
    ]
    for _ in range(draw(st.integers(0, 3))):
        src, dst = (blocks[name] for name in draw(st.sampled_from(pairs)))
        i, k = draw(st.integers(0, len(src) - 1)), draw(st.integers(0, len(dst) - 1))
        dst[k] = src[i]
        if draw(st.booleans()):
            dst[k][dst[k] == 0] = -0.0
    return blocks


class TestDistinctness:
    @settings(max_examples=300, deadline=None)
    @given(_point_arrays())
    def test_accepts_and_rejects_as_the_reference(self, named):
        expected = _reference_coincidences(named)
        kind, value = _outcome(ConfigurationQuery, *named.values())
        if expected:
            assert (kind, value) == ("errors", expected)
        else:
            assert kind == "ok"
            for name, arr in named.items():
                assert getattr(value, name).tobytes() == arr.tobytes()

    @pytest.mark.parametrize(
        "start, obstacle, coincide",
        [
            ([0.0, 5e-324], [-0.0, 5e-324], True),
            ([-0.0, -0.0], [0.0, 0.0], True),
            ([1e-310, 0.0], [1e-310, -0.0], True),
            ([0.0, 5e-324], [0.0, 1e-323], False),
            ([5e-324, 1.0], [-5e-324, 1.0], False),
        ],
    )
    def test_signed_zeros_and_subnormals(self, start, obstacle, coincide):
        kind, value = _outcome(ConfigurationQuery, [start], [[2.0, 2.0]], [obstacle])
        if coincide:
            assert (kind, value) == ("errors", ["starts[0] coincides with obstacles[0]"])
        else:
            assert kind == "ok"
