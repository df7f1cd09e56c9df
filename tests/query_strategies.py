"""Hypothesis strategies, and the key of a problem document, shared by the
test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from parammp import ConfigurationQuery, FrameMode


@st.composite
def small_queries(draw, max_size=4, half_grid=None):
    """Queries with n, m <= max_size and d in {2, 3, 4}, in either frame mode.

    Coordinates are generic floats with six decimals or lie on the half-unit
    grid of [-3, 3], where projection coincidences (degenerate queries) are
    common.  ``half_grid`` fixes that choice; None draws it.
    """
    mode = draw(st.sampled_from(FrameMode))
    pair = mode is FrameMode.OBSTACLE_PAIR
    d = draw(st.sampled_from((2, 4) if pair else (2, 3, 4)))
    n = draw(st.integers(1, max_size))
    m = draw(st.integers(2 if pair else 1, max_size))
    if draw(st.booleans()) if half_grid is None else half_grid:
        coordinate = st.integers(-6, 6).map(lambda k: k / 2)
    else:
        coordinate = st.floats(-10, 10).map(lambda x: round(x, 6))
    points = draw(
        st.lists(
            st.tuples(*[coordinate] * d),
            min_size=2 * n + m,
            max_size=2 * n + m,
            unique=True,
        )
    )
    query = ConfigurationQuery(
        starts=points[:n], goals=points[n : 2 * n], obstacles=points[2 * n :]
    )
    return query, mode


def document_key(document) -> tuple:
    """What a problem document holds, bit for bit: its version, mode and
    options, its robot count, and the dtype, shape and bytes of its query's
    point table.  The bytes tell -0.0 from 0.0, which == does not."""
    query = document.to_query()
    table = query._points
    return (
        document.version, document.mode, document.options, query.robot_count,
        table.dtype, table.shape, table.tobytes(),
    )
