"""Every name a ``parammp`` module lists in ``__all__`` exists, so a deleted
function cannot linger as an export; the move and segment classes that left
the API stay out of it."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import parammp

MODULES = sorted(
    f"parammp.{info.name}" for info in pkgutil.iter_modules(parammp.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing



@pytest.mark.parametrize("name", ["ArcMove", "LinearMove", "Move", "PathSegment", "row_move"])
def test_segment_objects_are_not_exported(name):
    # a path is its table, built from rows
    assert not hasattr(parammp, name)
    assert name not in parammp.paths.__all__
