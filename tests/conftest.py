"""Shared test fixtures."""

import pytest

from limsupgames.dyadic import NEG_INF, Dyadic, ExtValue
from limsupgames.families import GridLscFamily
from limsupgames.trees import binary_tree


@pytest.fixture
def drop_family() -> GridLscFamily:
    """Synthetic family on the binary tree: level n identically -n, so
    inf_all is -infinity.

    Every non-root threshold interval is empty and the persistent set is
    empty too, which drives the constructed labeling to its -length fallback
    on every nonempty prefix.  Index 0 is a sound scan bound: levels only
    sink as n grows, and no strict parent/child gap ever appears.
    """
    return GridLscFamily(lambda n, s: ExtValue.finite(Dyadic(-n)),
                         lambda s: NEG_INF, lambda n: 0, lambda s: 0,
                         binary_tree(), grid_settle=0, label="drop")
