"""Shared test fixtures."""

from types import SimpleNamespace

import pytest

from limsupgames.dyadic import NEG_INF, Dyadic, ExtValue


@pytest.fixture
def drop_family() -> SimpleNamespace:
    """Synthetic family over binary prefixes, in the duck-typed shape that
    construct_u reads: level n identically -n, so inf_all is -infinity.

    Every non-root threshold interval is empty and the persistent set is
    empty too, which drives the constructed labeling to its -length fallback
    on every nonempty prefix.  Index 0 is a sound scan bound: levels only
    sink as n grows, and no strict parent/child gap ever appears.
    """
    return SimpleNamespace(node_inf=lambda n, s: ExtValue.finite(Dyadic(-n)),
                           inf_all=lambda s: NEG_INF,
                           stabilization_index=lambda s: 0, label="drop")
