"""Built-in example families.

Four standard members of the staircase class, one per tail regime the
classifier distinguishes. Normalization constants are solved at first
use in closed form, since the untruncated mass is affine in the constant
(solve_constant), so each spec integrates to one before truncation.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import OutOfSupport
from .spec import SequenceSpec, alternating, geometric, mixed_geometric, power_law

# name -> (factory, short description)
_BUILTINS = {
    "power-law": (lambda: power_law(2.0), "a_i = b_i = c i^-2, heavy polynomial tails"),
    "geometric": (lambda: geometric(), "a_i = c e^-i, b_i = e^-i, common ratio"),
    "mixed-geometric": (lambda: mixed_geometric(), "a_i = c e^-i, b_i = e^-2i, thin b tail"),
    "alternating": (lambda: alternating(), "parity-swapped e^-i / e^-2i tails"),
}


def example_names() -> list[str]:
    """Registry names, in canonical order."""
    return list(_BUILTINS)


@lru_cache(maxsize=None)
def example_spec(name: str) -> SequenceSpec:
    """The named built-in spec, constants solved."""
    try:
        factory, _ = _BUILTINS[name]
    except KeyError:
        raise OutOfSupport(
            f"unknown example {name!r}; known: {', '.join(_BUILTINS)}"
        ) from None
    return factory()


def example_description(name: str) -> str:
    if name not in _BUILTINS:
        raise OutOfSupport(f"unknown example {name!r}")
    return _BUILTINS[name][1]


__all__ = ["example_names", "example_spec", "example_description"]
