"""Test-side helpers shared by the test modules."""

from fractions import Fraction

from projrep.glmodules import DominantLabels, build_irreducible

# modules shared between the tests; the package itself keeps none
_module_cache = {}


def cached_module(n, dynkin, b):
    """Memoized build_irreducible; modules are immutable so sharing is safe."""
    key = (n, tuple(dynkin), Fraction(b))
    mod = _module_cache.get(key)
    if mod is None:
        mod = _module_cache[key] = build_irreducible(DominantLabels(*key))
    return mod
