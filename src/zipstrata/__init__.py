"""Exact computation of Hasse-invariant vanishing orders and conjugate line
positions on the strata of classical zip stacks."""

__version__ = "0.1.0"


def cache_stats() -> dict:
    """``cache_info()`` of every ``functools.lru_cache`` function in the
    package, keyed by ``module.function`` (for example
    ``"cases._case_data"``). Evictions are ``misses - currsize``, less the
    calls that raised, which count as misses and are not kept: refused
    inputs, and the coset tables ``weyl`` hands out uncached."""
    # Imported here: pkgutil would add about a millisecond to every import
    # of the package, which the command line pays on each run.
    import importlib
    import pkgutil

    stats = {}
    for info in pkgutil.iter_modules(__path__):
        module = importlib.import_module(f"{__name__}.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                stats[f"{info.name}.{name}"] = value.cache_info()
    return stats
