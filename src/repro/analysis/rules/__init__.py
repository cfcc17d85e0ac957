"""Built-in REP rules.

Importing this package registers every rule in
:data:`repro.analysis.framework.LINTS`; the registry's lazy seed does
exactly that on first lookup, so ``from repro.analysis import rules``
is never needed in user code.
"""

from . import (  # noqa: F401
    rep001_cache_keys,
    rep002_cache_writes,
    rep003_async_blocking,
    rep004_nondeterminism,
    rep005_registry,
    rep006_pickle,
    rep007_obs_names,
    rep009_predictor_purity,
)
