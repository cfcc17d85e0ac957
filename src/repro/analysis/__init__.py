"""repro.analysis — repo-aware static analysis and runtime race checks.

Static side: an AST lint framework whose rules live in the ``LINTS``
registry (the sixth registry in the stack) and report structured
:class:`Finding` objects — ``repro check`` is the CLI front end.
Dynamic side: :mod:`repro.analysis.racecheck`, a lock/append tracer the
cache primitives call into when ``REPRO_RACE_CHECK=1``.

Names and the ``racecheck`` submodule resolve lazily (PEP 562,
:mod:`repro._lazy`): importing the package imports none of its
submodules, and the first access of an exported name imports the one
submodule that defines it.  So ``repro.sweep.cache`` can import the
stdlib-only ``racecheck`` module without dragging the lint framework —
and its registry seed — into every cache-touching process.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "findings": ("Finding",),
        "framework": (
            "AnalysisReport", "BaseLint", "LINTS", "LintContext",
            "analyze_paths", "available_lints", "register_lint",
        ),
        "racecheck": ("RaceError",),
    },
    submodules=("racecheck",),
)
