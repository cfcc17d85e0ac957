"""Unified Scenario/Pipeline façade with pluggable registries.

The single composable entry point of the reproduction::

    from repro.api import Pipeline, Scenario

    result = Pipeline().run(Scenario(capacity_mib=4, flow="3D"))
    print(result.frequency_mhz, result.edp)

* :mod:`~repro.api.scenario` — the :class:`Scenario` record (arch x flow
  x memory system x workload x objective) with strict validation and
  dict/JSON round-trip serialization;
* :mod:`~repro.api.pipeline` — the :class:`Pipeline` façade producing
  typed :class:`RunResult` bundles of physical, kernel, and derived
  metrics;
* :mod:`~repro.api.registry` — the ``@register_flow`` /
  ``@register_workload`` / ``@register_objective`` plugin registries,
  seeded from the built-in 2D/Macro-3D flows, the kernel zoo, and the
  classic PPA objectives.

Batched evaluation (many scenarios, parallel backends, two-tier result
caching) lives one layer up in :mod:`repro.engine`, which the explorer,
sweep, search, and experiment layers all share.

Names resolve lazily (PEP 562, :mod:`repro._lazy`): importing the
package imports none of its submodules, and the first access of an
exported name imports the one submodule that defines it.  So modules
which only need the dependency-free registries — the flow and kernel
plugins themselves — can import them without pulling the whole
evaluation stack.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "scenario": (
        "CODE_MODEL_VERSION", "Scenario", "arch_overrides", "paper_scenarios",
        "scenario_schema",
    ),
    "pipeline": ("Pipeline", "RunResult", "run"),
    "registry": (
        "FLOWS", "OBJECTIVES", "PREDICTORS", "Registry", "RegistryMapping",
        "WORKLOADS", "available_flows", "available_objectives",
        "available_predictors", "available_workloads", "get_flow",
        "get_objective", "get_predictor", "get_workload", "register_flow",
        "register_objective", "register_predictor", "register_workload",
    ),
})
