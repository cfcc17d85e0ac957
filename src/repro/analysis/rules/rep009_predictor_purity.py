"""REP009 — predictor functions are pure tier-0.

The analytic tier's whole contract is that a ``@register_predictor``
function is *instant* and *deterministic*: it turns a scenario into
closed-form :class:`~repro.analytic.models.AnalyticTerms` from tiling
and architecture arithmetic alone.  Three defect shapes break that
contract quietly:

* **importing the simulator** (``repro.simulator`` or a relative
  ``..simulator``) from a predictor — the million-point screen silently
  degrades into a tier-1 sweep; nothing fails, the "instant" tier just
  takes hours;
* **nondeterminism** (wall clock, unseeded RNGs, ``uuid``,
  ``os.urandom``) — calibration residuals stop being reproducible and
  the content-addressed calibration store caches garbage;
* **reading fields outside** :meth:`~repro.api.scenario.Scenario.
  cycles_dict` (``flow``, ``target_frequency_mhz``, ``objective``) or
  deriving from a wider view (``to_dict``, ``cache_dict``,
  ``cache_key``, ``physical_dict``, ``physical_key``) — the calibration
  arch-class is keyed on cycles-stage fields only
  (:data:`~repro.analytic.store.ARCH_CLASS_FIELDS`), so a physical-stage
  dependency makes two scenarios that share a calibration predict
  different cycles.

The rule checks every function decorated with ``register_predictor``
(any import spelling), plus module-level simulator imports in modules
that define predictors.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..astutil import ImportMap, dotted_name, walk_shallow
from ..findings import Finding
from ..framework import BaseLint, LintContext, register_lint
from .rep004_nondeterminism import _nondeterministic

#: Physical-stage scenario fields — reading one inside a predictor ties
#: a tier-0 prediction to inputs its calibration arch-class ignores.
FORBIDDEN_FIELDS = frozenset({"flow", "target_frequency_mhz", "objective"})

#: Scenario views wider than the cycles stage: deriving from one
#: smuggles every physical-stage field in wholesale.
FORBIDDEN_VIEWS = frozenset({
    "to_dict", "cache_dict", "cache_key", "physical_dict", "physical_key",
})


def _is_simulator_module(module: str) -> bool:
    """True for ``repro.simulator[.x]`` and relative ``.simulator[.x]``."""
    return "simulator" in module.lstrip(".").split(".")


def _predictor_functions(tree: ast.Module) -> Iterable[ast.AST]:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = dotted_name(target)
            if name and name.split(".")[-1] == "register_predictor":
                yield node
                break


def _import_findings(node: ast.AST) -> Iterable[str]:
    """Simulator module paths imported by an Import/ImportFrom node."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            if _is_simulator_module(alias.name):
                yield alias.name
    elif isinstance(node, ast.ImportFrom):
        module = "." * node.level + (node.module or "")
        if _is_simulator_module(module):
            yield module


@register_lint("REP009")
class PredictorPurity(BaseLint):
    rule = "REP009"
    title = "predictor functions must be pure tier-0"

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        predictors = list(_predictor_functions(ctx.tree))
        if not predictors:
            return
        imports = ImportMap(ctx.tree)
        # A module-level simulator import taints every predictor the
        # module defines: the tier-0 screen pays the import (and any
        # simulation the module does with it) before the first predict.
        for stmt in ctx.tree.body:
            for module in _import_findings(stmt):
                yield self.finding(
                    ctx,
                    stmt,
                    f"module defining predictors imports {module!r}: the "
                    f"analytic tier must stay importable (and instant) "
                    f"without the simulator",
                    hint="predictors compute closed-form terms; move "
                    "simulator-backed measurement into the calibration "
                    "protocol (repro.analytic.calibrate)",
                )
        for func in predictors:
            for node in walk_shallow(func.body):
                for module in _import_findings(node):
                    yield self.finding(
                        ctx,
                        node,
                        f"predictor {func.name!r} imports {module!r}: a "
                        f"tier-0 prediction must not touch the simulator",
                        hint="derive cycles analytically from tiling/arch "
                        "parameters; calibration owns the simulator runs",
                    )
                if isinstance(node, ast.Call):
                    resolved = imports.resolve(node.func)
                    if _nondeterministic(resolved):
                        yield self.finding(
                            ctx,
                            node,
                            f"nondeterministic call {resolved}(...) inside "
                            f"predictor {func.name!r}: calibration "
                            f"residuals and the content-addressed "
                            f"calibration store both require bit-stable "
                            f"predictions",
                            hint="predictor terms may only depend on "
                            "scenario fields and constants",
                        )
                if isinstance(node, ast.Attribute):
                    if node.attr in FORBIDDEN_FIELDS:
                        yield self.finding(
                            ctx,
                            node,
                            f"predictor {func.name!r} reads .{node.attr}, "
                            f"a physical-stage field outside cycles_dict():"
                            f" two scenarios sharing a calibration "
                            f"arch-class would predict different cycles",
                            hint="predictors may read cycles-stage fields "
                            "only (workload, capacity, cores, word size, "
                            "arch overrides, problem size)",
                        )
                    elif node.attr in FORBIDDEN_VIEWS:
                        yield self.finding(
                            ctx,
                            node,
                            f"predictor {func.name!r} derives from "
                            f".{node.attr}, a wider view than "
                            f"cycles_dict(): physical-stage fields leak "
                            f"into the tier-0 model",
                            hint="use cycles_dict() (or individual "
                            "cycles-stage fields) so predictions match "
                            "the calibration arch-class contract",
                        )
