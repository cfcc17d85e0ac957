"""REP006 — worker pickle-safety.

The ``process`` backend ships work (and the flow/workload registries,
via ``_picklable_items``) to its workers across a pickle boundary.  Pickle
serializes functions *by reference* — ``module.qualname`` — so lambdas
and function-scoped defs do not survive the trip.  Worse, the failure
is silent by design: ``_picklable_items`` drops them from the worker's
registry, so the sweep "works" until a worker actually needs the
missing plugin.

Two defect shapes are flagged:

* a lambda or locally-defined function handed to a pool boundary
  (``submit`` / ``map`` / ``apply_async`` / ``imap*``, or a
  ``Process(target=...)``);
* a lambda or nested def registered as a flow/workload — those two
  registries cross the boundary when a worker starts (objectives stay
  in the parent and are exempt; ``_seed_objectives`` registers lambdas
  on purpose).
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional, Set

from ..astutil import ImportMap, walk_shallow, walk_with_scopes
from ..findings import Finding
from ..framework import BaseLint, LintContext, register_lint

BOUNDARY_METHODS = {"submit", "map", "apply_async", "imap", "imap_unordered"}

#: Registries whose contents are pickled to workers.
SHIPPED_REGISTRARS = {"register_flow": "flow", "register_workload": "workload"}


def _local_def_names(stack: tuple) -> Set[str]:
    """Names bound to nested defs/lambdas in the enclosing functions."""
    names: Set[str] = set()
    for fn in stack:
        for node in walk_shallow(fn.body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return names


def _unpicklable_label(arg: ast.expr, locals_: Set[str]) -> Optional[str]:
    if isinstance(arg, ast.Lambda):
        return "a lambda"
    if isinstance(arg, ast.Name) and arg.id in locals_:
        return f"function-scoped def {arg.id!r}"
    return None


def _registrar_kind(node: ast.Call, imports: ImportMap) -> Optional[str]:
    resolved = imports.resolve(node.func)
    if resolved is None:
        return None
    return SHIPPED_REGISTRARS.get(resolved.split(".")[-1])


@register_lint("REP006")
class WorkerPickleSafety(BaseLint):
    rule = "REP006"
    title = "objects crossing the worker boundary must pickle by reference"

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        imports = ImportMap(ctx.tree)
        for node, stack in walk_with_scopes(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_boundary_call(ctx, node, stack)
                yield from self._check_registered_lambda(ctx, node, imports, stack)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and stack:
                yield from self._check_nested_registration(ctx, node, imports)

    def _check_boundary_call(self, ctx, node: ast.Call, stack) -> Iterable[Finding]:
        func = node.func
        is_pool_method = (
            isinstance(func, ast.Attribute) and func.attr in BOUNDARY_METHODS
        )
        is_process_ctor = (
            isinstance(func, ast.Name) and func.id == "Process"
        ) or (isinstance(func, ast.Attribute) and func.attr == "Process")
        if not (is_pool_method or is_process_ctor):
            return
        locals_ = _local_def_names(stack)
        candidates = list(node.args[:1] if is_pool_method else ())
        candidates += [kw.value for kw in node.keywords if kw.arg in ("target", "func")]
        for arg in candidates:
            label = _unpicklable_label(arg, locals_)
            if label is None:
                continue
            where = f".{func.attr}" if isinstance(func, ast.Attribute) else func.id
            yield self.finding(
                ctx,
                arg,
                f"{label} crosses the worker boundary via {where}(...): "
                f"pickle serializes functions by reference, so process "
                f"workers cannot reconstruct it",
                hint="move the callable to module level (thread-only pools "
                "may suppress with # repro: ignore[REP006])",
            )

    def _check_registered_lambda(self, ctx, node: ast.Call, imports, stack) -> Iterable[Finding]:
        # Call form: register_workload("name")(lambda s: ...).
        if not isinstance(node.func, ast.Call):
            return
        kind = _registrar_kind(node.func, imports)
        if kind is None:
            return
        if any(fn.name.startswith("_seed") for fn in stack):
            return
        for arg in node.args:
            if isinstance(arg, ast.Lambda):
                yield self.finding(
                    ctx,
                    arg,
                    f"lambda registered as {kind}: {kind}s are shipped to "
                    f"workers via pickle and _picklable_items silently drops "
                    f"lambdas, so workers would lack this plugin",
                    hint="register a module-level def instead",
                )

    def _check_nested_registration(self, ctx, fn, imports) -> Iterable[Finding]:
        # Decorator form on a def that lives inside another function.
        for deco in fn.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            resolved = imports.resolve(target)
            if resolved is None:
                continue
            kind = SHIPPED_REGISTRARS.get(resolved.split(".")[-1])
            if kind is None:
                continue
            yield self.finding(
                ctx,
                deco,
                f"function-scoped def {fn.name!r} registered as {kind}: it "
                f"cannot pickle by reference, so process workers "
                f"silently lose it",
                hint="move the def (and its registration) to module level",
            )
