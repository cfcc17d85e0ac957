"""REP005 — registry integrity.

The lazy ``repro.*`` surface and ``spawn``-started process workers both
assume every registration is visible at module import: ``@register_flow`` at
module level runs when the module loads; the same decorator buried in a
function body runs *maybe*, *sometimes*, in *some* processes — workers
spawned before the call silently lack the plugin.  Names must also be
collision-free: ``Registry.register`` raises on duplicates at runtime,
but only in the import order that happens to trigger both, so the lint
checks the whole tree at once.

Allowed exceptions: the registries' own ``_seed*`` functions (they run
exactly once, under the registry lock, before the first listing or the
first lookup of a name not yet registered) and any function explicitly
named ``_seed*`` following that contract.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple

from ..astutil import ImportMap, walk_with_scopes
from ..findings import Finding
from ..framework import BaseLint, LintContext, register_lint

#: ``register_<kind>`` decorator/call names → registry kind.
REGISTER_FUNCS = {
    "register_flow": "flow",
    "register_workload": "workload",
    "register_objective": "objective",
    "register_predictor": "predictor",
    "register_strategy": "strategy",
    "register_backend": "backend",
    "register_lint": "lint",
}

#: Registry globals whose ``.register(name, obj)`` method is the
#: call-form equivalent of the decorators above.
REGISTRY_GLOBALS = {
    "FLOWS": "flow",
    "WORKLOADS": "workload",
    "OBJECTIVES": "objective",
    "PREDICTORS": "predictor",
    "STRATEGIES": "strategy",
    "BACKENDS": "backend",
    "LINTS": "lint",
}


def _registration_kind(node: ast.Call, imports: ImportMap) -> Optional[str]:
    """The registry kind when ``node`` is a registration call."""
    func = node.func
    resolved = imports.resolve(func)
    if resolved:
        tail = resolved.split(".")[-1]
        if tail in REGISTER_FUNCS:
            return REGISTER_FUNCS[tail]
    if isinstance(func, ast.Attribute) and func.attr in ("register", "decorator"):
        root = func.value
        if isinstance(root, ast.Name) and root.id in REGISTRY_GLOBALS:
            return REGISTRY_GLOBALS[root.id]
        if isinstance(root, ast.Attribute) and root.attr in REGISTRY_GLOBALS:
            return REGISTRY_GLOBALS[root.attr]
    return None


def _registered_name(node: ast.Call) -> Optional[str]:
    if (
        node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ):
        return node.args[0].value
    return None


def _in_exempt_scope(stack: tuple) -> bool:
    """Seed functions and the ``register_*`` helpers themselves.

    ``_seed*`` runs once under the registry lock, before the first
    listing or the first lookup of a name not yet registered;
    ``register_<kind>`` wrappers *are* the registration machinery —
    the call site that matters is whoever applies them.
    """
    return any(
        fn.name.startswith("_seed") or fn.name.startswith("register_")
        for fn in stack
    )


@register_lint("REP005")
class RegistryIntegrity(BaseLint):
    rule = "REP005"
    title = "registrations must be import-visible and collision-free"

    def __init__(self) -> None:
        # (kind, name) -> first site, for cross-file collision detection.
        self._seen: Dict[Tuple[str, str], Tuple[str, int]] = {}
        self._collisions: List[Finding] = []

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        imports = ImportMap(ctx.tree)
        for node, stack in walk_with_scopes(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            kind = _registration_kind(node, imports)
            if kind is None:
                continue
            if any(fn.name.startswith("register_") for fn in stack):
                # The register_* helpers' own internals: name is a
                # forwarded variable, the real site is their caller.
                continue
            if stack and not _in_exempt_scope(stack):
                yield self.finding(
                    ctx,
                    node,
                    f"{kind} registration inside function "
                    f"{stack[-1].name!r} is invisible to workers and the lazy "
                    f"repro.* surface (it only exists after that call runs)",
                    hint="register at module level, or from a _seed* function "
                    "wired into the Registry constructor",
                )
                continue
            name = _registered_name(node)
            if name is None:
                yield self.finding(
                    ctx,
                    node,
                    f"{kind} registration name is not a string literal; "
                    f"collisions cannot be checked statically",
                    severity="warning",
                    hint="pass the registry name as a literal",
                )
                continue
            site = (ctx.relpath, node.lineno)
            first = self._seen.setdefault((kind, name), site)
            if first != site:
                self._collisions.append(
                    self.finding(
                        ctx,
                        node,
                        f"duplicate {kind} name {name!r}: already registered "
                        f"at {first[0]}:{first[1]} (Registry.register would "
                        f"raise at import time)",
                        hint="pick a unique name; registries reject rebinding",
                    )
                )

    def finalize(self) -> Iterable[Finding]:
        return self._collisions
