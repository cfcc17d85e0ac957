"""REP002 — cache-write discipline.

The multi-writer disk tiers stay torn-line- and duplicate-free only
because every byte that lands in ``results.jsonl`` / ``stages.jsonl`` /
``calibrations.jsonl`` / ``stats.json`` goes through the guarded
helpers: ``Journal.append`` (a single ``os.write`` on an ``O_APPEND``
fd via ``atomic_append``, under the sidecar flock), or the locked
tmp-write + rename in ``_merge_sidecar``.  A raw
``open(..., "w")`` anywhere else can interleave with a concurrent
appender and corrupt the cache for every process sharing it.

A function is flagged when it both *names* a cache data file (string
literal or the ``FILENAME``/``STATS_FILENAME`` constants) and *writes*
(``open``/``Path.open`` in a write mode, ``os.open`` with write flags,
``write_text``), unless it is one of the allowlisted guarded helpers.
Calling ``atomic_append`` directly is flagged regardless of filename —
outside the helpers there is no lock around it.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

from ..astutil import ImportMap, call_mode_arg, walk_shallow
from ..findings import Finding
from ..framework import BaseLint, LintContext, register_lint

CACHE_FILES = {"results.jsonl", "stages.jsonl", "stats.json",
               "calibrations.jsonl"}
FILE_CONSTANTS = {"FILENAME", "STATS_FILENAME"}
WRITE_MODES = set("wax+")

#: Guarded helpers, keyed by module-path suffix.  Only these may touch
#: the cache data files directly.
ALLOWED_WRITERS = {
    "repro/sweep/cache.py": {
        "atomic_append", "Journal.append", "Journal.rewrite",
    },
    "repro/engine/cache.py": {"_merge_sidecar", "cache_clear"},
}


def _references_cache_file(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and node.value in CACHE_FILES:
        return True
    if isinstance(node, ast.Attribute) and node.attr in FILE_CONSTANTS:
        return True
    if isinstance(node, ast.Name) and node.id in FILE_CONSTANTS:
        return True
    return False


def _is_write_call(node: ast.Call, imports: ImportMap) -> Optional[str]:
    """A short defect label when ``node`` is a raw write primitive."""
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = call_mode_arg(node)
        if mode and WRITE_MODES & set(mode):
            return f"open(..., {mode!r})"
    if isinstance(func, ast.Attribute):
        if func.attr == "open":
            mode = call_mode_arg(node)
            if mode and WRITE_MODES & set(mode):
                return f".open({mode!r})"
        if func.attr == "write_text":
            return ".write_text(...)"
    resolved = imports.resolve(func)
    if resolved == "os.open":
        flags = {
            n.attr if isinstance(n, ast.Attribute) else getattr(n, "id", "")
            for arg in node.args[1:]
            for n in ast.walk(arg)
        }
        if flags & {"O_WRONLY", "O_RDWR", "O_APPEND"}:
            return "os.open(..., O_WRONLY/O_APPEND)"
    return None


def _is_atomic_append_call(node: ast.Call, imports: ImportMap) -> bool:
    resolved = imports.resolve(node.func)
    return bool(resolved) and resolved.split(".")[-1] == "atomic_append"


class _FunctionCollector(ast.NodeVisitor):
    """Collect every function with its dotted qualname."""

    def __init__(self) -> None:
        self.functions: List[Tuple[str, ast.AST]] = []
        self._stack: List[str] = []

    def _visit_scope(self, node) -> None:
        self._stack.append(node.name)
        self.functions.append((".".join(self._stack), node))
        self.generic_visit(node)
        self._stack.pop()

    visit_FunctionDef = _visit_scope
    visit_AsyncFunctionDef = _visit_scope
    visit_ClassDef = _visit_scope


@register_lint("REP002")
class CacheWriteDiscipline(BaseLint):
    rule = "REP002"
    title = "cache data files may only be written by the guarded helpers"

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        imports = ImportMap(ctx.tree)
        allowed = set()
        for suffix, names in ALLOWED_WRITERS.items():
            if ctx.path.resolve().as_posix().endswith(suffix):
                allowed = names
                break

        collector = _FunctionCollector()
        collector.visit(ctx.tree)
        for qualname, fn in collector.functions:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if qualname in allowed:
                continue
            body_nodes = list(walk_shallow(fn.body))
            references = any(_references_cache_file(n) for n in body_nodes)
            for node in body_nodes:
                if not isinstance(node, ast.Call):
                    continue
                if _is_atomic_append_call(node, imports):
                    yield self.finding(
                        ctx,
                        node,
                        f"{qualname} calls atomic_append directly; outside the "
                        f"guarded helpers nothing holds the sidecar lock",
                        hint="go through Journal.append (the stores' put "
                        "methods), or hold _FileLock on the matching .lock "
                        "sidecar",
                    )
                    continue
                label = _is_write_call(node, imports)
                if label and references:
                    yield self.finding(
                        ctx,
                        node,
                        f"{qualname} writes a cache data file via {label} "
                        f"outside the guarded helpers in engine/cache.py",
                        hint="use Journal.append (the stores' put methods) / "
                        "_merge_sidecar; raw writes race concurrent appenders",
                    )
