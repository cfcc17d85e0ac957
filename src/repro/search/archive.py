"""Persistent Pareto archive of evaluated search candidates.

The archive is the search's durable artifact: every candidate a
:class:`~repro.search.driver.Searcher` evaluates is appended — via the
same :class:`~repro.sweep.store.ResultStore` JSONL serialization sweep
results use — as its sweep record plus a ``"search"`` sub-record (axis
values, generation, objective values, folded cost vector).  Because
entries are keyed by the job's content address, reloading after a crash
or across resumed runs deduplicates for free, and the non-dominated
front is recomputable from disk at any time.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional

from ..core.pareto import non_dominated
from ..sweep.store import ResultStore


class ParetoArchive:
    """Append-only, key-deduplicated log of search candidates.

    Args:
        path: JSONL file backing the archive; ``None`` keeps it
            in-memory only.  An existing file is loaded (last record per
            key wins), which is how a resumed search inherits history.
    """

    def __init__(self, path: Optional[str | Path] = None) -> None:
        self._store = ResultStore(path) if path is not None else None
        self._entries: dict[str, dict] = {}
        if self._store is not None:
            for record in self._store.load():
                key = record.get("key")
                if key and "search" in record:
                    self._entries[key] = record

    @property
    def path(self) -> Optional[Path]:
        """Backing file, or ``None`` for an in-memory archive."""
        return self._store.path if self._store is not None else None

    def add(self, candidate) -> None:
        """Record one evaluated :class:`~repro.search.driver.Candidate`."""
        entry = candidate.to_record()
        self._entries[entry["key"]] = entry
        if self._store is not None:
            self._store.append(entry)

    def extend(self, candidates: Iterable) -> None:
        """Record a batch of candidates in order."""
        for candidate in candidates:
            self.add(candidate)

    def entries(self) -> list[dict]:
        """Every archived entry, first-seen order, deduplicated by key."""
        return list(self._entries.values())

    def ok_entries(self) -> list[dict]:
        """Successfully evaluated entries only."""
        return [e for e in self._entries.values() if e.get("status") == "ok"]

    def front(self, objectives: Optional[Iterable[str]] = None) -> list[dict]:
        """The non-dominated entries under one objective set.

        Cost vectors are only comparable within a single objective
        tuple, so entries recorded under a *different* set (e.g. an
        earlier search over other objectives sharing the archive file)
        are excluded rather than mis-compared.

        Args:
            objectives: Objective names selecting which entries compete;
                defaults to the most recently added entry's set.
        """
        entries = [e for e in self.ok_entries() if e["search"].get("costs")]
        if not entries:
            return []
        target = tuple(
            objectives
            if objectives is not None
            else entries[-1]["search"]["objectives"]
        )
        entries = [
            e
            for e in entries
            if tuple(e["search"]["objectives"]) == target
        ]
        costs = [tuple(e["search"]["costs"]) for e in entries]
        return [entries[i] for i in non_dominated(costs)]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries
