"""The sweep journal: a durable, advisory log of per-cell progress.

``run_sweep`` appends one entry *before* each cell executes (``start``) and
one *after* (``done`` — carrying the cell's stage-cache accounting — or
``failed`` — carrying the captured traceback).  Entries are keyed by
``(spec_hash, cell_id, seed)`` and written with the same durable framing as
the result store (:mod:`repro.utils.durable`: one JSON object per line,
flushed and fsynced), so a killed sweep leaves a journal that says exactly
which cells were in flight.

The journal is *advisory*: ``repro sweep --resume`` decides what to skip
from the result store (the authoritative record of committed cells) and
uses the journal only for diagnostics — failed-cell tracebacks, in-flight
markers, cache accounting.  A torn trailing line is therefore simply
ignored on read, and the next append cuts it away rather than
quarantining it.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.utils import durable, faultpoints

#: Journal format version, bumped on incompatible layout changes.
JOURNAL_VERSION = 1


class SweepJournal:
    """Append-only JSONL progress log living beside a result store."""

    def __init__(self, path: Union[str, Path], fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = bool(fsync)
        self._lock = threading.Lock()

    @classmethod
    def for_store(cls, store_path: Union[str, Path]) -> "SweepJournal":
        """The conventional journal location: ``<store>.journal``."""
        store_path = Path(store_path)
        return cls(store_path.with_name(store_path.name + ".journal"))

    # ------------------------------------------------------------- writing
    def start(self, spec_hash: str, cell_id: Optional[str], seed: int) -> None:
        """Record that a cell is about to execute."""
        faultpoints.reach("sweep.journal.start")
        self._append({
            "event": "start",
            "spec_hash": spec_hash,
            "cell_id": cell_id,
            "seed": int(seed),
        })

    def done(
        self,
        spec_hash: str,
        cell_id: Optional[str],
        seed: int,
        cache: Optional[Dict[str, int]] = None,
    ) -> None:
        """Record that a cell executed; ``cache`` carries its stage-cache
        accounting (hits/misses/stored/corrupt), which deliberately lives
        here rather than in the persisted record — a warm resume would
        otherwise produce records that differ from a cold baseline."""
        faultpoints.reach("sweep.journal.done")
        self._append({
            "event": "done",
            "spec_hash": spec_hash,
            "cell_id": cell_id,
            "seed": int(seed),
            "cache": dict(cache or {}),
        })

    def failed(
        self,
        spec_hash: str,
        cell_id: Optional[str],
        seed: int,
        error: str,
    ) -> None:
        """Record a cell that raised, with its formatted traceback."""
        self._append({
            "event": "failed",
            "spec_hash": spec_hash,
            "cell_id": cell_id,
            "seed": int(seed),
            "error": str(error),
        })

    def _append(self, entry: Dict[str, Any]) -> None:
        entry = {"version": JOURNAL_VERSION, **entry}
        line = json.dumps(entry, sort_keys=True) + "\n"
        with self._lock:
            durable.append_line(self.path, line.encode("utf-8"),
                                fsync=self.fsync)

    # ------------------------------------------------------------- reading
    def entries(self) -> List[Dict[str, Any]]:
        """All complete entries in append order (a torn trailing line —
        the signature of a killed append — is silently dropped; the journal
        is advisory, so there is nothing to quarantine)."""
        if not self.path.exists():
            return []
        with self.path.open("r", encoding="utf-8") as handle:
            text = handle.read()
        terminated = text.endswith("\n")
        lines = text.splitlines()
        entries: List[Dict[str, Any]] = []
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            is_tail = not terminated and index == len(lines) - 1
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                if is_tail:
                    continue
                raise ValueError(
                    f"{self.path}:{index + 1}: invalid journal entry"
                ) from None
            if isinstance(payload, dict):
                entries.append(payload)
        return entries

    def done_keys(self) -> Set[Tuple[str, Optional[str]]]:
        """``(spec_hash, cell_id)`` of every cell with a ``done`` entry."""
        return {
            (e.get("spec_hash"), e.get("cell_id"))
            for e in self.entries() if e.get("event") == "done"
        }

    def failed_entries(self) -> List[Dict[str, Any]]:
        """Every ``failed`` entry, in append order."""
        return [e for e in self.entries() if e.get("event") == "failed"]

    def in_flight(self) -> Set[Tuple[str, Optional[str]]]:
        """Cells with a ``start`` but no terminal (``done``/``failed``)
        entry — the cells a crash interrupted."""
        started: Set[Tuple[str, Optional[str]]] = set()
        finished: Set[Tuple[str, Optional[str]]] = set()
        for entry in self.entries():
            key = (entry.get("spec_hash"), entry.get("cell_id"))
            if entry.get("event") == "start":
                started.add(key)
            elif entry.get("event") in ("done", "failed"):
                finished.add(key)
        return started - finished


__all__ = ["SweepJournal", "JOURNAL_VERSION"]
