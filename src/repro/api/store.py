"""Persisted experiment results: JSONL run records with provenance.

Every executed cell becomes one :class:`RunRecord` — the spec that produced
it, a hash of that spec, the per-run Monte-Carlo seeds, the aggregate
:class:`~repro.metrics.experiment.AlgorithmSummary`, every per-run
:class:`~repro.metrics.evaluation.PipelineEvaluation`, and git/version
provenance — appended to a :class:`ResultStore` (one JSON object per line
under ``results/`` by convention).  Stores reload into records, filter on
spec fields, and render paper-style comparison tables.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.metrics.evaluation import PipelineEvaluation
from repro.metrics.experiment import AlgorithmSummary
from repro.utils import durable, faultpoints

#: Record format version, bumped on incompatible layout changes.
STORE_VERSION = 1

#: Default metrics rendered by :meth:`ResultStore.compare` (aggregate
#: AlgorithmSummary fields — the paper's three headline columns).
DEFAULT_COMPARE_METRICS = (
    "mean_normalized_cost",
    "mean_normalized_communication",
    "mean_source_seconds",
)


def spec_hash(spec_dict: Mapping[str, Any]) -> str:
    """Stable content hash of a spec dict (canonical JSON, sha256)."""
    canonical = json.dumps(spec_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


#: Successful-lookup memo and consecutive-failure budget of
#: :func:`_git_commit`.  Only *successes* are cached forever: a transient
#: failure (a 2s subprocess timeout on a briefly-wedged host, a git racing a
#: checkout) must not stamp every record of a long-running daemon with
#: ``git_commit: null`` for the rest of the process lifetime.  Failures
#: retry on the next lookup, but at most ``_GIT_COMMIT_MAX_ATTEMPTS`` times
#: so a host where git is genuinely absent or hung pays the ``timeout``
#: stall a bounded number of times, not on every append forever.
_GIT_COMMIT_CACHE: Optional[str] = None
_GIT_COMMIT_FAILURES = 0
_GIT_COMMIT_MAX_ATTEMPTS = 3


def _git_commit(timeout: float = 2.0) -> Optional[str]:
    """The current HEAD commit, or ``None`` when git is absent, broken, or
    slow.

    Successes are memoized for the life of the process; failures retry on
    the next call until the attempt budget runs out (see above).  stdin is
    detached so a misconfigured git can never sit waiting for terminal
    input.
    """
    global _GIT_COMMIT_CACHE, _GIT_COMMIT_FAILURES
    if _GIT_COMMIT_CACHE is not None:
        return _GIT_COMMIT_CACHE
    if _GIT_COMMIT_FAILURES >= _GIT_COMMIT_MAX_ATTEMPTS:
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=timeout, check=False,
            stdin=subprocess.DEVNULL,
        )
    except (OSError, subprocess.SubprocessError):
        # Covers a missing binary, a TimeoutExpired hang, and any other
        # subprocess failure — provenance degrades to git_commit: null
        # for this record, and the next lookup tries again.
        commit = None
    else:
        commit = out.stdout.strip()
        commit = commit if out.returncode == 0 and commit else None
    if commit:
        _GIT_COMMIT_CACHE = commit
        _GIT_COMMIT_FAILURES = 0
        return commit
    _GIT_COMMIT_FAILURES += 1
    return None


def _reset_git_commit_cache() -> None:
    """Forget the memoized commit and the failure budget (tests)."""
    global _GIT_COMMIT_CACHE, _GIT_COMMIT_FAILURES
    _GIT_COMMIT_CACHE = None
    _GIT_COMMIT_FAILURES = 0


#: Keep the lru_cache-era reset contract: callers (and the tests) clear the
#: memo with ``_git_commit.cache_clear()``.
_git_commit.cache_clear = _reset_git_commit_cache


def provenance() -> Dict[str, Any]:
    """Version/git provenance stamped on every record."""
    import platform

    import numpy

    import repro

    return {
        "repro_version": getattr(repro, "__version__", "unknown"),
        "numpy_version": numpy.__version__,
        "python_version": platform.python_version(),
        "git_commit": _git_commit(),
    }


@dataclass(frozen=True)
class RunRecord:
    """One persisted experiment cell."""

    algorithm: str
    spec: Dict[str, Any]
    summary: Dict[str, Any]
    evaluations: Tuple[Dict[str, Any], ...] = ()
    run_seeds: Tuple[int, ...] = ()
    cell_id: Optional[str] = None
    spec_hash: str = ""
    provenance: Dict[str, Any] = field(default_factory=dict)
    #: Legacy field, kept so stores written before the sweep journal
    #: existed still load.  New records leave it empty: cache accounting
    #: depends on cache warmth, so persisting it would make a resumed
    #: sweep's store differ from an uncrashed one — it lives in the
    #: journal's ``done`` entries instead.
    cache: Dict[str, Any] = field(default_factory=dict)
    version: int = STORE_VERSION

    def __post_init__(self) -> None:
        object.__setattr__(self, "evaluations", tuple(dict(e) for e in self.evaluations))
        object.__setattr__(self, "run_seeds", tuple(int(s) for s in self.run_seeds))
        if not self.spec_hash:
            object.__setattr__(self, "spec_hash", spec_hash(self.spec))

    # -------------------------------------------------------------- views
    def algorithm_summary(self) -> AlgorithmSummary:
        """Rehydrate the aggregate summary dataclass."""
        return AlgorithmSummary(**self.summary)

    def pipeline_evaluations(self) -> List[PipelineEvaluation]:
        """Rehydrate the per-run evaluations."""
        return [PipelineEvaluation.from_dict(e) for e in self.evaluations]

    def spec_field(self, dotted: str) -> Any:
        """Look up a spec value by dotted path (``"pipeline.k"``) or by bare
        field name searched across the spec sections."""
        node: Any = self.spec
        if "." in dotted:
            for part in dotted.split("."):
                if not isinstance(node, Mapping) or part not in node:
                    return None
                node = node[part]
            return node
        if dotted in self.spec:
            return self.spec[dotted]
        for section in ("pipeline", "data", "network"):
            table = self.spec.get(section)
            if isinstance(table, Mapping) and dotted in table:
                return table[dotted]
        return None

    # ------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "cell_id": self.cell_id,
            "algorithm": self.algorithm,
            "spec": self.spec,
            "spec_hash": self.spec_hash,
            "run_seeds": list(self.run_seeds),
            "summary": self.summary,
            "evaluations": [dict(e) for e in self.evaluations],
            "provenance": self.provenance,
            "cache": dict(self.cache),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunRecord":
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - names)
        if unknown:
            raise ValueError(f"unknown RunRecord fields: {unknown}")
        payload = dict(payload)
        payload["evaluations"] = tuple(payload.get("evaluations", ()))
        payload["run_seeds"] = tuple(payload.get("run_seeds", ()))
        return cls(**payload)


def _is_run_record(line: bytes) -> bool:
    """Whether a torn trailing line already holds a complete record."""
    try:
        RunRecord.from_dict(json.loads(line.decode("utf-8")))
    except (UnicodeDecodeError, json.JSONDecodeError, ValueError, TypeError):
        return False
    return True


@dataclass(frozen=True)
class StoreCheck:
    """What :meth:`ResultStore.verify` found (non-mutating diagnosis)."""

    path: str
    records: int
    #: The file ends in a flushed-but-unterminated line — the crash
    #: signature of a killed append.  Healable: :meth:`ResultStore.repair`.
    torn_tail: bool = False
    #: 1-based numbers of complete lines that are not valid records — real
    #: corruption (quarantined wholesale only by an explicit repair).
    corrupt_lines: Tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.torn_tail and not self.corrupt_lines


class ResultStore:
    """A JSONL file of :class:`RunRecord` objects (append + load + query).

    Appends are *durable and framed*: each record is one line, written,
    flushed, and fsynced before :meth:`append` returns, so a crash can tear
    at most the record being written — never an already-acknowledged one.
    A torn trailing line left by a killed process is healed automatically
    on the next append or tolerant load: a torn line that is a complete
    record gains its missing newline; torn garbage is quarantined into
    ``<store>.corrupt`` and truncated away, so one crash never poisons the
    whole store.  ``repro store verify|repair`` exposes the same machinery
    on the command line.
    """

    def __init__(self, path: Union[str, Path], fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = bool(fsync)

    @property
    def corrupt_path(self) -> Path:
        """Where quarantined (torn / corrupt) lines go: ``<store>.corrupt``."""
        return self.path.with_name(self.path.name + ".corrupt")

    # ------------------------------------------------------------- writing
    def append(self, record: RunRecord) -> RunRecord:
        """Durably append one record (creates the file and parents on first
        write); returns only after the line is flushed and fsynced."""
        line = json.dumps(record.to_dict(), sort_keys=True) + "\n"
        faultpoints.reach("store.append")
        durable.append_line(
            self.path, line.encode("utf-8"), is_record=_is_run_record,
            quarantine=self.corrupt_path, fsync=self.fsync,
            torn_faultpoint="store.append.torn",
        )
        return record

    def extend(self, records: Sequence[RunRecord]) -> None:
        """Append records one durable line at a time.

        Partial-failure semantics: each record is fully committed before the
        next is attempted, so if append ``i`` raises, records ``0..i-1`` are
        already durable and the file carries no half-written frame from them
        — re-running after the failure may append duplicates but never tears
        the store (resume-style callers should dedupe on ``(spec_hash,
        cell_id)`` as the sweep runner does).
        """
        for record in records:
            self.append(record)

    # ------------------------------------------------------------- reading
    def load(self, strict: bool = False) -> List[RunRecord]:
        """All records in append order (empty list for a missing file).

        A torn trailing line — unterminated, the signature of a killed
        append — is healed by default: completed into a record when its
        bytes parse, otherwise quarantined into ``<store>.corrupt`` and
        truncated away.  With ``strict=True`` the torn tail raises instead.
        A *complete* line that is not a valid record is real corruption and
        always raises (use :meth:`repair` to quarantine those explicitly).
        """
        if not self.path.exists():
            return []
        if not strict:
            self._heal_tail()
        records: List[RunRecord] = []
        with self.path.open("r", encoding="utf-8") as handle:
            text = handle.read()
        if text and not text.endswith("\n"):  # strict=True with a torn tail
            raise ValueError(
                f"{self.path}: torn trailing line (crashed append?); "
                f"load(strict=False) or `repro store repair` heals it"
            )
        for line_number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                records.append(RunRecord.from_dict(payload))
            except (json.JSONDecodeError, ValueError, TypeError) as exc:
                raise ValueError(
                    f"{self.path}:{line_number}: invalid JSONL record: {exc}"
                ) from None
        return records

    # --------------------------------------------------- crash resilience
    def verify(self) -> StoreCheck:
        """Diagnose the store file without modifying it."""
        if not self.path.exists():
            return StoreCheck(path=str(self.path), records=0)
        with self.path.open("r", encoding="utf-8") as handle:
            text = handle.read()
        torn_tail = bool(text) and not text.endswith("\n")
        lines = text.splitlines()
        records = 0
        corrupt: List[int] = []
        for line_number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            is_tail = torn_tail and line_number == len(lines)
            try:
                RunRecord.from_dict(json.loads(line))
            except (json.JSONDecodeError, ValueError, TypeError):
                if not is_tail:  # the torn tail is healable, not corrupt
                    corrupt.append(line_number)
            else:
                if not is_tail:  # a parseable torn tail is not committed yet
                    records += 1
        return StoreCheck(
            path=str(self.path),
            records=records,
            torn_tail=torn_tail,
            corrupt_lines=tuple(corrupt),
        )

    def repair(self) -> Tuple[int, int]:
        """Heal the torn tail and quarantine every corrupt complete line.

        Returns ``(kept_records, quarantined_lines)``.  Quarantined lines
        are appended verbatim to ``<store>.corrupt``; the store is then
        rewritten atomically with only the valid records, byte-identical
        framing (one sorted-key JSON object per line is preserved because
        valid lines are kept verbatim, not re-serialized).
        """
        self._heal_tail()
        if not self.path.exists():
            return (0, 0)
        with self.path.open("r", encoding="utf-8") as handle:
            text = handle.read()
        kept: List[str] = []
        quarantined: List[str] = []
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                RunRecord.from_dict(json.loads(line))
                kept.append(line)
            except (json.JSONDecodeError, ValueError, TypeError):
                quarantined.append(line)
        if quarantined:
            durable.quarantine_lines(self.corrupt_path, quarantined,
                                     fsync=self.fsync)
            tmp = self.path.with_name(self.path.name + ".repair-tmp")
            with tmp.open("w", encoding="utf-8") as handle:
                for line in kept:
                    handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
        return (len(kept), len(quarantined))

    def _heal_tail(self) -> None:
        """Make the file end on a record boundary (:func:`repro.utils.durable
        .heal_tail`; torn garbage goes to ``<store>.corrupt``)."""
        durable.heal_tail(self.path, _is_run_record,
                          quarantine=self.corrupt_path, fsync=self.fsync)

    def __len__(self) -> int:
        return len(self.load())

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self.load())

    def filter(self, **criteria: Any) -> List[RunRecord]:
        """Records whose fields match every criterion.

        Criteria match record attributes (``algorithm``, ``cell_id``,
        ``spec_hash``) first, then spec fields by bare or dotted name —
        ``store.filter(algorithm="jl-fss", quantize_bits=10)``.  Dotted
        paths use ``__`` in keyword form (``pipeline__k=5``).
        """
        records = self.load()
        for key, wanted in criteria.items():
            dotted = key.replace("__", ".")
            is_attr = key in ("algorithm", "cell_id", "spec_hash")
            if not is_attr and records and all(
                record.spec_field(dotted) is None for record in records
            ):
                # Spec dicts omit unset fields, so a path absent from EVERY
                # record is a typo, not an empty match.
                raise KeyError(
                    f"unknown filter criterion {key!r}: no record has spec "
                    f"field {dotted!r}; criteria match record attributes "
                    f"(algorithm, cell_id, spec_hash) or spec fields by "
                    f"bare/dotted name"
                )
            matched = []
            for record in records:
                actual = (getattr(record, key) if is_attr
                          else record.spec_field(dotted))
                if actual == wanted:
                    matched.append(record)
            records = matched
        return records

    # ------------------------------------------------------------- tables
    def compare(
        self,
        metrics: Sequence[str] = DEFAULT_COMPARE_METRICS,
        records: Optional[Sequence[RunRecord]] = None,
    ) -> "ComparisonTable":
        """Build a comparison table of aggregate metrics across records."""
        return compare_records(
            self.load() if records is None else records, metrics
        )


def _comparison_table(
    entries: Sequence[Tuple[str, str, Mapping[str, Any]]],
    metrics: Sequence[str],
) -> "ComparisonTable":
    """Shared core of ``compare_records``/``compare_outcomes``: one row per
    ``(cell, algorithm, summary mapping)`` entry (unknown metric names raise
    ``KeyError`` with the valid set)."""
    available = tuple(
        f.name for f in dataclasses.fields(AlgorithmSummary) if f.name != "algorithm"
    )
    rows: List[Dict[str, Any]] = []
    for cell, algorithm, summary in entries:
        row: Dict[str, Any] = {"cell": cell, "algorithm": algorithm}
        for metric in metrics:
            if metric not in available:
                raise KeyError(
                    f"unknown summary metric {metric!r}; available: "
                    f"{', '.join(available)}"
                )
            row[metric] = summary.get(metric)
        rows.append(row)
    return ComparisonTable(metrics=tuple(metrics), rows=rows)


def compare_records(
    records: Sequence[RunRecord],
    metrics: Sequence[str] = DEFAULT_COMPARE_METRICS,
) -> "ComparisonTable":
    """One comparison row per record: cell id, algorithm, chosen aggregate
    metrics (unknown metric names raise ``KeyError`` with the valid set)."""
    return _comparison_table(
        [(r.cell_id or r.algorithm, r.algorithm, r.summary) for r in records],
        metrics,
    )


def compare_outcomes(
    outcomes: Sequence[Any],
    metrics: Sequence[str] = DEFAULT_COMPARE_METRICS,
) -> "ComparisonTable":
    """Same table as :func:`compare_records`, built straight from in-memory
    :class:`~repro.api.runner.ExperimentOutcome` objects — no RunRecord
    construction (spec hashing, evaluation copies) or provenance stamp.

    Failed cells (``summary is None`` — :class:`~repro.api.runner
    .FailedCell`) keep their grid row: the algorithm column is tagged
    ``[failed]`` and every metric renders as ``-``.
    """
    entries: List[Tuple[str, str, Mapping[str, Any]]] = []
    for o in outcomes:
        if getattr(o, "summary", None) is None:
            entries.append((o.cell_id or o.label, f"{o.label} [failed]", {}))
        else:
            entries.append((o.cell_id or o.label, o.label, vars(o.summary)))
    return _comparison_table(entries, metrics)


@dataclass(frozen=True)
class ComparisonTable:
    """Rendered-on-demand comparison rows (``str(table)`` → aligned text)."""

    metrics: Tuple[str, ...]
    rows: List[Dict[str, Any]]

    def __str__(self) -> str:
        if not self.rows:
            return "(empty result store)"
        headers = ["cell", "algorithm", *self.metrics]
        formatted = [
            [self._format(row.get(column)) for column in headers]
            for row in self.rows
        ]
        widths = [
            max(len(header), *(len(line[i]) for line in formatted))
            for i, header in enumerate(headers)
        ]
        lines = [
            "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
            "  ".join("-" * width for width in widths),
        ]
        for line in formatted:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
        return "\n".join(lines)

    @staticmethod
    def _format(value: Any) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.6g}"
        return str(value)


__all__ = [
    "STORE_VERSION",
    "DEFAULT_COMPARE_METRICS",
    "spec_hash",
    "provenance",
    "RunRecord",
    "ResultStore",
    "StoreCheck",
    "ComparisonTable",
    "compare_records",
    "compare_outcomes",
]
