"""Named process-level fault-injection points (the chaos harness's knife).

A *faultpoint* is a named place in the execution path where a crash is
plausible and recovery must be proven: the middle of a result-store append,
between a stage-cache temp-file write and its atomic rename, just before a
sweep-journal entry lands, inside a streaming fold.  Production code calls
:func:`reach` at each point; when the point is *disarmed* — the default,
and the only state ordinary runs ever see — ``reach`` is a single dict
lookup on an empty dict and returns immediately.

Arming
------
Programmatic (in-process tests)::

    with faultpoints.armed("store.append.torn"):
        store.append(record)          # raises FaultInjected mid-write

Environment (subprocess / CLI kill tests)::

    REPRO_FAULTPOINT="store.append.torn:exit" repro sweep sweep.toml
    REPRO_FAULTPOINT="sweep.journal.done:exit:3"   # die on the 3rd hit

Actions:

* ``raise`` — raise :class:`FaultInjected` (an in-process simulated crash:
  the surrounding code must leave on-disk state exactly as a kill would,
  because the exception unwinds without any cleanup of half-written data).
* ``exit`` — ``os._exit(EXIT_CODE)``: a hard process death with no atexit
  handlers, no buffer flushing, no lock release.  The real thing.

Every name must be pre-declared in :data:`FAULTPOINTS` — reaching or arming
an undeclared name raises, so the crash-injection CI matrix enumerating
:func:`registered` is guaranteed to cover every point that exists.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

#: Exit status of an ``exit``-action faultpoint (distinctive, so kill tests
#: can tell an injected crash from an ordinary failure).
EXIT_CODE = 70

#: Environment variable consulted once at import: ``name[:action[:at]]``.
ENV_VAR = "REPRO_FAULTPOINT"

#: Every declared faultpoint: name -> where it lives / what a crash there
#: leaves behind.  The crash-injection matrix iterates this registry.
FAULTPOINTS: Dict[str, str] = {
    "store.append": (
        "ResultStore.append, before any byte of the record is written"
    ),
    "store.append.torn": (
        "ResultStore.append, after a flushed+fsynced partial line — the "
        "torn-trailing-line crash signature"
    ),
    "sweep.journal.start": (
        "SweepJournal.cell_started, before the start entry is written"
    ),
    "sweep.journal.done": (
        "SweepJournal.cell_committed, after the cell's record reached the "
        "store but before the done entry lands — the duplicate-record trap"
    ),
    "cache.store": (
        "StageCache.store, before the temp file is written"
    ),
    "cache.store.tmp": (
        "StageCache.store, after the temp file is written but before the "
        "atomic rename — leaves a stale .tmp-*.npz behind"
    ),
    "streaming.fold": (
        "StreamingServer.fold, before the update is applied"
    ),
    "serve.fold.ack": (
        "ServeDaemon fold handler, after the update is applied and logged "
        "but before the ack line is written — the at-least-once retry trap "
        "(the client must resend, the server must answer DUPLICATE)"
    ),
    "serve.snapshot": (
        "ServeDaemon.write_snapshot, after the temp file is written but "
        "before the atomic rename — leaves a stale .tmp snapshot behind"
    ),
    "serve.compact": (
        "ServeDaemon.write_snapshot, after the snapshot rename but before "
        "the fold log is truncated — leaves log records the snapshot "
        "already covers (restore must skip them by LSN)"
    ),
}

#: The subset of faultpoints a `repro sweep` run can reach (the CI
#: crash-injection matrix kills one sweep per entry and proves `--resume`
#: recovery for each).
SWEEP_FAULTPOINTS: Tuple[str, ...] = (
    "store.append",
    "store.append.torn",
    "sweep.journal.start",
    "sweep.journal.done",
    "cache.store",
    "cache.store.tmp",
)


class FaultInjected(RuntimeError):
    """Raised by an armed ``raise``-action faultpoint.

    Deliberately *not* an ``Exception`` subclass the sweep failure-capture
    treats as a cell bug: the sweep runner re-raises it unconditionally,
    because it simulates a process crash, not a failing experiment.
    """


@dataclass
class _Arm:
    action: str
    at: int = 1          # fire on the Nth reach (1 = first)
    hits: int = 0        # reaches seen so far


#: name -> live arm.  Empty in ordinary runs — the fast path in
#: :func:`reach` is one truthiness check on this dict.
_ARMED: Dict[str, _Arm] = {}


def _check_name(name: str) -> str:
    if name not in FAULTPOINTS:
        raise KeyError(
            f"unknown faultpoint {name!r}; declared points: "
            f"{', '.join(sorted(FAULTPOINTS))}"
        )
    return name


def registered() -> Tuple[str, ...]:
    """Every declared faultpoint name (stable order)."""
    return tuple(FAULTPOINTS)


def arm(name: str, action: str = "raise", at: int = 1) -> None:
    """Arm ``name`` to fire on its ``at``-th reach with ``action``."""
    _check_name(name)
    if action not in ("raise", "exit"):
        raise ValueError(f"action must be 'raise' or 'exit', got {action!r}")
    if at < 1:
        raise ValueError(f"at must be >= 1, got {at}")
    _ARMED[name] = _Arm(action=action, at=int(at))


def disarm(name: Optional[str] = None) -> None:
    """Disarm one faultpoint, or every faultpoint when ``name`` is None."""
    if name is None:
        _ARMED.clear()
    else:
        _ARMED.pop(_check_name(name), None)


def is_armed(name: str) -> bool:
    """Whether ``name`` currently has a live arm (any hit count)."""
    return _check_name(name) in _ARMED


@contextmanager
def armed(name: str, action: str = "raise", at: int = 1) -> Iterator[None]:
    """Context manager form of :func:`arm` that always disarms on exit."""
    arm(name, action=action, at=at)
    try:
        yield
    finally:
        disarm(name)


def reach(name: str) -> None:
    """Declare that execution reached the faultpoint ``name``.

    Zero-cost when nothing is armed; otherwise counts the hit and fires
    the armed action once the configured hit is reached (the arm is
    consumed, so recovery code re-running the same path does not re-fire).
    """
    if not _ARMED:
        return
    arm_state = _ARMED.get(name)
    if arm_state is None:
        _check_name(name)  # typo guard: misnamed reach points never ship
        return
    arm_state.hits += 1
    if arm_state.hits < arm_state.at:
        return
    del _ARMED[name]
    if arm_state.action == "exit":
        os._exit(EXIT_CODE)
    raise FaultInjected(
        f"injected fault at {name!r} (hit {arm_state.hits})"
    )


def parse_env(raw: str) -> Tuple[str, str, int]:
    """Parse the ``name[:action[:at]]`` grammar of :data:`ENV_VAR`.

    The action defaults to ``exit`` — the variable exists for subprocess
    kill tests, where a hard death is the point.  Unknown names raise
    (:func:`_check_name`), malformed ``at`` raises ``ValueError``.
    """
    parts = raw.strip().split(":")
    name = _check_name(parts[0])
    action = parts[1] if len(parts) > 1 and parts[1] else "exit"
    if action not in ("raise", "exit"):
        raise ValueError(f"action must be 'raise' or 'exit', got {action!r}")
    try:
        at = int(parts[2]) if len(parts) > 2 and parts[2] else 1
    except ValueError:
        raise ValueError(
            f"at must be an integer, got {parts[2]!r} in {raw!r}"
        ) from None
    return name, action, at


def _load_from_env() -> None:
    """Arm from ``REPRO_FAULTPOINT=name[:action[:at]]`` (subprocess tests)."""
    raw = os.environ.get(ENV_VAR, "").strip()
    if not raw:
        return
    name, action, at = parse_env(raw)
    arm(name, action=action, at=at)


_load_from_env()


__all__ = [
    "ENV_VAR",
    "EXIT_CODE",
    "FAULTPOINTS",
    "SWEEP_FAULTPOINTS",
    "FaultInjected",
    "arm",
    "armed",
    "disarm",
    "is_armed",
    "parse_env",
    "reach",
    "registered",
]
