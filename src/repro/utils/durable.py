"""Durable line framing: the one append path for every JSONL file.

A record is one newline-terminated line.  :func:`append_line` writes it,
flushes and fsyncs before returning, so a crash can tear at most the line
being written — never one already acknowledged.  :func:`heal_tail` puts a
file back on a record boundary after such a crash: a torn trailing line
whose bytes are a complete record gains its missing newline; anything else
is truncated away (and, when a quarantine file is given, kept there).

The result store (``repro.api.store``), the sweep journal
(``repro.api.journal``) and the ``repro serve`` fold log
(``repro.serve.daemon``) all write through these functions.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.utils import faultpoints


def is_json_object(line: bytes) -> bool:
    """Whether ``line`` parses as one JSON object (the default record test)."""
    try:
        return isinstance(json.loads(line.decode("utf-8")), dict)
    except (UnicodeDecodeError, ValueError):
        return False


def append_line(
    path: Path,
    line: bytes,
    *,
    is_record: Callable[[bytes], bool] = is_json_object,
    quarantine: Optional[Path] = None,
    fsync: bool = True,
    torn_faultpoint: Optional[str] = None,
) -> None:
    """Heal ``path``'s torn tail (see :func:`heal_tail`), then append the
    newline-terminated ``line`` and return only after it is flushed and
    (with ``fsync``) on disk.  Creates the file and its parents.

    ``torn_faultpoint`` names a crash-injection point: when it is armed the
    first half of the line is written and fsynced before the point fires —
    exactly the bytes a kill mid-append leaves behind.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    heal_tail(path, is_record, quarantine=quarantine, fsync=fsync)
    with path.open("ab") as handle:
        if torn_faultpoint is not None and faultpoints.is_armed(torn_faultpoint):
            split = max(1, len(line) // 2)
            handle.write(line[:split])
            handle.flush()
            os.fsync(handle.fileno())
            faultpoints.reach(torn_faultpoint)
            handle.write(line[split:])
        else:
            handle.write(line)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())


def heal_tail(
    path: Path,
    is_record: Callable[[bytes], bool] = is_json_object,
    *,
    quarantine: Optional[Path] = None,
    fsync: bool = True,
) -> None:
    """Make ``path`` end on a record boundary.

    A trailing line without a newline is a torn append: if ``is_record``
    accepts its bytes the missing newline is added (the crash hit between
    the payload write and the frame end); otherwise the partial bytes are
    truncated back to the previous boundary and appended to ``quarantine``
    when one is given.  A missing or empty file is left alone.
    """
    try:
        size = path.stat().st_size
    except OSError:
        return
    if size == 0:
        return
    with path.open("r+b") as handle:
        handle.seek(-1, os.SEEK_END)
        if handle.read(1) == b"\n":
            return
        handle.seek(0)
        body = handle.read()
        boundary = body.rfind(b"\n") + 1  # 0 when the whole file is torn
        tail = body[boundary:]
        healable = is_record(tail)
        if healable:
            handle.seek(0, os.SEEK_END)
            handle.write(b"\n")
        else:
            handle.truncate(boundary)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    if not healable and quarantine is not None:
        quarantine_lines(quarantine, [tail.decode("utf-8", errors="replace")],
                         fsync=fsync)


def quarantine_lines(path: Path, lines: Sequence[str], *, fsync: bool = True) -> None:
    """Append ``lines`` verbatim, one per line, to the quarantine file."""
    with path.open("a", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())


def fsync_directory(path: Path) -> None:
    """Make a rename or create inside directory ``path`` durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


__all__ = [
    "append_line",
    "fsync_directory",
    "heal_tail",
    "is_json_object",
    "quarantine_lines",
]
