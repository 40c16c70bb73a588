"""Plain-text trace serialization.

The format is a line-oriented superset of the UMassDieselNet contact
record style: one contact per line,

    <start-seconds> <end-seconds> <node-id> <node-id> [<node-id> ...]

with ``#`` comment lines and blank lines ignored. Pair-wise traces
(two ids per line) round-trip with real DieselNet-style dumps; clique
traces simply list more ids.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, TextIO, Union

from repro.traces.base import Contact, ContactTrace, TraceError
from repro.types import NodeId

PathLike = Union[str, Path]


def write_trace(trace: ContactTrace, destination: Union[PathLike, TextIO]) -> None:
    """Write ``trace`` to a path or an open text file."""
    if hasattr(destination, "write"):
        _write_lines(trace, destination)  # type: ignore[arg-type]
        return
    with open(destination, "w", encoding="utf-8") as handle:
        _write_lines(trace, handle)


def _write_lines(trace: ContactTrace, handle: TextIO) -> None:
    handle.write(f"# trace: {trace.name}\n")
    handle.write(f"# nodes: {trace.num_nodes} contacts: {len(trace)}\n")
    for contact in trace:
        members = " ".join(str(m) for m in sorted(contact.members))
        # repr() emits the shortest decimal that round-trips the exact
        # float64, so read_trace(write_trace(t)) preserves every bit.
        handle.write(f"{contact.start!r} {contact.end!r} {members}\n")


def read_trace(source: Union[PathLike, TextIO], name: str = "trace") -> ContactTrace:
    """Read a trace from a path or an open text file.

    Raises
    ------
    TraceError
        On malformed lines (wrong field count, bad numbers, a contact
        with fewer than two distinct nodes, or ``end <= start``).
    """
    if hasattr(source, "read"):
        return _read_lines(source, name)  # type: ignore[arg-type]
    path = Path(source)
    with open(path, encoding="utf-8") as handle:
        return _read_lines(handle, name if name != "trace" else path.stem)


def _read_lines(handle: TextIO, name: str) -> ContactTrace:
    contacts: List[Contact] = []
    for lineno, raw in enumerate(handle, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) < 4:
            raise TraceError(f"line {lineno}: expected 'start end id id...', got {line!r}")
        try:
            start = float(fields[0])
            end = float(fields[1])
            members = frozenset(NodeId(int(f)) for f in fields[2:])
        except ValueError as exc:
            raise TraceError(f"line {lineno}: {exc}") from exc
        if len(members) < 2:
            raise TraceError(f"line {lineno}: contact needs two distinct nodes: {line!r}")
        contacts.append(Contact(start, end, members))
    return ContactTrace(contacts, name=name)
