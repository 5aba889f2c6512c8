"""ASCII pipeline timelines — the Figure 3/4/5 attack-timeline views.

Renders per-instruction lifetimes (fetch -> dispatch -> issue ->
complete -> retire/squash) so the interference cascades can be *seen*:
the gadget occupying the non-pipelined unit while the f-chain waits,
the MSHR-blocked victim load, the frozen frontend.

Rows are built from the structured trace (:mod:`repro.trace`), the
simulator's only per-instruction record: :func:`rows_from_events`
reconstructs each lifetime from its FETCH/DISPATCH/ISSUE/WRITEBACK/
COMMIT/SQUASH events.  Record a run by passing ``tracer=Tracer()`` to
``run_victim_trial`` (or any other entry point that takes a tracer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.pipeline.core import Core
from repro.trace.bus import Tracer
from repro.trace.events import EventKind, TraceEvent


@dataclass
class TimelineRow:
    seq: int
    name: str
    fetch: Optional[int]
    dispatch: Optional[int]
    issue: Optional[int]
    complete: Optional[int]
    retire: Optional[int]
    squashed: bool

    @property
    def start(self) -> Optional[int]:
        return self.fetch

    @property
    def end(self) -> Optional[int]:
        for value in (self.retire, self.complete, self.issue, self.dispatch, self.fetch):
            if value is not None:
                return value
        return None


def _keep(name: str, names: Optional[Sequence[str]]) -> bool:
    return names is None or any(name.startswith(n) for n in names)


def rows_from_events(
    events: Iterable[TraceEvent], *, names: Optional[Sequence[str]] = None
) -> List[TimelineRow]:
    """Reconstruct per-instruction rows from a structured trace.

    The first occurrence of each stage event wins (an instruction that
    replays keeps its original timestamps).  Rows cover everything that
    retired, plus squashed instructions that had reached the ROB (a
    DISPATCH event); fetch-queue squashes get no row.
    """
    stamps: Dict[int, Dict[EventKind, int]] = {}
    instr_name: Dict[int, str] = {}
    for event in events:
        if event.seq is None:
            continue
        stages = stamps.setdefault(event.seq, {})
        if event.kind not in stages:  # first occurrence wins
            stages[event.kind] = event.cycle
        if event.instr is not None and event.seq not in instr_name:
            instr_name[event.seq] = event.instr
    rows = []
    for seq in sorted(stamps):
        stages = stamps[seq]
        retired = EventKind.COMMIT in stages
        squashed = EventKind.SQUASH in stages and not retired
        if not retired and not (squashed and EventKind.DISPATCH in stages):
            continue
        name = instr_name.get(seq, f"#{seq}")
        if not _keep(name, names):
            continue
        rows.append(
            TimelineRow(
                seq=seq,
                name=name,
                fetch=stages.get(EventKind.FETCH),
                dispatch=stages.get(EventKind.DISPATCH),
                issue=stages.get(EventKind.ISSUE),
                complete=stages.get(EventKind.WRITEBACK),
                retire=stages.get(EventKind.COMMIT),
                squashed=squashed,
            )
        )
    return rows


def timeline_rows(
    source: Union[Core, Tracer, Iterable[TraceEvent]],
    *,
    names: Optional[Sequence[str]] = None,
) -> List[TimelineRow]:
    """Extract rows from a traced run.

    ``source`` may be a :class:`Core` (read through its tracer), a
    :class:`~repro.trace.Tracer`, or any iterable of
    :class:`~repro.trace.TraceEvent`.  A core run without a tracer has
    no record to read and raises :class:`ValueError`.

    ``names``: restrict (by instruction name prefix match) and preserve
    dynamic order.
    """
    if isinstance(source, Core):
        if source.tracer is None:
            raise ValueError(
                f"core {source.core_id} has no tracer: run it with "
                "tracer=Tracer() to record a timeline"
            )
        return rows_from_events(source.tracer.events, names=names)
    if isinstance(source, Tracer):
        return rows_from_events(source.events, names=names)
    return rows_from_events(source, names=names)


def render_timeline(
    rows: Sequence[TimelineRow],
    *,
    width: int = 90,
    title: str = "",
) -> str:
    """Gantt-style view: ``.`` waiting, ``=`` executing, ``F/D/I/C/R``
    stage markers, ``x`` squashed."""
    rows = [r for r in rows if r.start is not None]
    if not rows:
        return f"{title}\n(no events)"
    t0 = min(r.start for r in rows)
    t1 = max(r.end or r.start for r in rows)
    span = max(1, t1 - t0)
    scale = min(1.0, (width - 1) / span)

    def col(cycle: Optional[int]) -> Optional[int]:
        if cycle is None:
            return None
        return int((cycle - t0) * scale)

    lines = [title] if title else []
    lines.append(
        f"  cycles {t0}..{t1}  (F=fetch D=dispatch I=issue C=complete "
        f"R=retire, '='=executing, 'x'=squashed)"
    )
    name_w = max(len(r.name) for r in rows) + 2
    for row in rows:
        canvas = [" "] * (width + 2)
        c_f, c_d, c_i, c_c, c_r = (
            col(row.fetch),
            col(row.dispatch),
            col(row.issue),
            col(row.complete),
            col(row.retire),
        )
        if c_f is not None and c_c is not None:
            for c in range(c_f, c_c + 1):
                canvas[c] = "."
        if c_i is not None and c_c is not None:
            for c in range(c_i, c_c + 1):
                canvas[c] = "="
        for mark, c in (("F", c_f), ("D", c_d), ("I", c_i), ("C", c_c), ("R", c_r)):
            if c is not None:
                canvas[c] = mark
        suffix = " x" if row.squashed else ""
        lines.append(f"  {row.name:<{name_w}s}|{''.join(canvas).rstrip()}{suffix}")
    return "\n".join(lines)
