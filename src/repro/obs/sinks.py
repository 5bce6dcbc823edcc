"""Event-stream consumers: JSONL log, live progress, final report.

``JsonlEventSink`` persists the stream with the same rigor as the
trace format (``trace/format.py``): a versioned header line followed
by one self-describing JSON object per event, and a strict validator
(:func:`validate_event_log`) that rebuilds typed events or raises
:class:`~repro.obs.events.ObsFormatError` naming the offending line
and key -- never a bare ``KeyError`` from a consumer.

``LiveProgressSink`` keeps a terminal appraised of a running search
(current bound, executions, distinct states, throughput, ETA from the
run's budget), throttled by wall time so it costs nothing measurable.

``FinalReportSink`` renders the Figure-2-style executions-vs-states
curve from the event stream itself -- the replacement for plotting
``SearchContext.history``.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time
from typing import Any, Dict, List, Optional, TextIO, Tuple, Union

from ..store import check_stamp
from .events import (
    Event,
    ObsFormatError,
    Sink,
    event_from_dict,
)

#: Header of a ``*.events.jsonl`` file; version bumps on breaks.
EVENTS_FORMAT = "repro-events"
EVENTS_VERSION = 1


class JsonlEventSink(Sink):
    """Append every event to a JSONL file (versioned, validated)."""

    def __init__(
        self,
        path: Union[str, pathlib.Path],
        include: Optional[List[str]] = None,
    ) -> None:
        self.path = pathlib.Path(path)
        self.include = frozenset(include) if include is not None else None
        self.events_written = 0
        self._fh: Optional[TextIO] = open(self.path, "w", encoding="utf-8")
        self._fh.write(
            json.dumps({"format": EVENTS_FORMAT, "version": EVENTS_VERSION}) + "\n"
        )

    def handle(self, event: Event) -> None:
        if self._fh is None:
            return
        if self.include is not None and event.kind not in self.include:
            return
        self._fh.write(json.dumps(event.to_dict(), separators=(",", ":")) + "\n")
        self.events_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def validate_event_log(path: Union[str, pathlib.Path]) -> List[Event]:
    """Load an event log, validating every line against the schema.

    Returns the typed events (header excluded).  Any malformed line --
    bad JSON, unknown kind, missing/extra/mistyped field -- raises
    :class:`ObsFormatError` with the file and line number.
    """
    path = pathlib.Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ObsFormatError(f"cannot read event log {path}: {exc}") from exc
    if not lines:
        raise ObsFormatError(f"{path}: empty event log (missing header)")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ObsFormatError(f"{path}:1: header is not JSON: {exc}") from exc
    check_stamp(
        header, EVENTS_FORMAT, EVENTS_VERSION, ObsFormatError, "event-log",
        where=f"{path}:1", noun="log",
    )
    events: List[Event] = []
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        where = f"{path}:{number}"
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ObsFormatError(f"{where}: not JSON: {exc}") from exc
        events.append(event_from_dict(data, where=where))
    return events


class LiveProgressSink(Sink):
    """Throttled one-line progress rendering for the terminal.

    With a TTY the line redraws in place (carriage return); otherwise
    one line per refresh is printed, which keeps CI logs readable.
    ETA comes from the run's :class:`~repro.search.strategy.SearchLimits`
    when an execution or wall-clock budget is set.
    """

    #: Event kinds that may trigger a refresh.
    _REFRESH_ON = frozenset(
        {
            "execution_finished",
            "bound_started",
            "bug_found",
            "worker_heartbeat",
            "search_finished",
        }
    )

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        interval: float = 0.5,
        limits: Optional[Any] = None,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self.limits = limits
        self._last_render = 0.0
        self._rendered = False
        self._bound: Optional[int] = None
        self._executions = 0
        self._states = 0
        self._bugs = 0
        self._worker_totals: Dict[int, Tuple[int, int]] = {}

    # -- event folding -----------------------------------------------------

    def handle(self, event: Event) -> None:
        kind = event.kind
        if kind == "execution_finished":
            self._executions = max(self._executions, event.index)
            self._states = max(self._states, event.states)
        elif kind == "state_visited":
            self._states = max(self._states, event.states)
        elif kind == "bound_started":
            self._bound = event.bound
        elif kind == "bug_found":
            if event.new:
                self._bugs += 1
        elif kind == "worker_heartbeat":
            self._worker_totals[event.worker] = (event.executions, event.transitions)
            pooled = sum(e for e, _ in self._worker_totals.values())
            self._executions = max(self._executions, pooled)
        elif kind == "bound_completed":
            self._executions = max(self._executions, event.executions)
            self._states = max(self._states, event.states)
        if kind in self._REFRESH_ON:
            final = kind == "search_finished"
            now = time.monotonic()
            if final or now - self._last_render >= self.interval:
                self._last_render = now
                self._render(event.t, final)

    # -- rendering ---------------------------------------------------------

    def _eta(self, elapsed: float) -> Optional[float]:
        limits = self.limits
        if limits is None or elapsed <= 0:
            return None
        candidates = []
        max_seconds = getattr(limits, "max_seconds", None)
        if max_seconds is not None:
            candidates.append(max_seconds - elapsed)
        max_executions = getattr(limits, "max_executions", None)
        if max_executions is not None and self._executions:
            rate = self._executions / elapsed
            candidates.append((max_executions - self._executions) / rate)
        if not candidates:
            return None
        return max(0.0, min(candidates))

    def _render(self, elapsed: float, final: bool) -> None:
        parts = []
        if self._bound is not None:
            parts.append(f"bound {self._bound}")
        parts.append(f"{self._executions} exec")
        parts.append(f"{self._states} states")
        if self._bugs:
            parts.append(f"{self._bugs} bug(s)")
        if self._worker_totals:
            parts.append(f"{len(self._worker_totals)} workers")
        if elapsed > 0:
            parts.append(f"{self._executions / elapsed:,.0f} exec/s")
        eta = self._eta(elapsed)
        if eta is not None and not final:
            parts.append(f"ETA {eta:.0f}s")
        line = " | ".join(parts)
        if getattr(self.stream, "isatty", lambda: False)():
            self.stream.write("\r" + line.ljust(79))
            if final:
                self.stream.write("\n")
        else:
            self.stream.write(line + "\n")
        self.stream.flush()
        self._rendered = True

    def close(self) -> None:
        if self._rendered and getattr(self.stream, "isatty", lambda: False)():
            self.stream.write("\n")
            self.stream.flush()


class FinalReportSink(Sink):
    """Accumulates the coverage curve and renders it once, at close.

    The curve is built purely from ``execution_finished`` events, so
    the same rendering works live (subscribed to a run) and offline
    (replayed over a JSONL log by ``repro stats``).
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        width: int = 70,
        height: int = 16,
    ) -> None:
        self.stream = stream if stream is not None else sys.stdout
        self.width = width
        self.height = height
        self.points: List[Tuple[float, float]] = []
        self.final: Optional[Event] = None
        self._closed = False

    def handle(self, event: Event) -> None:
        if event.kind == "execution_finished":
            self.points.append((float(event.index), float(event.states)))
        elif event.kind == "search_finished":
            self.final = event

    def render(self) -> str:
        from ..experiments.reporting import render_curves

        label = getattr(self.final, "strategy", None) or "search"
        # Decimate for rendering; the chart cannot show more columns
        # than its width anyway.
        points = self.points
        if len(points) > 4 * self.width:
            stride = len(points) // (2 * self.width)
            points = points[::stride] + [points[-1]]
        lines = []
        if points:
            lines.append(
                render_curves(
                    {label: points},
                    width=self.width,
                    height=self.height,
                    log_y=True,
                    title="coverage: distinct states vs executions",
                    x_label="executions",
                    y_label="states",
                )
            )
        final = self.final
        if final is not None:
            status = "complete" if final.completed else f"stopped ({final.stop_reason})"
            lines.append(
                f"{final.strategy}: {final.executions} executions, "
                f"{final.transitions} transitions, {final.states} states, "
                f"{final.bugs} bug(s), {status}"
            )
        return "\n".join(lines) if lines else "(no executions observed)"

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.stream.write(self.render() + "\n")
        self.stream.flush()


def render_event_summary(events: List[Event]) -> str:
    """Summarize a validated event list (``repro stats`` on a JSONL).

    Replays the stream through a :class:`FinalReportSink` for the
    coverage curve and adds per-kind counts and bound milestones.
    """
    report = FinalReportSink(stream=None)
    kinds: Dict[str, int] = {}
    bounds: List[Event] = []
    for event in events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
        report.handle(event)
        if event.kind == "bound_completed":
            bounds.append(event)
    lines = [f"{len(events)} events"]
    for kind in sorted(kinds):
        lines.append(f"  {kind}: {kinds[kind]}")
    for event in bounds:
        lines.append(
            f"bound {event.bound} completed at {event.executions} executions, "
            f"{event.states} states (t={event.t:.2f}s)"
        )
    lines.append(report.render())
    return "\n".join(lines)
