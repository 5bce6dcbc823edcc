"""Spans recorded from outside the program, and the per-layer metrics.

:class:`Tracer` replaces public functions of ``repro`` with wrappers
that record one span per call: the function's name, its start and end,
and the span that was open when it was called.  Spans live in flat
arrays in memory and are written out once, at the end of a run.

A span's *self time* is its duration minus the durations of its direct
children.  Children run inside their parent, so the self times of all
spans under a root add up to the root's duration and nothing is counted
twice, however deeply calls nest or recurse.  A name's *inclusive*
time only adds the spans that have no ancestor of the same name, so a
recursive call is not counted again inside its caller.
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: The wrapped functions, as ``module:Owner.attribute``, by layer.  A
#: span is named ``Owner.attribute``.
LAYER_SPANS: Dict[str, Tuple[str, ...]] = {
    "chess": ("repro.chess.checker:ChessChecker.check",),
    "core": (
        "repro.core.execution:Execution.__init__",
        "repro.core.execution:Execution.execute",
        "repro.core.execution:Execution.fingerprint",
        "repro.core.world:World.fingerprint",
        "repro.core.transition:ProgramStateSpace.execution_at",
    ),
    "search": (
        "repro.search.strategy:SearchContext.visit",
        "repro.search.strategy:SearchContext.note_terminal",
        "repro.search.strategy:SearchContext.note_bug",
        "repro.search.statecache:WorkItemCache.seen",
    ),
    "races": (
        "repro.races.happens_before:HBTracker.sync_access",
        "repro.races.happens_before:HBTracker.data_access",
    ),
    "invivo": (
        "threading:Thread.start",
        "repro.invivo.runner:Channel.await_request",
        "repro.invivo.runner:Channel.resume",
        "repro.invivo.runner:Channel.abandon",
    ),
    "service": (
        "repro.service.checkpoint:Checkpoint.capture",
        "repro.service.checkpoint:Checkpoint.save",
        "repro.service.cache:ResultCache.store",
    ),
    "trace": ("repro.chess.checker:ChessChecker.save_traces",),
}

ROOT_SPAN = "ChessChecker.check"


def _resolve(spec: str) -> Tuple[type, str]:
    module, _, path = spec.partition(":")
    owner_name, _, attr = path.rpartition(".")
    owner: Any = importlib.import_module(module)
    for part in owner_name.split("."):
        owner = getattr(owner, part)
    return owner, attr


def _value_of(short: str) -> Optional[Callable[[Any], float]]:
    """What a span records beside its times, by span name."""
    if short == "WorkItemCache.seen":
        return lambda hit: 1.0 if hit else 0.0
    if short == "ChessChecker.save_traces":
        return lambda paths: float(len(paths))
    if short == "Checkpoint.save":
        return lambda path: float(os.path.getsize(path))
    return None


class Tracer:
    """Records spans for every function in :data:`LAYER_SPANS`.

    Only calls on the thread that created the tracer are recorded; the
    checker drives every wrapped function from that thread.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_ids = array("B")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.values = array("d")
        self._stack = [-1]
        self._saved: List[Tuple[type, str, Any]] = []

    def __len__(self) -> int:
        return len(self.starts)

    def clear(self) -> None:
        for arr in (self.name_ids, self.parents, self.starts, self.ends, self.values):
            del arr[:]

    # -- installing ---------------------------------------------------------

    def install(self, specs: Optional[Iterable[str]] = None) -> "Tracer":
        """Wrap the functions ``specs`` names, by default every one in
        :data:`LAYER_SPANS`."""
        if specs is None:
            specs = [spec for layer in LAYER_SPANS.values() for spec in layer]
        for spec in specs:
            owner, attr = _resolve(spec)
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            short = spec.partition(":")[2]
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self.wrap(short, raw.__func__))
            else:
                wrapped = self.wrap(short, raw)
            setattr(owner, attr, wrapped)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording one span named ``name`` per call."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        value_of = _value_of(name)
        name_ids, parents, starts = self.name_ids, self.parents, self.starts
        ends, values, stack = self.ends, self.values, self._stack
        owner = threading.get_ident()
        get_ident = threading.get_ident
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if get_ident() != owner:
                return fn(*args, **kwargs)
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            values.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if value_of is not None:
                values[index] = value_of(result)
            return result

        return wrapper

    # -- output -------------------------------------------------------------

    def write(self, stem: pathlib.Path) -> None:
        """Write the spans as ``<stem>.json`` (layout) and ``<stem>.bin``."""
        columns = ("name_ids", "parents", "starts", "ends", "values")
        with open(stem.with_suffix(".bin"), "wb") as out:
            for column in columns:
                getattr(self, column).tofile(out)
        header = {
            "spans": len(self),
            "names": self.names,
            "columns": [[c, getattr(self, c).typecode] for c in columns],
        }
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")


@dataclass
class NameStats:
    """Totals over every span of one name."""

    count: int = 0
    self_s: float = 0.0
    #: Summed duration of the spans with no same-named ancestor.
    inclusive_s: float = 0.0
    value: float = 0.0


def summarize(
    names: List[str], name_ids, parents, starts, ends, values
) -> Tuple[Dict[str, NameStats], Dict[Tuple[str, str], float], List[float]]:
    """Per-name totals of one span tree.

    Returns the :class:`NameStats` per name, the inclusive time per
    (name, parent name) pair, and for each ``Channel.await_request``
    that directly follows a ``Thread.start`` sibling the time from the
    start of the one to the end of the other (a thread spawn).
    """
    n = len(starts)
    durations = [ends[i] - starts[i] for i in range(n)]
    children = [0.0] * n
    ancestors = [0] * n
    stats = {name: NameStats() for name in names}
    by_parent: Dict[Tuple[str, str], float] = {}
    last_child: Dict[int, int] = {}
    spawns: List[float] = []
    start_id = names.index("Thread.start") if "Thread.start" in names else -1
    await_id = (
        names.index("Channel.await_request")
        if "Channel.await_request" in names
        else -1
    )
    for i in range(n):
        p = parents[i]
        nid = name_ids[i]
        if p >= 0:
            children[p] += durations[i]
            ancestors[i] = ancestors[p] | (1 << name_ids[p])
            key = (names[nid], names[name_ids[p]])
            by_parent[key] = by_parent.get(key, 0.0) + durations[i]
        if nid == await_id:
            prev = last_child.get(p)
            if prev is not None and name_ids[prev] == start_id:
                spawns.append(ends[i] - starts[prev])
        last_child[p] = i
        s = stats[names[nid]]
        s.count += 1
        s.value += values[i]
        if not ancestors[i] >> nid & 1:
            s.inclusive_s += durations[i]
    for i in range(n):
        stats[names[name_ids[i]]].self_s += durations[i] - children[i]
    return stats, by_parent, spawns


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def layer_metrics(tracer: Tracer, distinct_states: int) -> Dict[str, float]:
    """Every per-layer metric of one traced check."""
    stats, by_parent, spawns = summarize(
        tracer.names, tracer.name_ids, tracer.parents, tracer.starts,
        tracer.ends, tracer.values,
    )
    s = stats.__getitem__
    wall = s(ROOT_SPAN).inclusive_s
    steps = s("Execution.execute").count
    transitions = s("SearchContext.visit").count
    executions = s("SearchContext.note_terminal").count
    fingerprint_s = s("Execution.fingerprint").self_s + s("World.fingerprint").self_s
    replay_s = sum(
        by_parent.get((name, "ProgramStateSpace.execution_at"), 0.0)
        for name in ("Execution.__init__", "Execution.execute")
    )
    races = [s("HBTracker.sync_access"), s("HBTracker.data_access")]
    race_calls = sum(r.count for r in races)
    race_s = sum(r.self_s for r in races)
    lookups = s("WorkItemCache.seen")
    resume = s("Channel.resume")
    saves = s("Checkpoint.save")
    capture = s("Checkpoint.capture")
    store = s("ResultCache.store")
    traces = s("ChessChecker.save_traces")
    return {
        "core.engine_steps": steps,
        "core.replays": s("Execution.__init__").count,
        "core.replay_amplification": _per(steps, transitions),
        "core.step_us": _per(s("Execution.execute").self_s, steps, 1e6),
        "core.replay_share": _per(replay_s, wall),
        "core.fingerprints": s("Execution.fingerprint").count,
        "core.fingerprint_us": _per(
            s("Execution.fingerprint").inclusive_s, s("Execution.fingerprint").count, 1e6
        ),
        "core.fingerprint_share": _per(fingerprint_s, wall),
        "search.executions": executions,
        "search.transitions": transitions,
        "search.distinct_states": distinct_states,
        "search.new_state_ratio": _per(distinct_states, transitions),
        "search.visit_us": _per(s("SearchContext.visit").self_s, transitions, 1e6),
        "search.cache_lookups": lookups.count,
        "search.cache_hit_ratio": _per(lookups.value, lookups.count),
        "races.calls": race_calls,
        "races.check_us": _per(race_s, race_calls, 1e6),
        "races.share": _per(race_s, wall),
        "invivo.threads_per_exec": _per(s("Thread.start").count, executions),
        "invivo.spawn_us": _per(sum(spawns), len(spawns), 1e6),
        "invivo.handshakes": resume.count,
        "invivo.handshake_us": _per(resume.inclusive_s, resume.count, 1e6),
        "invivo.wait_share": _per(s("Channel.await_request").self_s, wall),
        "invivo.abandon_us": _per(
            s("Channel.abandon").inclusive_s, s("Channel.abandon").count, 1e6
        ),
        "service.checkpoint_saves": saves.count,
        "service.checkpoint_capture_ms": _per(capture.inclusive_s, capture.count, 1e3),
        "service.checkpoint_write_ms": _per(saves.inclusive_s, saves.count, 1e3),
        "service.checkpoint_bytes": _per(saves.value, saves.count),
        "service.checkpoint_share": _per(capture.inclusive_s + saves.inclusive_s, wall),
        "service.cache_store_ms": _per(store.inclusive_s, store.count, 1e3),
        "trace.witnesses_saved": traces.value,
        "trace.save_ms": _per(traces.inclusive_s, traces.count, 1e3),
        "chess.unattributed_share": _per(s(ROOT_SPAN).self_s, wall),
    }
