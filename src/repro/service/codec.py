"""The JSON codec that checkpoints and result-cache entries share.

Both formats persist a :class:`~repro.search.strategy.SearchContext`:
its counters, deduplicated bugs and coverage history, with every
:class:`~repro.core.thread.ThreadId` written once into the document's
thread table and referred to by index.  Each format keeps its own
``states`` field -- exact fingerprints in a checkpoint, a per-bound
histogram in a cache entry -- so that part is left to the caller.

Every decoder takes the caller's error class: a malformed checkpoint
raises ``CheckpointError`` and a malformed cache entry
``ResultCacheError``, with no re-wrapping in between.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Type

from ..core.execution import ExecutionConfig
from ..core.program import Program
from ..core.thread import ThreadId
from ..errors import BugKind, BugReport, ReproError
from ..store import require
from ..trace.format import (
    ProgramFingerprint,
    ThreadTable,
    config_to_json,
    decode_schedule,
    thread_at,
)

#: The scalar ``SearchContext`` counters both formats persist.
COUNTERS = (
    "executions",
    "transitions",
    "analysis_pruned",
    "max_steps",
    "max_blocking",
    "max_preemptions",
)


def search_identity(
    program: Program, config: Optional[ExecutionConfig]
) -> Dict[str, Any]:
    """The program and config part of a checkpoint fingerprint and of
    a result-cache key."""
    return {
        "program": ProgramFingerprint.of(program).to_json(),
        "config": config_to_json(config or ExecutionConfig()),
    }


def int_pairs(
    data: Any, where: str, shape: str, error: Type[ReproError]
) -> List[Tuple[int, int]]:
    """A list of ``[int, int]`` pairs; ``shape`` names the pair in
    messages, e.g. ``"[executions, states]"``."""
    if not isinstance(data, list):
        raise error(f"{where} must be a list")
    for i, pair in enumerate(data):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
        ):
            raise error(f"{where}[{i}] must be a {shape} int pair")
    return [(a, b) for a, b in data]


def sanitize_detail(value: Any) -> Any:
    """Reduce a bug-detail value to JSON primitives.

    Details never participate in bug signatures or identities, so a
    lossy ``str()`` fallback cannot affect dedup or parity -- only the
    human-facing rendering of exotic payloads.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [sanitize_detail(v) for v in value]
    return str(value)


def bug_to_json(bug: BugReport, table: ThreadTable) -> Dict[str, Any]:
    return {
        "kind": bug.kind.value,
        "message": bug.message,
        "thread": table.index(bug.thread) if bug.thread is not None else None,
        "schedule": table.encode_schedule(bug.schedule),
        "preemptions": bug.preemptions,
        "step_index": bug.step_index,
        "details": [[key, sanitize_detail(value)] for key, value in bug.details],
    }


def bug_from_json(
    data: Any, threads: Sequence[ThreadId], where: str, error: Type[ReproError]
) -> BugReport:
    try:
        kind = BugKind(require(data, "kind", str, where, error))
    except ValueError as exc:
        raise error(f"{where}: {exc}") from exc
    thread_raw = data.get("thread")
    details: List[Tuple[str, Any]] = []
    for i, pair in enumerate(require(data, "details", list, where, error)):
        if not isinstance(pair, list) or len(pair) != 2 or not isinstance(pair[0], str):
            raise error(f"{where}: details[{i}] must be a [key, value] pair")
        value = pair[1]
        details.append((pair[0], tuple(value) if isinstance(value, list) else value))
    return BugReport(
        kind=kind,
        message=require(data, "message", str, where, error),
        thread=(
            thread_at(thread_raw, threads, f"{where}.thread", error)
            if thread_raw is not None
            else None
        ),
        schedule=decode_schedule(
            data.get("schedule"), threads, f"{where}.schedule", error
        ),
        preemptions=require(data, "preemptions", int, where, error),
        step_index=require(data, "step_index", int, where, error),
        details=tuple(details),
    )


def context_to_json(
    counters: Any,
    bugs: Iterable[BugReport],
    history: Iterable[Tuple[int, int]],
    table: ThreadTable,
) -> Dict[str, Any]:
    """The shared ``context`` object, without its ``states`` field.

    ``counters`` is anything carrying the :data:`COUNTERS` attributes
    (a live ``SearchContext`` or a ``Checkpoint``).
    """
    data: Dict[str, Any] = {name: getattr(counters, name) for name in COUNTERS}
    data["bugs"] = [bug_to_json(bug, table) for bug in bugs]
    data["history"] = [[e, s] for e, s in history]
    return data


def context_from_json(
    data: Any, threads: Sequence[ThreadId], error: Type[ReproError]
) -> Tuple[Dict[str, int], Tuple[BugReport, ...], Tuple[Tuple[int, int], ...]]:
    """Decode :func:`context_to_json`: ``(counters, bugs, history)``."""
    where = "context"
    counters = {name: require(data, name, int, where, error) for name in COUNTERS}
    bugs = tuple(
        bug_from_json(entry, threads, f"{where}.bugs[{i}]", error)
        for i, entry in enumerate(require(data, "bugs", list, where, error))
    )
    history = int_pairs(
        data.get("history"), f"{where}.history", "[executions, states]", error
    )
    return counters, bugs, tuple(history)
