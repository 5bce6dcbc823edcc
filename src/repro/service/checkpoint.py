"""Durable checkpoints of a live ICB search (format v1).

A checkpoint freezes everything the iterative context-bounding loop
needs to continue after process death: the current preemption bound,
the two work queues (current-bound frontier and next-bound deferrals,
both as replayable :class:`~repro.parallel.workitem.WorkItem` s), the
accumulated :class:`~repro.search.strategy.SearchContext` statistics
(states, deduplicated bugs, counters, coverage history), the optional
work-item cache, and a frozen :class:`~repro.obs.metrics.MetricsSnapshot`.

**Exactness.**  Checkpoints are only ever taken *between* work items
(serial engine) or at shard boundaries (parallel engine), never in the
middle of one.  Work performed after the last checkpoint dies with the
process and is simply redone on resume, so an interrupted-then-resumed
run reports exactly the executions, distinct states, certified bound
and ``BugReport.identity`` set of an uninterrupted run -- the property
``tests/service`` asserts over every buggy builtin.

**Identity.**  A checkpoint binds to a search via a *fingerprint*:
program name + thread-structure hash, the replay-relevant
``ExecutionConfig`` knobs, the strategy shape (name, state caching,
analysis reduction) and a hash probe.  State fingerprints are Python
hashes and therefore depend on ``PYTHONHASHSEED``; the probe --
``hash("repro-checkpoint-probe")`` recorded at save time -- detects a
mismatched hash seed at load time and fails with
:class:`CheckpointMismatch` instead of silently merging incomparable
fingerprints.  Budgets (``SearchLimits``) and ``max_bound`` are
deliberately *excluded* from the fingerprint: resuming an interrupted
run with a bigger budget or a deeper bound is the point of the
exercise.

The on-disk representation is versioned JSON, written through
:func:`repro.store.write_atomic` so a crash mid-save leaves the previous
checkpoint intact.  See ``docs/service.md`` for the full schema.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.execution import ExecutionConfig
from ..core.program import Program
from ..core.thread import ThreadId
from ..errors import BugReport, ReproError
from ..obs.events import ObsFormatError
from ..obs.instrument import Instrumentation
from ..obs.metrics import MetricsSnapshot
from ..parallel.workitem import WorkItem
from ..search.statecache import WorkItemCache
from ..search.strategy import SearchContext, SearchLimits, SearchResult
from ..store import check_stamp, read_json, require, write_atomic
from ..trace.format import ThreadTable, decode_schedule, thread_at
from .codec import (
    COUNTERS,
    context_from_json,
    context_to_json,
    int_pairs,
    search_identity,
)

#: Identifies a file as a checkpoint regardless of extension.
CHECKPOINT_FORMAT = "repro-checkpoint"
#: Bumped on every incompatible schema change; loaders reject unknown
#: versions instead of guessing.
CHECKPOINT_VERSION = 1
#: Canonical file suffix for checkpoint files.
CHECKPOINT_SUFFIX = ".ckpt.json"

#: The string whose hash is stored in every checkpoint.  Two processes
#: agree on all state fingerprints iff they agree on this one value,
#: so comparing probes at load time detects a PYTHONHASHSEED mismatch
#: before any fingerprint is trusted.
HASH_PROBE_TEXT = "repro-checkpoint-probe"

#: Default save cadence of the serial engine, in processed work items.
DEFAULT_STRIDE = 128


class CheckpointError(ReproError):
    """A checkpoint file violates the schema (or cannot be written)."""


class CheckpointMismatch(CheckpointError):
    """A checkpoint belongs to a different search than the one resuming.

    Raised when the program fingerprint, execution config, strategy
    shape or hash probe recorded in the checkpoint disagrees with the
    resuming process.  Resuming anyway would silently corrupt state
    and bug accounting, so this is always fatal.
    """


def hash_probe() -> int:
    """This process's value of the fingerprint-compatibility probe."""
    return hash(HASH_PROBE_TEXT)


def search_fingerprint(
    program: Program,
    config: Optional[ExecutionConfig] = None,
    strategy: str = "icb",
    state_caching: bool = False,
    analysis: bool = False,
) -> Dict[str, Any]:
    """The identity a checkpoint binds to (see module docstring).

    Serial and parallel ICB share the strategy name ``"icb"``: they
    explore the same executions, so a checkpoint written by either
    engine can be resumed by the other.
    """
    return {
        **search_identity(program, config),
        "strategy": strategy,
        "state_caching": state_caching,
        "analysis": analysis,
        "hash_probe": hash_probe(),
    }


def _items_to_json(
    items: Sequence[WorkItem], table: ThreadTable
) -> List[Dict[str, Any]]:
    return [
        {
            "schedule": table.encode_schedule(item.schedule),
            "tid": table.index(item.tid),
            "preemptions": item.preemptions,
        }
        for item in items
    ]


def _items_from_json(
    data: Any, threads: List[ThreadId], where: str
) -> Tuple[WorkItem, ...]:
    if not isinstance(data, list):
        raise CheckpointError(f"{where}: must be a list")
    items: List[WorkItem] = []
    for i, entry in enumerate(data):
        at = f"{where}[{i}]"
        items.append(
            WorkItem(
                schedule=decode_schedule(
                    entry.get("schedule") if isinstance(entry, dict) else None,
                    threads,
                    f"{at}.schedule",
                    CheckpointError,
                ),
                tid=thread_at(
                    require(entry, "tid", int, at, CheckpointError),
                    threads,
                    f"{at}.tid",
                    CheckpointError,
                ),
                preemptions=require(entry, "preemptions", int, at, CheckpointError),
            )
        )
    return tuple(items)


def normalize_items(raw_items: Iterable[Tuple[object, ThreadId]]) -> List[WorkItem]:
    """Wrap the serial engine's raw ``(state, tid)`` queue entries.

    A stateless state *is* its schedule, so ``tuple(state)`` is the
    replay recipe; the preemption count is advisory (``as_pair``
    discards it on the way back in) and recorded as zero.
    """
    return [WorkItem(schedule=tuple(state), tid=tid) for state, tid in raw_items]  # type: ignore[arg-type]


@dataclass
class Checkpoint:
    """One frozen snapshot of a live ICB search (see module docstring)."""

    fingerprint: Dict[str, Any]
    bound: int
    completed_bound: Optional[int]
    work_items: Tuple[WorkItem, ...]
    next_items: Tuple[WorkItem, ...]
    executions: int
    transitions: int
    analysis_pruned: int
    max_steps: int
    max_blocking: int
    max_preemptions: int
    #: state fingerprint -> minimal preemption count (the ground truth
    #: every resumed statistic reconciles against).
    states: Dict[int, int]
    bugs: Tuple[BugReport, ...]
    history: Tuple[Tuple[int, int], ...]
    #: Serialized work-item cache (``None`` when state caching is off).
    cache: Optional[Dict[str, Any]] = None
    #: Frozen metrics at save time (``None`` for uninstrumented runs).
    metrics: Optional[MetricsSnapshot] = None
    #: Parallel bookkeeping extras (shards, retries, ...) carried so a
    #: resumed coordinator run reports cumulative numbers.
    parallel: Dict[str, int] = field(default_factory=dict)
    sequence: int = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def capture(
        cls,
        fingerprint: Dict[str, Any],
        bound: int,
        work_items: Sequence[WorkItem],
        next_items: Sequence[WorkItem],
        ctx: SearchContext,
        completed_bound: Optional[int],
        cache: Optional[WorkItemCache] = None,
        metrics: Optional[MetricsSnapshot] = None,
        parallel: Optional[Dict[str, int]] = None,
        sequence: int = 0,
    ) -> "Checkpoint":
        states: Dict[int, int] = {}
        for fp, preemptions in ctx.states.items():
            if not isinstance(fp, int) or isinstance(fp, bool):
                raise CheckpointError(
                    "only integer state fingerprints can be checkpointed "
                    f"(got {type(fp).__name__})"
                )
            states[fp] = preemptions
        return cls(
            fingerprint=dict(fingerprint),
            bound=bound,
            completed_bound=completed_bound,
            work_items=tuple(work_items),
            next_items=tuple(next_items),
            **{name: getattr(ctx, name) for name in COUNTERS},
            states=states,
            bugs=tuple(ctx.bugs.values()),
            history=tuple(ctx.history),
            cache=cache.export_state() if cache is not None else None,
            metrics=metrics,
            parallel=dict(parallel or {}),
            sequence=sequence,
        )

    # -- serialization ------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        table = ThreadTable()
        work = _items_to_json(self.work_items, table)
        nxt = _items_to_json(self.next_items, table)
        context = context_to_json(self, self.bugs, self.history, table)
        context["states"] = [[fp, pre] for fp, pre in sorted(self.states.items())]
        cache_json: Optional[Dict[str, Any]] = None
        if self.cache is not None:
            cache_json = {
                "items": [
                    [fp, table.index(tid)] for fp, tid in self.cache["items"]
                ],
                "hits": self.cache["hits"],
                "misses": self.cache["misses"],
            }
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint,
            "sequence": self.sequence,
            "bound": self.bound,
            "completed_bound": self.completed_bound,
            "threads": table.to_json(),
            "work_items": work,
            "next_items": nxt,
            "context": context,
            "cache": cache_json,
            "metrics": self.metrics.to_dict() if self.metrics is not None else None,
            "parallel": dict(self.parallel),
        }

    @classmethod
    def from_json(cls, data: Any) -> "Checkpoint":
        where, error = "checkpoint", CheckpointError
        check_stamp(data, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, error, where)
        threads = ThreadTable.decode(
            require(data, "threads", list, where, error), "threads", error
        )
        context = require(data, "context", dict, where, error)
        counters, bugs, history = context_from_json(context, threads, error)
        states = dict(
            int_pairs(
                context.get("states"), "context.states", "[fingerprint, bound]", error
            )
        )
        cache_raw = require(data, "cache", dict, where, error, optional=True)
        cache: Optional[Dict[str, Any]] = None
        if cache_raw is not None:
            pairs = int_pairs(
                cache_raw.get("items"),
                "cache.items",
                "[fingerprint, thread-index]",
                error,
            )
            cache = {
                "items": [
                    (fp, thread_at(idx, threads, f"cache.items[{i}]", error))
                    for i, (fp, idx) in enumerate(pairs)
                ],
                "hits": require(cache_raw, "hits", int, "cache", error),
                "misses": require(cache_raw, "misses", int, "cache", error),
            }
        metrics_raw = data.get("metrics")
        try:
            metrics = (
                MetricsSnapshot.from_dict(metrics_raw)
                if metrics_raw is not None
                else None
            )
        except ObsFormatError as exc:
            raise CheckpointError(f"metrics: {exc}") from exc
        parallel_raw = data.get("parallel") or {}
        if not isinstance(parallel_raw, dict):
            raise CheckpointError("parallel must be an object")
        parallel = {
            str(k): v
            for k, v in parallel_raw.items()
            if isinstance(v, int) and not isinstance(v, bool)
        }
        return cls(
            fingerprint=require(data, "fingerprint", dict, where, error),
            bound=require(data, "bound", int, where, error),
            completed_bound=require(
                data, "completed_bound", int, where, error, optional=True
            ),
            work_items=_items_from_json(
                require(data, "work_items", list, where, error), threads, "work_items"
            ),
            next_items=_items_from_json(
                require(data, "next_items", list, where, error), threads, "next_items"
            ),
            **counters,
            states=states,
            bugs=bugs,
            history=history,
            cache=cache,
            metrics=metrics,
            parallel=parallel,
            sequence=require(data, "sequence", int, where, error),
        )

    def save(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Atomically persist this checkpoint (see :func:`repro.store.write_atomic`)."""
        try:
            return write_atomic(path, json.dumps(self.to_json(), sort_keys=True) + "\n")
        except OSError as exc:
            raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "Checkpoint":
        return cls.from_json(read_json(path, CheckpointError, "checkpoint"))

    # -- resuming -----------------------------------------------------------

    def validate(self, fingerprint: Dict[str, Any]) -> None:
        """Fail with :class:`CheckpointMismatch` unless this checkpoint
        belongs to the search described by ``fingerprint``."""
        saved, current = dict(self.fingerprint), dict(fingerprint)
        saved_probe = saved.pop("hash_probe", None)
        current_probe = current.pop("hash_probe", None)
        if saved != current:
            differing = sorted(
                key
                for key in set(saved) | set(current)
                if saved.get(key) != current.get(key)
            )
            raise CheckpointMismatch(
                "checkpoint belongs to a different search "
                f"(differs in: {', '.join(differing)})"
            )
        if saved_probe != current_probe:
            raise CheckpointMismatch(
                "checkpoint was written under a different PYTHONHASHSEED; "
                "state fingerprints are not comparable across hash seeds "
                "(pin PYTHONHASHSEED to resume across processes)"
            )

    def restore_context(self, ctx: SearchContext) -> None:
        """Install this checkpoint's statistics into a live context.

        Overwrites (rather than merges) every accumulated quantity:
        the context is expected to be fresh apart from the
        ``record_initial`` call the strategy driver already made.  When
        the context is instrumented, the saved metrics snapshot is
        absorbed and state/bug counts reconciled from the restored
        ground truth, so resumed metrics line up with the context.
        """
        self._install(ctx)
        obs = ctx.obs
        if obs is not None:
            if self.metrics is not None:
                obs.metrics.absorb(self.metrics)
            else:
                # Uninstrumented save, instrumented resume: recover the
                # totals (per-bound execution breakdowns are lost).
                obs.metrics.add("executions", self.executions)
                obs.metrics.add("transitions", self.transitions)
            obs.metrics.reconcile_states(ctx.states_by_bound(), bugs=len(ctx.bugs))
            obs.checkpoint_resumed(
                self.sequence, self.bound, self.executions, self.transitions
            )

    def _install(self, ctx: SearchContext) -> None:
        ctx.states = dict(self.states)
        ctx.bugs = {bug.signature: bug for bug in self.bugs}
        for name in COUNTERS:
            setattr(ctx, name, getattr(self, name))
        ctx.history = list(self.history)

    def restore_cache(self, cache: WorkItemCache) -> None:
        if self.cache is not None:
            cache.restore_state(
                self.cache["items"], self.cache["hits"], self.cache["misses"]
            )

    def as_base_result(self, limits: Optional[SearchLimits] = None) -> SearchResult:
        """This checkpoint's statistics as a mergeable shard result.

        The parallel coordinator seeds its per-run result list with
        this, so ``SearchResult.merge`` folds pre-interruption work in
        exactly like any completed shard.  The ``bound: -1`` extra
        sorts it before every real shard, keeping merge order (and the
        merged coverage history) deterministic.
        """
        ctx = SearchContext(limits)
        self._install(ctx)
        return SearchResult(
            strategy="icb-checkpoint",
            completed=False,
            stop_reason="resumed from checkpoint",
            context=ctx,
            extras={"bound": -1, "shard_id": -1},
        )


class Checkpointer:
    """Save/resume driver handed to the search engines.

    One instance manages one checkpoint file.  The serial ICB loop
    calls :meth:`note_item` after every processed work item and saves
    when the stride elapses; both engines call :meth:`save_state` at
    forced save points (bound completions, shard requeues).  The file
    is loaded at most once, via :meth:`resume_state`, and validated
    against this checkpointer's fingerprint.
    """

    def __init__(
        self,
        path: Union[str, pathlib.Path],
        fingerprint: Dict[str, Any],
        stride: int = DEFAULT_STRIDE,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.path = pathlib.Path(path)
        self.fingerprint = dict(fingerprint)
        self.stride = max(1, stride)
        self.obs = obs
        self.sequence = 0
        self._since_save = 0
        self._resumed: Optional[Checkpoint] = None
        self._loaded = False

    @classmethod
    def for_program(
        cls,
        path: Union[str, pathlib.Path],
        program: Program,
        config: Optional[ExecutionConfig] = None,
        stride: int = DEFAULT_STRIDE,
        state_caching: bool = False,
        analysis: bool = False,
        obs: Optional[Instrumentation] = None,
    ) -> "Checkpointer":
        """Convenience constructor computing the fingerprint."""
        return cls(
            path,
            search_fingerprint(
                program, config, state_caching=state_caching, analysis=analysis
            ),
            stride=stride,
            obs=obs,
        )

    # -- resuming -----------------------------------------------------------

    def resume_state(self) -> Optional[Checkpoint]:
        """The validated checkpoint to continue from, if one exists."""
        if not self._loaded:
            self._loaded = True
            if self.path.exists():
                checkpoint = Checkpoint.load(self.path)
                checkpoint.validate(self.fingerprint)
                self.sequence = checkpoint.sequence
                self._resumed = checkpoint
        return self._resumed

    # -- saving -------------------------------------------------------------

    def note_item(self) -> bool:
        """Count one processed work item; True when a save is due."""
        self._since_save += 1
        return self._since_save >= self.stride

    def save_state(
        self,
        bound: int,
        work_items: Sequence[WorkItem],
        next_items: Sequence[WorkItem],
        ctx: SearchContext,
        completed_bound: Optional[int],
        cache: Optional[WorkItemCache] = None,
        metrics: Optional[MetricsSnapshot] = None,
        parallel: Optional[Dict[str, int]] = None,
    ) -> Checkpoint:
        """Capture and atomically persist the current search state."""
        if metrics is None and ctx.obs is not None:
            metrics = ctx.obs.snapshot()
        self.sequence += 1
        self._since_save = 0
        checkpoint = Checkpoint.capture(
            self.fingerprint,
            bound,
            work_items,
            next_items,
            ctx,
            completed_bound,
            cache=cache,
            metrics=metrics,
            parallel=parallel,
            sequence=self.sequence,
        )
        checkpoint.save(self.path)
        obs = self.obs or ctx.obs
        if obs is not None:
            obs.checkpoint_saved(
                self.sequence, bound, len(work_items), len(next_items), ctx.executions
            )
        return checkpoint

    def clear(self) -> None:
        """Remove the checkpoint file (the run completed)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
