"""Content-addressed cache of completed checking results (format v1).

A systematic-testing service re-checks the same programs over and
over: every CI run resubmits the whole suite, most of which did not
change.  This module makes the second check of an unchanged program
free.

**Keying.**  A cache entry is addressed by the SHA-256 of everything
that determines a check's outcome: the program fingerprint (name plus
thread-structure hash), the replay-relevant ``ExecutionConfig`` knobs,
the outcome-relevant budget knobs (``max_executions``,
``max_transitions``, ``stop_on_first_bug``) and the strategy shape
(``max_bound``, state caching, analysis reduction).  ``workers`` is
deliberately *excluded*: serial and parallel runs report identical
results, so they share entries.  ``max_seconds`` is excluded too, but
differently: a wall-clock budget makes the outcome machine-dependent,
so such runs are never cached at all (:meth:`ResultCache.cacheable`).

**Storing.**  Only *authoritative* results are stored: runs that
exhausted their space (or reached their configured ``max_bound``), or
``stop_on_first_bug`` runs that found their bug.  A run cut short by
an execution budget is reproducible and therefore also storable; one
cut short by wall clock is not.

**Serving.**  A hit rebuilds a :class:`~repro.chess.checker.CheckResult`
without constructing a state space or executing a single transition.
Distinct states are restored as synthetic ``("cached", bound, i)``
fingerprints carrying the per-bound histogram -- counts, certificates
and bug reports are exact; only the raw fingerprint values (which are
``PYTHONHASHSEED``-dependent anyway) are gone.  Served results carry
``extras["cache_hit"] = True`` and ``extras["served_from"]``.

**Corpus fast path.**  Independently of exact-key hits, a cache built
with a :class:`~repro.trace.corpus.TraceCorpus` can answer
``stop_on_first_bug`` checks by replaying stored witness traces for
the same program: a reproduced trace *is* the answer the search would
eventually produce, at the cost of one schedule replay instead of an
exploration (``extras["corpus_fastpath"] = True``).
"""

from __future__ import annotations

import json
import pathlib
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from ..core.execution import ExecutionConfig
from ..core.program import Program
from ..errors import ReproError
from ..obs.instrument import Instrumentation
from ..search.strategy import SearchContext, SearchLimits, SearchResult
from ..store import check_stamp, content_digest, read_json, require, write_atomic
from ..trace.format import ThreadTable
from .codec import (
    context_from_json,
    context_to_json,
    int_pairs,
    sanitize_detail,
    search_identity,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..chess.checker import CheckResult
    from ..trace.corpus import TraceCorpus

RESULT_CACHE_FORMAT = "repro-result-cache"
RESULT_CACHE_VERSION = 1
RESULT_CACHE_SUFFIX = ".result.json"


class ResultCacheError(ReproError):
    """A cache entry violates the schema (or cannot be written)."""


def result_cache_key(
    program: Program,
    config: Optional[ExecutionConfig] = None,
    limits: Optional[SearchLimits] = None,
    max_bound: Optional[int] = None,
    state_caching: bool = False,
    analysis: bool = False,
) -> str:
    """The content address of one check's outcome (see module docstring)."""
    limits = limits or SearchLimits()
    return content_digest({
        **search_identity(program, config),
        "limits": {
            "max_executions": limits.max_executions,
            "max_transitions": limits.max_transitions,
            "stop_on_first_bug": limits.stop_on_first_bug,
        },
        "strategy": {
            "name": "icb",
            "max_bound": max_bound,
            "state_caching": state_caching,
            "analysis": analysis,
        },
    })


def _extras_to_json(extras: Dict[str, Any]) -> List[List[Any]]:
    return [[key, sanitize_detail(value)] for key, value in sorted(extras.items())]


def _extras_from_json(data: Any, where: str) -> Dict[str, Any]:
    if not isinstance(data, list):
        raise ResultCacheError(f"{where}: extras must be a list of pairs")
    extras: Dict[str, Any] = {}
    for i, pair in enumerate(data):
        if not isinstance(pair, list) or len(pair) != 2 or not isinstance(pair[0], str):
            raise ResultCacheError(f"{where}[{i}]: must be a [key, value] pair")
        extras[pair[0]] = pair[1]
    return extras


class ResultCache:
    """A directory of completed :class:`CheckResult` s, by content key.

    Args:
        root: directory holding ``<key>.result.json`` entries.
        corpus: optional witness-trace corpus enabling the
            ``stop_on_first_bug`` fast path (see module docstring).
    """

    def __init__(
        self,
        root: Union[str, pathlib.Path],
        corpus: Optional["TraceCorpus"] = None,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.root = pathlib.Path(root)
        self.corpus = corpus
        self.obs = obs

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / f"{key}{RESULT_CACHE_SUFFIX}"

    def keys(self) -> List[str]:
        """The keys of every stored entry, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(
            p.name[: -len(RESULT_CACHE_SUFFIX)]
            for p in self.root.iterdir()
            if p.name.endswith(RESULT_CACHE_SUFFIX)
        )

    def __len__(self) -> int:
        return len(self.keys())

    # -- policy --------------------------------------------------------------

    @staticmethod
    def cacheable(limits: Optional[SearchLimits]) -> bool:
        """Whether a check with these budgets may use the cache at all.

        Wall-clock budgets make the outcome a function of machine
        speed; such runs neither consult nor populate the cache.
        """
        return limits is None or limits.max_seconds is None

    @staticmethod
    def storable(result: "CheckResult") -> bool:
        """Whether ``result`` is authoritative enough to store.

        Completed searches are; so are ``stop_on_first_bug`` searches
        that found their bug (their early stop is the *defined*
        outcome, not an accident of scheduling).
        """
        search = result.search
        if search.completed:
            return True
        return bool(
            search.context.limits.stop_on_first_bug and search.context.bugs
        )

    # -- storing -------------------------------------------------------------

    def store(self, key: str, result: "CheckResult") -> Optional[pathlib.Path]:
        """Persist ``result`` under ``key`` if it is storable."""
        if not self.storable(result):
            return None
        search = result.search
        ctx = search.context
        table = ThreadTable()
        context = context_to_json(ctx, ctx.bugs.values(), ctx.history, table)
        by_bound: Dict[int, int] = {}
        for bound in ctx.states.values():
            by_bound[bound] = by_bound.get(bound, 0) + 1
        context["states_by_bound"] = [
            [bound, count] for bound, count in sorted(by_bound.items())
        ]
        return self._write(key, {
            "format": RESULT_CACHE_FORMAT,
            "version": RESULT_CACHE_VERSION,
            "key": key,
            "program": result.program,
            "strategy": search.strategy,
            "completed": search.completed,
            "stop_reason": search.stop_reason,
            "certified_bound": result.certified_bound,
            "stop_on_first_bug": ctx.limits.stop_on_first_bug,
            "threads": table.to_json(),
            "extras": _extras_to_json(search.extras),
            "context": context,
        })

    def install(self, key: str, entry: Any) -> bool:
        """Install a peer's ``entry`` under ``key`` unless one is
        already there; returns whether it was written.

        The entry must first pass the decoder :meth:`lookup` uses, so
        fleet sync can never plant an entry this build cannot serve;
        a rejected one raises :class:`ResultCacheError`.
        """
        self._decode(entry, key)
        if self.path_for(key).exists():
            return False
        self._write(key, entry)
        return True

    def _write(self, key: str, entry: Dict[str, Any]) -> pathlib.Path:
        target = self.path_for(key)
        try:
            return write_atomic(target, json.dumps(entry, sort_keys=True) + "\n")
        except OSError as exc:
            raise ResultCacheError(f"cannot write cache entry {target}: {exc}") from exc

    # -- serving -------------------------------------------------------------

    def lookup(self, key: str) -> Optional["CheckResult"]:
        """Rebuild the cached result for ``key``, or ``None`` on miss."""
        path = self.path_for(key)
        if not path.exists():
            return None
        result = self._decode(read_json(path, ResultCacheError, "cache entry"), key)
        if self.obs is not None:
            self.obs.cache_served(key, result.program)
        return result

    def _decode(self, data: Any, key: str) -> "CheckResult":
        from ..chess.checker import CheckResult

        where, error = "cache entry", ResultCacheError
        check_stamp(data, RESULT_CACHE_FORMAT, RESULT_CACHE_VERSION, error, "cache")
        if data.get("key") != key:
            raise ResultCacheError(
                f"{where}: key {data.get('key')!r} does not match {key!r}"
            )
        threads = ThreadTable.decode(
            require(data, "threads", list, where, error), "threads", error
        )
        context = require(data, "context", dict, where, error)
        counters, bugs, history = context_from_json(context, threads, error)
        ctx = SearchContext(
            SearchLimits(stop_on_first_bug=bool(data.get("stop_on_first_bug")))
        )
        for name, value in counters.items():
            setattr(ctx, name, value)
        states: Dict[Any, int] = {}
        for bound, count in int_pairs(
            context.get("states_by_bound"),
            "context.states_by_bound",
            "[bound, count]",
            error,
        ):
            for j in range(count):
                # Synthetic fingerprints: the histogram is exact,
                # the raw hash values are not worth persisting.
                states[("cached", bound, j)] = bound
        ctx.states = states
        ctx.bugs = {bug.signature: bug for bug in bugs}
        ctx.history = list(history)
        extras = _extras_from_json(
            require(data, "extras", list, where, error), "extras"
        )
        extras["cache_hit"] = True
        extras["served_from"] = key
        search = SearchResult(
            strategy=require(data, "strategy", str, where, error),
            completed=require(data, "completed", bool, where, error),
            stop_reason=require(data, "stop_reason", str, where, error),
            context=ctx,
            extras=extras,
        )
        return CheckResult(
            program=require(data, "program", str, where, error),
            search=search,
            certified_bound=require(
                data, "certified_bound", int, where, error, optional=True
            ),
        )

    # -- corpus fast path ----------------------------------------------------

    def corpus_fastpath(
        self,
        program: Program,
        config: Optional[ExecutionConfig] = None,
    ) -> Optional["CheckResult"]:
        """Answer a ``stop_on_first_bug`` check by replaying a stored
        witness trace of the same program, if one reproduces."""
        if self.corpus is None:
            return None
        from ..chess.checker import CheckResult
        from ..trace.replay import replay_trace

        for path, trace in self.corpus.matching(program):
            report = replay_trace(trace, program, config=config)
            if not report.reproduced or report.bug is None:
                continue
            bug = report.bug
            ctx = SearchContext(SearchLimits(stop_on_first_bug=True))
            ctx.executions = 1
            ctx.transitions = report.steps_replayed
            ctx.bugs[bug.signature] = bug
            result = CheckResult(
                program=program.name,
                search=SearchResult(
                    strategy="corpus-fastpath",
                    completed=False,
                    stop_reason="stopping at first bug",
                    context=ctx,
                    extras={
                        "corpus_fastpath": True,
                        "trace": path.name,
                    },
                ),
                certified_bound=None,
            )
            if self.obs is not None:
                self.obs.cache_served(f"corpus:{path.name}", program.name)
            return result
        return None
