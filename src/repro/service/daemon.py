"""The checking service daemon: ``repro serve``.

One directory is the whole service::

    <root>/
      jobs.jsonl        the durable job queue (repro.service.jobs)
      checkpoints/      one live checkpoint per job (repro.service.checkpoint)
      cache/            content-addressed results (repro.service.cache)
      results/          one JSON report per finished job
      traces/           witness-trace corpus shared by every job

The daemon folds the journal, requeues whatever a previous daemon left
running (:meth:`~repro.service.jobs.JobQueue.recover`), then loops:
claim the best queued job, resolve its program spec, and run
:meth:`~repro.chess.checker.ChessChecker.check` with the job's knobs
plus the service's durability plumbing -- a per-job checkpoint file,
the shared result cache, and the shared trace corpus.  Killing the
daemon (or its worker processes) at any point therefore loses no
work: on restart the job is requeued by the journal and its search
resumes from the checkpoint; a resubmission of finished work is
served from the cache without exploring anything.

A failed job is requeued until it exhausts ``max_attempts``; the
failure log accumulates in the journal (``repro status`` shows the
latest error).
"""

from __future__ import annotations

import importlib
import json
import pathlib
import time
from typing import Any, Dict, List, Optional, Union

from ..chess.checker import ChessChecker, CheckResult
from ..core.program import Program
from ..errors import ReproError
from ..obs.instrument import Instrumentation
from ..search.strategy import SearchLimits
from ..store import read_json, write_atomic
from ..trace.corpus import TraceCorpus
from .cache import ResultCache, result_cache_key
from .checkpoint import CHECKPOINT_SUFFIX, Checkpointer
from .jobs import Job, JobQueue

RESULT_SUFFIX = ".json"


def resolve_spec(spec: str) -> Program:
    """Build a program from a job spec (builtin or ``module:factory``)."""
    from ..programs import resolve_builtin

    program = resolve_builtin(spec)
    if program is not None:
        return program
    if ":" in spec and "." in spec.split(":", 1)[0]:
        module_name, factory_name = spec.split(":", 1)
        try:
            module = importlib.import_module(module_name)
            program = getattr(module, factory_name)()
        except Exception as exc:
            raise ReproError(f"cannot resolve spec {spec!r}: {exc}") from exc
        if isinstance(program, Program):
            return program
        raise ReproError(f"spec {spec!r} did not produce a Program")
    raise ReproError(f"unknown program spec {spec!r}")


class CheckingService:
    """Dispatches queued jobs to the checker (see module docstring)."""

    def __init__(
        self,
        root: Union[str, pathlib.Path],
        max_attempts: int = 3,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.root = pathlib.Path(root)
        self.queue = JobQueue(self.root)
        self.results_dir = self.root / "results"
        self.checkpoints_dir = self.root / "checkpoints"
        self.traces_dir = self.root / "traces"
        self.max_attempts = max(1, max_attempts)
        self.obs = obs
        self.cache = ResultCache(
            self.root / "cache", corpus=TraceCorpus(self.traces_dir), obs=obs
        )

    # -- paths ---------------------------------------------------------------

    def checkpoint_path(self, job: Job) -> pathlib.Path:
        return self.checkpoints_dir / f"{job.id}{CHECKPOINT_SUFFIX}"

    def result_path(self, job_id: str) -> pathlib.Path:
        return self.results_dir / f"{job_id}{RESULT_SUFFIX}"

    def load_result(self, job_id: str) -> Dict[str, Any]:
        return read_json(self.result_path(job_id), ReproError, f"the result of {job_id}")

    # -- serving -------------------------------------------------------------

    def serve(
        self,
        once: bool = False,
        poll_interval: float = 0.2,
        max_jobs: Optional[int] = None,
    ) -> int:
        """Process queued jobs; returns how many were handled.

        ``once`` drains the queue and returns instead of idling for
        new submissions -- the mode CI and the tests use.
        """
        self.queue.recover()
        handled = 0
        while True:
            if max_jobs is not None and handled >= max_jobs:
                return handled
            job = self.queue.claim()
            if job is None:
                if once:
                    return handled
                time.sleep(poll_interval)
                continue
            self._handle(job)
            handled += 1

    def _handle(self, job: Job) -> None:
        try:
            result = self.run_job(job)
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            self.queue.fail(
                job.id, str(exc), requeue=job.attempts < self.max_attempts
            )
            return
        path = self.write_result(job, result)
        cache_hit = bool(result.search.extras.get("cache_hit"))
        self.queue.complete(job.id, result_path=str(path), cache_hit=cache_hit)
        # The search is decided; its checkpoint has nothing to resume.
        self.clear_checkpoint(job)

    def clear_checkpoint(self, job: Job) -> None:
        Checkpointer(self.checkpoint_path(job), {}).clear()

    @staticmethod
    def _outcome_args(job: Job) -> Dict[str, Any]:
        """The outcome-relevant arguments :meth:`run_job` passes to
        :meth:`ChessChecker.check`, which keys its result cache on them."""
        return {
            "max_bound": job.max_bound,
            "limits": SearchLimits(
                max_executions=job.max_executions,
                max_transitions=job.max_transitions,
                stop_on_first_bug=job.stop_on_first_bug,
            ),
            "state_caching": job.state_caching,
        }

    def cache_key(self, job: Job) -> Optional[str]:
        """The result-cache key the checker stores ``job``'s result
        under -- what fleet sync asks peers for.

        Derived from the very arguments :meth:`run_job` checks with,
        under the same default :class:`ExecutionConfig`; ``workers``
        is not part of a key.  ``None`` if the spec does not resolve
        here: the job then fails when run, not during sync.
        """
        try:
            program = resolve_spec(job.spec)
        except Exception:  # noqa: BLE001 - sync must never break the claim loop
            return None
        return result_cache_key(program, **self._outcome_args(job))

    def run_job(self, job: Job) -> CheckResult:
        return ChessChecker(resolve_spec(job.spec)).check(
            **self._outcome_args(job),
            workers=job.workers,
            trace_dir=self.traces_dir,
            trace_spec=job.spec,
            obs=self.obs,
            checkpoint=self.checkpoint_path(job),
            cache=self.cache,
        )

    def write_result(self, job: Job, result: CheckResult) -> pathlib.Path:
        search = result.search
        bugs: List[Dict[str, Any]] = [
            {
                "kind": bug.kind.value,
                "message": bug.message,
                "preemptions": bug.preemptions,
                "schedule_length": len(bug.schedule),
            }
            for bug in search.bugs
        ]
        payload = {
            "format": "repro-service-result",
            "version": 1,
            "job": job.id,
            "spec": job.spec,
            "program": result.program,
            "completed": search.completed,
            "stop_reason": search.stop_reason,
            "certified_bound": result.certified_bound,
            "executions": result.executions,
            "transitions": result.transitions,
            "distinct_states": result.distinct_states,
            "found_bug": result.found_bug,
            "bugs": bugs,
            "cache_hit": bool(search.extras.get("cache_hit")),
            "corpus_fastpath": bool(search.extras.get("corpus_fastpath")),
            "resumed": bool(search.extras.get("resumed")),
        }
        return write_atomic(
            self.result_path(job.id), json.dumps(payload, sort_keys=True, indent=2) + "\n"
        )
