"""A durable job queue over an append-only JSONL journal.

The queue's entire state is the fold of ``jobs.jsonl``: every mutation
(``submitted``, ``started``, ``completed``, ``failed``, ``requeued``)
is one appended, fsynced line, and the in-memory view is rebuilt by
replaying the journal from the top.  That makes the queue trivially
crash-safe -- a killed daemon loses at most the *acknowledgement* of
work, never the work itself: :meth:`JobQueue.recover` folds the
journal, finds jobs stuck ``running`` with no live owner, and requeues
them.  Re-running a recovered job is cheap by construction, because
the daemon gives every job a durable checkpoint file
(:mod:`repro.service.checkpoint`) and a shared result cache
(:mod:`repro.service.cache`).

Scheduling is by ``(-priority, submission order)``; submissions are
deduplicated against *active* (queued or running) jobs with the same
work description, so hammering ``repro submit`` is idempotent.

**Fleet mode** (see :mod:`repro.net.lease`) adds lease events to the
same journal: ``claimed``/``renewed``/``lease_expired`` carry a
*fencing token* -- a per-job monotonic counter -- and the fold only
honours the event whose fence matches the job's current lease.  Two
daemons racing to claim the same job both append, but journal order
arbitrates deterministically: the first ``claimed`` wins and the
second is a no-op.  A ``completed``/``failed`` event carrying a stale
fence (a daemon finishing work whose lease was taken over) is likewise
ignored, so a job's effective completion happens exactly once.

**Torn tails.**  A crash in the middle of an append can leave a
partial final line with no terminating newline.  Such a record was
never committed: the fold ignores it, and the next append (or
:meth:`JobQueue.recover`) truncates the journal back to the last valid
record.  A newline-*terminated* garbage line is real corruption and
still raises :class:`JobQueueError`.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import ReproError
from ..store import content_digest

JOURNAL_NAME = "jobs.jsonl"

#: Job lifecycle states (the fold of the journal's event stream).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


class JobQueueError(ReproError):
    """The journal is malformed or an operation is invalid."""


#: The job fields that describe its work (see :meth:`Job.work_key`).
WORK_FIELDS = (
    "spec",
    "max_bound",
    "workers",
    "stop_on_first_bug",
    "max_executions",
    "max_transitions",
    "state_caching",
)


@dataclass
class Job:
    """One unit of checking work and its current lifecycle state."""

    id: str
    spec: str
    priority: int = 0
    max_bound: Optional[int] = None
    workers: Optional[int] = None
    stop_on_first_bug: bool = False
    max_executions: Optional[int] = None
    max_transitions: Optional[int] = None
    state_caching: bool = False
    #: Lifecycle, maintained by the journal fold -- never set directly.
    status: str = QUEUED
    attempts: int = 0
    seq: int = 0
    result_path: Optional[str] = None
    error: Optional[str] = None
    cache_hit: bool = False
    #: Lease state (fleet mode only; see repro.net.lease).  ``fence``
    #: is the per-job monotonic fencing token, never reset: each new
    #: claim must carry exactly ``fence + 1``.
    owner: Optional[str] = None
    fence: int = 0
    lease_expires: Optional[float] = None

    def work_key(self) -> Tuple[Any, ...]:
        """What makes two submissions "the same work" for dedup."""
        return tuple(getattr(self, name) for name in WORK_FIELDS)

    def identity(self) -> str:
        """The content address of this job's work: the SHA-256 of its
        sorted-JSON work description.  Two submissions with the same
        identity are the same work, which is what makes resubmits over
        the wire idempotent (see :mod:`repro.net`)."""
        return content_digest(dict(zip(WORK_FIELDS, self.work_key())))

    def describe(self) -> str:
        extra = ""
        if self.status == DONE and self.cache_hit:
            extra = " (cache hit)"
        elif self.status == FAILED and self.error:
            extra = f" ({self.error})"
        return (
            f"{self.id}  {self.status:<7}  prio={self.priority}  "
            f"attempts={self.attempts}  {self.spec}{extra}"
        )


_JOB_FIELDS = (
    "spec",
    "priority",
    "max_bound",
    "workers",
    "stop_on_first_bug",
    "max_executions",
    "max_transitions",
    "state_caching",
)


def _fence_of(event: Dict[str, Any]) -> int:
    try:
        return int(event.get("fence", 0))
    except (TypeError, ValueError):
        return -1


def _expires_of(event: Dict[str, Any]) -> Optional[float]:
    value = event.get("expires")
    try:
        return float(value) if value is not None else None
    except (TypeError, ValueError):
        return None


def _fence_current(event: Dict[str, Any], job: Job) -> bool:
    """Whether a lifecycle event speaks for the job's current lease.

    Legacy events carry no fence and are always honoured (the
    single-daemon topology has no contention to arbitrate).  A fenced
    event is honoured only when its token matches: a daemon finishing
    work whose lease was expired and re-claimed appends a stale fence,
    which folds to a no-op -- the "exactly once" half of fencing.
    """
    if "fence" not in event:
        return True
    return _fence_of(event) == job.fence


class JobQueue:
    """Fold-of-a-journal job queue (see module docstring).

    Not safe for *concurrent writers*: the intended topology is one
    ``repro serve`` daemon owning the journal, with ``submit``/
    ``status`` CLI invocations running between daemon polls.  Each
    public method re-reads the journal, so separate processes always
    see each other's appended events.
    """

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(root)
        self.journal = self.root / JOURNAL_NAME

    # -- journal primitives --------------------------------------------------

    def _append(self, event: Dict[str, Any]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        self.repair()
        line = json.dumps(event, sort_keys=True)
        with open(self.journal, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    @staticmethod
    def _parse_line(line: str) -> Optional[Dict[str, Any]]:
        """One journal record, or ``None`` if the line is not one."""
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            return None
        if not isinstance(event, dict) or "event" not in event:
            return None
        return event

    def _read(self) -> Tuple[List[Dict[str, Any]], int]:
        """Parse the journal; returns ``(events, valid_length)``.

        ``valid_length`` is the byte offset just past the last
        committed record.  A record is committed iff its line is
        newline-terminated: appends write line+newline in one call, so
        only a crash mid-append leaves an *unterminated* tail, and
        such a tail -- whatever its bytes -- was never acknowledged
        and is ignored (then truncated by :meth:`repair`).  A
        newline-terminated line that fails to parse is real corruption
        and raises.
        """
        try:
            raw = self.journal.read_bytes()
        except FileNotFoundError:
            return [], 0
        except OSError as exc:
            raise JobQueueError(f"cannot read journal {self.journal}: {exc}") from exc
        events: List[Dict[str, Any]] = []
        offset = 0
        lineno = 0
        while offset < len(raw):
            lineno += 1
            end = raw.find(b"\n", offset)
            if end == -1:
                # Torn tail: a crashed append never committed this
                # record.  valid_length excludes it.
                return events, offset
            line = raw[offset:end].decode("utf-8", errors="replace").strip()
            if line:
                event = self._parse_line(line)
                if event is None:
                    raise JobQueueError(
                        f"{self.journal}:{lineno}: not a valid journal record"
                    )
                events.append(event)
            offset = end + 1
        return events, offset

    def _events(self) -> List[Dict[str, Any]]:
        return self._read()[0]

    def repair(self) -> bool:
        """Truncate a torn final record (see :meth:`_read`); returns
        whether anything was cut."""
        if not self.journal.exists():
            return False
        _, valid = self._read()
        if valid >= self.journal.stat().st_size:
            return False
        with open(self.journal, "r+b") as fh:
            fh.truncate(valid)
            fh.flush()
            os.fsync(fh.fileno())
        return True

    def _fold(self) -> Dict[str, Job]:
        """Replay the journal into the current job table."""
        jobs: Dict[str, Job] = {}
        for event in self._events():
            kind = event["event"]
            if kind == "submitted":
                data = event.get("job")
                if not isinstance(data, dict) or "id" not in data:
                    raise JobQueueError("submitted event without a job object")
                job = Job(
                    id=str(data["id"]),
                    seq=int(data.get("seq", 0)),
                    **{name: data.get(name) for name in _JOB_FIELDS},
                )
                job.priority = int(job.priority or 0)
                job.stop_on_first_bug = bool(job.stop_on_first_bug)
                job.state_caching = bool(job.state_caching)
                jobs[job.id] = job
                continue
            job = jobs.get(str(event.get("id")))
            if job is None:
                # An event for an unknown job: tolerate (a truncated
                # journal head) rather than refuse to serve the rest.
                continue
            if kind == "started":
                job.status = RUNNING
                job.attempts += 1
            elif kind == "claimed":
                # A lease claim is honoured only on a queued job and
                # only with the next fencing token; the loser of a
                # two-daemon race appends a claim that fails one of
                # the two tests and folds to a no-op.
                if job.status == QUEUED and _fence_of(event) == job.fence + 1:
                    job.status = RUNNING
                    job.attempts += 1
                    job.owner = str(event.get("daemon", ""))
                    job.fence += 1
                    job.lease_expires = _expires_of(event)
            elif kind == "renewed":
                if (
                    job.status == RUNNING
                    and _fence_of(event) == job.fence
                    and str(event.get("daemon", "")) == job.owner
                ):
                    job.lease_expires = _expires_of(event)
            elif kind == "lease_expired":
                # A takeover: some daemon observed the lease deadline
                # pass and requeued the job.  The fence check means an
                # expiry raced against a newer claim cannot clobber it.
                if job.status == RUNNING and _fence_of(event) == job.fence:
                    job.status = QUEUED
                    job.owner = None
                    job.lease_expires = None
                    job.error = event.get("error", job.error)
            elif kind == "completed":
                if _fence_current(event, job):
                    job.status = DONE
                    job.result_path = event.get("result_path")
                    job.cache_hit = bool(event.get("cache_hit"))
                    job.owner = None
                    job.lease_expires = None
            elif kind == "failed":
                if _fence_current(event, job):
                    job.status = FAILED
                    job.error = event.get("error")
                    job.owner = None
                    job.lease_expires = None
            elif kind == "requeued":
                if _fence_current(event, job):
                    job.status = QUEUED
                    job.error = event.get("error", job.error)
                    job.owner = None
                    job.lease_expires = None
        return jobs

    # -- public API ----------------------------------------------------------

    def jobs(self) -> List[Job]:
        """Every known job, in submission order."""
        return sorted(self._fold().values(), key=lambda job: job.seq)

    def get(self, job_id: str) -> Optional[Job]:
        return self._fold().get(job_id)

    def submit(
        self,
        spec: str,
        priority: int = 0,
        max_bound: Optional[int] = None,
        workers: Optional[int] = None,
        stop_on_first_bug: bool = False,
        max_executions: Optional[int] = None,
        max_transitions: Optional[int] = None,
        state_caching: bool = False,
    ) -> Job:
        """Append a new job, or return the active duplicate if any."""
        jobs = self._fold()
        candidate = Job(
            id="",
            spec=spec,
            priority=priority,
            max_bound=max_bound,
            workers=workers,
            stop_on_first_bug=stop_on_first_bug,
            max_executions=max_executions,
            max_transitions=max_transitions,
            state_caching=state_caching,
        )
        for job in sorted(jobs.values(), key=lambda j: j.seq):
            if job.status in (QUEUED, RUNNING) and job.work_key() == candidate.work_key():
                return job
        seq = 1 + max((job.seq for job in jobs.values()), default=0)
        candidate.id = f"job-{seq:06d}"
        candidate.seq = seq
        payload = asdict(candidate)
        # Lifecycle and lease fields are derived from later events,
        # not recorded at submission.
        for name in (
            "status",
            "attempts",
            "result_path",
            "error",
            "cache_hit",
            "owner",
            "fence",
            "lease_expires",
        ):
            payload.pop(name, None)
        self._append({"event": "submitted", "job": payload})
        return candidate

    def claim(self) -> Optional[Job]:
        """Take the best queued job and mark it running."""
        queued = [job for job in self._fold().values() if job.status == QUEUED]
        if not queued:
            return None
        job = min(queued, key=lambda j: (-j.priority, j.seq))
        self._append({"event": "started", "id": job.id})
        job.status = RUNNING
        job.attempts += 1
        return job

    def complete(
        self,
        job_id: str,
        result_path: Optional[str] = None,
        cache_hit: bool = False,
        daemon: Optional[str] = None,
        fence: Optional[int] = None,
    ) -> None:
        event: Dict[str, Any] = {
            "event": "completed",
            "id": job_id,
            "result_path": result_path,
            "cache_hit": cache_hit,
        }
        if fence is not None:
            event["fence"] = fence
            event["daemon"] = daemon
        self._append(event)

    def fail(
        self,
        job_id: str,
        error: str,
        requeue: bool = False,
        daemon: Optional[str] = None,
        fence: Optional[int] = None,
    ) -> None:
        event: Dict[str, Any] = {
            "event": "requeued" if requeue else "failed",
            "id": job_id,
            "error": error,
        }
        if fence is not None:
            event["fence"] = fence
            event["daemon"] = daemon
        self._append(event)

    # -- lease events (fleet mode; see repro.net.lease) ----------------------

    def append_claim(
        self, job_id: str, daemon: str, fence: int, expires: float
    ) -> None:
        self._append(
            {
                "event": "claimed",
                "id": job_id,
                "daemon": daemon,
                "fence": fence,
                "expires": expires,
            }
        )

    def append_renewal(
        self, job_id: str, daemon: str, fence: int, expires: float
    ) -> None:
        self._append(
            {
                "event": "renewed",
                "id": job_id,
                "daemon": daemon,
                "fence": fence,
                "expires": expires,
            }
        )

    def append_expiry(
        self, job_id: str, fence: int, daemon: str, error: str
    ) -> None:
        """Journal a lease takeover: ``daemon`` observed the lease
        deadline pass and is returning the job to the queue."""
        self._append(
            {
                "event": "lease_expired",
                "id": job_id,
                "fence": fence,
                "daemon": daemon,
                "error": error,
            }
        )

    def recover(self) -> List[Job]:
        """Requeue every job left ``running`` by a dead daemon.

        Called on daemon startup, before any claim: at that moment no
        worker legitimately owns a job, so anything still marked
        running is an orphan of a crash.  The requeued jobs resume
        from their durable checkpoints rather than starting over.
        """
        self.repair()
        recovered: List[Job] = []
        for job in self.jobs():
            if job.status == RUNNING:
                self.fail(job.id, "daemon died while running", requeue=True)
                job.status = QUEUED
                recovered.append(job)
        return recovered
