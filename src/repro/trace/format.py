"""The persistent witness-trace format (``*.trace.json``).

A trace is the durable form of a :class:`~repro.errors.BugReport`: it
captures everything needed to re-execute the witness in a different
process, on a different machine, or weeks later -- the program's
fingerprint (display name plus a hash of its initial thread structure),
the :class:`~repro.core.execution.ExecutionConfig` knobs the bug was
found under, the witness schedule itself, its preemption count, and
the identity of the bug the schedule is expected to reproduce.

The on-disk representation is versioned JSON.  Thread identities are
stored *losslessly*: a table of distinct ``(path, label)`` pairs plus
a schedule of indices into that table, rebuilt on load through
:meth:`~repro.core.thread.ThreadId.from_path` (the dotted string
rendering used by reports is display-only and one-way).  Loading
validates the schema strictly -- a malformed or truncated trace raises
:class:`TraceFormatError` with the offending key, never a bare
``KeyError``/``TypeError`` from deep inside the replay machinery.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Type, Union

from ..core.execution import ExecutionConfig, RaceDetection, SchedulingPolicy
from ..core.program import Program
from ..core.thread import ThreadId
from ..errors import BugKind, BugReport, ReproError
from ..store import check_stamp, content_digest, read_json, require, write_atomic

#: Identifies a file as one of ours regardless of extension.
FORMAT_NAME = "repro-trace"
#: Bumped on every incompatible schema change; loaders reject unknown
#: versions instead of guessing.
FORMAT_VERSION = 1
#: Canonical file suffix; the corpus only picks up files ending in it.
TRACE_SUFFIX = ".trace.json"


class TraceFormatError(ReproError):
    """A trace file violates the schema (or uses an unknown version)."""


def thread_from_path(
    path: Any, where: str, error: Type[ReproError], label: str = ""
) -> ThreadId:
    """:meth:`ThreadId.from_path`, raising ``error`` on a bad path."""
    try:
        return ThreadId.from_path(path, label)
    except ValueError as exc:
        raise error(f"{where}: {exc}") from exc


def thread_at(
    index: Any, threads: Sequence[ThreadId], where: str, error: Type[ReproError]
) -> ThreadId:
    """``threads[index]``, raising ``error`` unless ``index`` is in range."""
    if not isinstance(index, int) or isinstance(index, bool) or not (
        0 <= index < len(threads)
    ):
        raise error(
            f"{where}: index {index!r} out of range for {len(threads)} thread(s)"
        )
    return threads[index]


def decode_schedule(
    data: Any, threads: Sequence[ThreadId], where: str, error: Type[ReproError]
) -> Tuple[ThreadId, ...]:
    """A schedule of thread-table indices, as thread identities."""
    if not isinstance(data, list):
        raise error(f"{where}: schedule must be a list")
    return tuple(
        thread_at(index, threads, f"{where}[{i}]", error)
        for i, index in enumerate(data)
    )


class ThreadTable:
    """Deduplicating encoder for the :class:`ThreadId` s of one document.

    Traces, checkpoints and cache entries store each distinct thread
    once, as ``{"path", "label"}``, and refer to it by index.
    """

    def __init__(self) -> None:
        self.threads: List[ThreadId] = []
        self._index: Dict[ThreadId, int] = {}

    def index(self, tid: ThreadId) -> int:
        known = self._index.get(tid)
        if known is None:
            known = self._index[tid] = len(self.threads)
            self.threads.append(tid)
        return known

    def encode_schedule(self, schedule: Iterable[ThreadId]) -> List[int]:
        return [self.index(tid) for tid in schedule]

    def to_json(self) -> List[Dict[str, Any]]:
        return [{"path": list(t.path), "label": t.label} for t in self.threads]

    @staticmethod
    def decode(data: Any, where: str, error: Type[ReproError]) -> List[ThreadId]:
        if not isinstance(data, list):
            raise error(f"{where}: threads must be a list")
        threads: List[ThreadId] = []
        for i, entry in enumerate(data):
            at = f"{where}[{i}]"
            path = require(entry, "path", list, at, error)
            label = require(entry, "label", str, at, error, optional=True) or ""
            threads.append(thread_from_path(path, at, error, label))
        return threads


@dataclass(frozen=True)
class ProgramFingerprint:
    """Identifies which program a trace belongs to.

    ``structure`` hashes the initial thread structure (the ordered
    labels the setup function declares), so replaying a trace against
    a program whose thread layout changed is detected before a single
    step runs, independently of the display name.
    """

    name: str
    structure: str

    @classmethod
    def of(cls, program: Program) -> "ProgramFingerprint":
        _, specs = program.instantiate()
        digest = content_digest([label for label, _, _ in specs])[:16]
        return cls(name=program.name, structure=digest)

    def to_json(self) -> Dict[str, str]:
        return {"name": self.name, "structure": self.structure}


@dataclass(frozen=True)
class ExpectedBug:
    """The bug identity a trace's schedule is expected to reproduce."""

    kind: BugKind
    message: str
    #: Path of the triggering thread (``None`` for whole-program
    #: conditions such as deadlock).
    thread: Optional[Tuple[int, ...]]
    step_index: int

    @classmethod
    def of(cls, bug: BugReport) -> "ExpectedBug":
        return cls(
            kind=bug.kind,
            message=bug.message,
            thread=bug.thread.path if bug.thread is not None else None,
            step_index=bug.step_index,
        )

    def matches(self, bug: BugReport) -> bool:
        """Same defect (the dedup signature), any witness."""
        thread_path = bug.thread.path if bug.thread is not None else None
        return (
            bug.kind is self.kind
            and bug.message == self.message
            and thread_path == self.thread
        )


#: ExecutionConfig fields persisted in a trace.  ``monitors`` is
#: deliberately absent: monitor factories are code, not data; replay
#: uses whatever monitors the caller's config supplies.
_CONFIG_SCALARS = (
    "strict_races",
    "races_are_fatal",
    "deadlock_is_bug",
    "max_accesses_per_step",
    "free_conflicts",
)


def config_to_json(config: ExecutionConfig) -> Dict[str, Any]:
    """Serialize the replay-relevant knobs of an execution config."""
    data: Dict[str, Any] = {
        "policy": config.policy.value,
        "race_detection": config.race_detection.value,
    }
    for name in _CONFIG_SCALARS:
        data[name] = getattr(config, name)
    return data


def config_from_json(data: Dict[str, Any]) -> ExecutionConfig:
    """Rebuild an execution config saved by :func:`config_to_json`."""
    where, error = "config", TraceFormatError
    try:
        policy = SchedulingPolicy(require(data, "policy", str, where, error))
        race_detection = RaceDetection(
            require(data, "race_detection", str, where, error)
        )
    except ValueError as exc:
        raise TraceFormatError(f"{where}: {exc}") from exc
    kwargs: Dict[str, Any] = {}
    for name in _CONFIG_SCALARS:
        expected = int if name == "max_accesses_per_step" else bool
        kwargs[name] = require(data, name, expected, where, error)
    return ExecutionConfig(policy=policy, race_detection=race_detection, **kwargs)


@dataclass(frozen=True)
class TraceRecord:
    """One persisted witness: program + config + schedule + expected bug.

    Immutable; minimization produces a *new* record via
    :meth:`with_witness`.  ``spec`` optionally records how to rebuild
    the program (a CLI spec such as ``wsq:pop-race`` or
    ``package.module:factory``) so a corpus can re-resolve it; traces
    saved through the Python API may leave it unset, in which case the
    corpus falls back to matching the fingerprint's display name
    against the built-in registry.
    """

    program: ProgramFingerprint
    config: ExecutionConfig
    schedule: Tuple[ThreadId, ...]
    preemptions: int
    bug: ExpectedBug
    spec: Optional[str] = None
    minimized: bool = False

    # -- construction -------------------------------------------------------

    @classmethod
    def from_bug(
        cls,
        program: Program,
        config: Optional[ExecutionConfig],
        bug: BugReport,
        spec: Optional[str] = None,
        minimized: bool = False,
    ) -> "TraceRecord":
        """Capture a found bug as a durable trace."""
        return cls(
            program=ProgramFingerprint.of(program),
            config=config or ExecutionConfig(),
            schedule=tuple(bug.schedule),
            preemptions=bug.preemptions,
            bug=ExpectedBug.of(bug),
            spec=spec,
            minimized=minimized,
        )

    def with_witness(self, bug: BugReport, minimized: bool = True) -> "TraceRecord":
        """A copy carrying a different (e.g. minimized) witness of the
        same defect; the expected identity follows the new schedule."""
        return dataclasses.replace(
            self,
            schedule=tuple(bug.schedule),
            preemptions=bug.preemptions,
            bug=ExpectedBug.of(bug),
            minimized=minimized,
        )

    # -- identity -----------------------------------------------------------

    @property
    def identity(self) -> Tuple[Any, ...]:
        """Mirrors :attr:`repro.errors.BugReport.identity` for the
        expected bug, so round-trip tests can compare them directly."""
        return (self.bug.kind, tuple(t.path for t in self.schedule))

    def digest(self) -> str:
        """Stable content hash of the witness; used in filenames, so
        re-saving the same bug overwrites rather than duplicates."""
        return content_digest(
            [self.program.name, self.bug.kind.value, [list(t.path) for t in self.schedule]]
        )[:10]

    def default_filename(self) -> str:
        safe = re.sub(r"[^A-Za-z0-9._-]+", "-", self.program.name)
        return f"{safe}-{self.bug.kind.value}-{self.digest()}{TRACE_SUFFIX}"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        table = ThreadTable()
        schedule = table.encode_schedule(self.schedule)
        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "program": self.program.to_json(),
            "config": config_to_json(self.config),
            "threads": table.to_json(),
            "schedule": schedule,
            "preemptions": self.preemptions,
            "bug": {
                "kind": self.bug.kind.value,
                "message": self.bug.message,
                "thread": list(self.bug.thread) if self.bug.thread is not None else None,
                "step_index": self.bug.step_index,
            },
            "spec": self.spec,
            "minimized": self.minimized,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def save(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Atomically write the trace to ``path`` (a file, or a
        directory in which the :meth:`default_filename` is used); a
        crash mid-write leaves any trace already there intact."""
        target = pathlib.Path(path)
        if target.is_dir():
            target = target / self.default_filename()
        return write_atomic(target, self.dumps() + "\n")

    @classmethod
    def from_json(cls, data: Any) -> "TraceRecord":
        where, error = "trace", TraceFormatError
        check_stamp(data, FORMAT_NAME, FORMAT_VERSION, error, where)
        prog = require(data, "program", dict, where, error)
        fingerprint = ProgramFingerprint(
            name=require(prog, "name", str, "program", error),
            structure=require(prog, "structure", str, "program", error),
        )
        config = config_from_json(require(data, "config", dict, where, error))
        threads = ThreadTable.decode(
            require(data, "threads", list, where, error), "threads", error
        )
        schedule = decode_schedule(data.get("schedule"), threads, "schedule", error)

        preemptions = require(data, "preemptions", int, where, error)
        if preemptions < 0:
            raise TraceFormatError("preemptions must be non-negative")

        bug_raw = require(data, "bug", dict, where, error)
        try:
            kind = BugKind(require(bug_raw, "kind", str, "bug", error))
        except ValueError as exc:
            raise TraceFormatError(f"bug: {exc}") from exc
        thread_raw = require(bug_raw, "thread", list, "bug", error, optional=True)
        bug = ExpectedBug(
            kind=kind,
            message=require(bug_raw, "message", str, "bug", error),
            thread=(
                thread_from_path(thread_raw, "bug.thread", error).path
                if thread_raw is not None
                else None
            ),
            step_index=require(bug_raw, "step_index", int, "bug", error),
        )

        return cls(
            program=fingerprint,
            config=config,
            schedule=schedule,
            preemptions=preemptions,
            bug=bug,
            spec=require(data, "spec", str, where, error, optional=True),
            minimized=bool(require(data, "minimized", bool, where, error, optional=True)),
        )

    @classmethod
    def loads(cls, text: str) -> "TraceRecord":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"trace is not valid JSON: {exc}") from exc
        return cls.from_json(data)

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "TraceRecord":
        return cls.from_json(read_json(path, TraceFormatError, "trace"))

    # -- reporting ----------------------------------------------------------

    def summary(self) -> str:
        tag = " (minimized)" if self.minimized else ""
        return (
            f"trace of {self.program.name}{tag}: [{self.bug.kind}] "
            f"{self.bug.message} -- {len(self.schedule)} step(s), "
            f"{self.preemptions} preemption(s)"
        )


def sequence_to_schedule(paths: Sequence[Sequence[int]]) -> Tuple[ThreadId, ...]:
    """Convenience for tests: build a schedule from raw path tuples."""
    return tuple(ThreadId.from_path(p) for p in paths)
