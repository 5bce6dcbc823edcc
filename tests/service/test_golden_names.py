"""Golden content addresses: every on-disk name keeps its bytes.

Result-cache keys name cache files, job identities dedup journaled
submissions, program fingerprints bind traces and checkpoints, and
trace filenames address the corpus.  If any of these moved, every
existing cache, journal and corpus would silently go stale, so the
literals below were recorded once and must never change.
"""

from __future__ import annotations

from repro.core.execution import ExecutionConfig
from repro.errors import BugKind
from repro.programs import resolve_builtin
from repro.service.cache import result_cache_key
from repro.service.jobs import Job
from repro.trace.format import (
    ExpectedBug,
    ProgramFingerprint,
    TraceRecord,
    sequence_to_schedule,
)


def test_result_cache_key():
    key = result_cache_key(
        resolve_builtin("bluetooth"), max_bound=3, state_caching=True
    )
    assert key == "4ea19c46276ea268559fb64c0312ae786193fc12a9435cf74b7bb3147578d6cf"


def test_job_identity():
    job = Job(id="job-000001", spec="bluetooth", max_bound=2)
    assert job.identity() == (
        "96bec06521f7279b0e0f9bfa0b93c981a045966d2be68b6c9e7210fa7d865f72"
    )


def test_program_fingerprint():
    fingerprint = ProgramFingerprint.of(resolve_builtin("bluetooth"))
    assert fingerprint.structure == "e64028561b2f2005"


def test_trace_default_filename():
    record = TraceRecord(
        program=ProgramFingerprint.of(resolve_builtin("bluetooth")),
        config=ExecutionConfig(),
        schedule=sequence_to_schedule([(0,), (2,), (2,), (0,)]),
        preemptions=1,
        bug=ExpectedBug(
            kind=BugKind.ASSERTION,
            message="driver touched after being stopped",
            thread=(0,),
            step_index=3,
        ),
    )
    assert record.default_filename() == "bluetooth-assertion-40b9267b86.trace.json"
