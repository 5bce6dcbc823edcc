"""The versioned JSON wire format of the HTTP checking service.

Every body on the wire -- request or response, success or error -- is
one JSON object stamped ``{"format": "repro-net-wire", "version": 1}``.
Versioning is strict the same way the trace and checkpoint formats
are: a peer speaking an unknown version is rejected up front rather
than misread, which matters once a fleet of daemons on different
hosts (and possibly different builds) shares one service root.

The submit body is validated field by field against the job schema
(:data:`SUBMIT_FIELDS`): unknown keys, wrong primitive types and a
missing ``spec`` are each a :class:`WireError` naming the offender,
so a malformed client gets a 400 with a usable message instead of a
daemon-side stack trace.

Wire jobs carry the job's *content-addressed identity*
(:meth:`repro.service.jobs.Job.identity`) alongside its queue id:
the id names one submission, the identity names the work, and clients
retrying a submit can treat an echoed known identity as proof the
resubmit deduplicated rather than duplicated.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, Optional, Tuple

from ..errors import ReproError
from ..service.jobs import Job
from ..store import check_stamp

WIRE_FORMAT = "repro-net-wire"
WIRE_VERSION = 1


class WireError(ReproError):
    """A wire body violates the format (bad version, schema, types)."""


def envelope(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Stamp ``payload`` with the wire format and version."""
    body = {"format": WIRE_FORMAT, "version": WIRE_VERSION}
    body.update(payload)
    return body


def check_envelope(data: Any, where: str = "body") -> Dict[str, Any]:
    """Validate the stamp on a decoded body; returns it unwrapped."""
    return check_stamp(
        data, WIRE_FORMAT, WIRE_VERSION, WireError, "wire", where=where, noun="body"
    )


def error_body(message: str, status: int) -> Dict[str, Any]:
    return envelope({"error": {"message": message, "status": status}})


#: Submit-body schema: name -> (type tag, required).  ``int`` fields
#: also accept null where the Job default is None.
SUBMIT_FIELDS: Dict[str, Tuple[str, bool]] = {
    "spec": ("str", True),
    "priority": ("int", False),
    "max_bound": ("int?", False),
    "workers": ("int?", False),
    "stop_on_first_bug": ("bool", False),
    "max_executions": ("int?", False),
    "max_transitions": ("int?", False),
    "state_caching": ("bool", False),
}

_TYPE_CHECKS = {
    "str": lambda v: isinstance(v, str),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "int?": lambda v: v is None or (isinstance(v, int) and not isinstance(v, bool)),
    "bool": lambda v: isinstance(v, bool),
}


def submit_from_wire(data: Any) -> Dict[str, Any]:
    """Validate a ``POST /v1/jobs`` body into ``JobQueue.submit`` kwargs."""
    body = check_envelope(data, "submit body")
    kwargs: Dict[str, Any] = {}
    for key, value in body.items():
        if key in ("format", "version"):
            continue
        schema = SUBMIT_FIELDS.get(key)
        if schema is None:
            raise WireError(f"submit body: unknown field {key!r}")
        tag, _ = schema
        if not _TYPE_CHECKS[tag](value):
            raise WireError(
                f"submit body: field {key!r} must be {tag}, "
                f"got {type(value).__name__}"
            )
        kwargs[key] = value
    for key, (_, required) in SUBMIT_FIELDS.items():
        if required and key not in kwargs:
            raise WireError(f"submit body: missing required field {key!r}")
    return kwargs


def submit_to_wire(
    spec: str,
    priority: int = 0,
    max_bound: Optional[int] = None,
    workers: Optional[int] = None,
    stop_on_first_bug: bool = False,
    max_executions: Optional[int] = None,
    max_transitions: Optional[int] = None,
    state_caching: bool = False,
) -> Dict[str, Any]:
    """Build a ``POST /v1/jobs`` body (the client half of the schema)."""
    return envelope(
        {
            "spec": spec,
            "priority": priority,
            "max_bound": max_bound,
            "workers": workers,
            "stop_on_first_bug": stop_on_first_bug,
            "max_executions": max_executions,
            "max_transitions": max_transitions,
            "state_caching": state_caching,
        }
    )


def job_to_wire(job: Job) -> Dict[str, Any]:
    """One job record as it travels: every Job field plus identity."""
    data = asdict(job)
    data["identity"] = job.identity()
    return data
