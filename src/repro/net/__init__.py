"""The HTTP checking fleet (see ``docs/service.md``).

``repro.net`` turns the durable single-machine service
(:mod:`repro.service`) into a networked fleet, stdlib-only:

* :mod:`repro.net.wire` -- the versioned JSON wire format;
* :mod:`repro.net.http_api` -- a stateless ``http.server`` front-end
  over one service root (``POST /v1/jobs``, ``GET /v1/results/{id}``,
  ...); everything it serves is rebuilt from the journal;
* :mod:`repro.net.client` -- ``ServiceClient``: timeouts, bounded
  jittered retries, idempotent resubmit by content-addressed job
  identity (``repro submit --server URL``);
* :mod:`repro.net.lease` -- fenced lease claims journaled as queue
  events, so daemons on different hosts share one root without double
  execution and a dead daemon's jobs are taken over;
* :mod:`repro.net.fleet` -- the ``repro serve --fleet`` daemon
  combining all of the above;
* :mod:`repro.net.sync` -- cross-host result-cache and trace-corpus
  replication (pull-on-miss plus anti-entropy), trivially idempotent
  because both stores are content-addressed.
"""

from .client import ServiceClient, ServiceClientError
from .fleet import FleetDaemon, default_daemon_id
from .http_api import HttpFrontend, ServiceAPI
from .lease import DEFAULT_TTL, Lease, LeaseManager, LeaseRenewer
from .sync import CacheSync
from .wire import (
    WIRE_FORMAT,
    WIRE_VERSION,
    WireError,
    envelope,
    error_body,
    job_to_wire,
    submit_from_wire,
    submit_to_wire,
)

__all__ = [
    "CacheSync",
    "DEFAULT_TTL",
    "FleetDaemon",
    "HttpFrontend",
    "Lease",
    "LeaseManager",
    "LeaseRenewer",
    "ServiceAPI",
    "ServiceClient",
    "ServiceClientError",
    "WIRE_FORMAT",
    "WIRE_VERSION",
    "WireError",
    "default_daemon_id",
    "envelope",
    "error_body",
    "job_to_wire",
    "submit_from_wire",
    "submit_to_wire",
]
