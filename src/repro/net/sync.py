"""Cross-host result-cache and trace-corpus sync.

Both stores are content-addressed -- cache entries by the SHA-256 of
everything that determines a check's outcome, traces by their witness
identity -- so replication needs no versions, no timestamps and no
conflict resolution: an object either exists under its key or it does
not, fetching it twice writes the same bytes, and two daemons syncing
each other converge.  Two mechanisms share that property:

* **pull-on-miss** (:meth:`CacheSync.pull_for_job`): before running a
  claimed job, ask the peers for exactly its cache key.  A warm peer
  turns the job into a local cache hit -- the submit is served without
  exploring anything, which is the whole point of a fleet.
* **anti-entropy** (:meth:`CacheSync.anti_entropy`): while idle,
  diff key lists against each peer and pull whatever is missing, so
  results and witness traces eventually live everywhere even if no
  submit ever asks for them.
* **push-on-complete** (:meth:`CacheSync.push_on_complete`): the
  moment a daemon finishes a job, it POSTs the fresh cache entry to
  every peer instead of waiting for their next anti-entropy sweep --
  the same object, just delivered eagerly, so a duplicate submit
  landing on any fleet member a moment later is already a cache hit.

A peer being down is never an error -- sync is opportunistic; the
local daemon can always fall back to doing the work itself.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..obs.instrument import Instrumentation
from ..service.cache import ResultCacheError
from ..service.daemon import CheckingService
from ..service.jobs import Job
from ..trace.corpus import TraceCorpus
from ..trace.format import TraceFormatError, TraceRecord
from .client import ServiceClient, ServiceClientError
from .http_api import KEY_RE, TRACE_NAME_RE


class CacheSync:
    """Pulls missing cache entries and traces from peer daemons."""

    def __init__(
        self,
        service: CheckingService,
        peers: Sequence[str] = (),
        obs: Optional[Instrumentation] = None,
        client_factory: Callable[[str], ServiceClient] = ServiceClient,
        timeout: float = 5.0,
    ) -> None:
        self.service = service
        self.obs = obs
        self.clients: List[ServiceClient] = [
            client_factory(peer) for peer in peers
        ]
        for client in self.clients:
            # Peer fetches are opportunistic: fail fast, retry little.
            client.timeout = min(client.timeout, timeout)
            client.retries = min(client.retries, 1)

    # -- installing fetched objects ------------------------------------------
    #
    # A peer's object is installed only once the decoder that reads it
    # locally accepts it, so a newer, older or broken peer can never
    # plant an entry that fails the next job or ``corpus run``.

    def _store_entry(self, key: str, entry: Any, source: str) -> bool:
        """Install one fetched cache entry if ``ResultCache`` can serve it."""
        try:
            if not self.service.cache.install(key, entry):
                return False
        except ResultCacheError:
            return False
        if self.obs is not None:
            self.obs.cache_sync_hit(key, source, kind="result")
        return True

    def _store_trace(self, name: str, trace: Any, source: str) -> bool:
        """Install one fetched trace if it loads, in the trace's own
        serialization (byte-identical to the peer's file)."""
        if not TRACE_NAME_RE.match(name):
            return False
        try:
            record = TraceRecord.from_json(trace)
        except TraceFormatError:
            return False
        record.save(pathlib.Path(self.service.traces_dir) / name)
        if self.obs is not None:
            self.obs.cache_sync_hit(name, source, kind="trace")
        return True

    # -- pull-on-miss --------------------------------------------------------

    def pull_for_job(self, job: Job) -> Optional[str]:
        """Fetch ``job``'s exact cache entry from a peer, if missing
        locally; returns the key that was installed, else ``None``.

        Called by the fleet claim loop just before running a job: on
        success the checker's own cache lookup hits and the job is
        served without exploration.
        """
        key = self.service.cache_key(job)
        if key is None or not self.clients:
            return None
        if self.service.cache.path_for(key).exists():
            return None  # already warm; nothing to pull
        for client in self.clients:
            try:
                entry = client.cache_entry(key)
            except ServiceClientError:
                continue  # miss there too, or the peer is down
            if self._store_entry(key, entry, client.base_url):
                return key
        return None

    # -- push-on-complete ----------------------------------------------------

    def push_on_complete(self, job: Job) -> int:
        """POST ``job``'s freshly written cache entry to every peer;
        returns how many peers accepted (stored or already had) it.

        Called by the fleet claim loop right after a fenced
        completion.  Opportunistic like every sync path: a peer being
        down, or rejecting the entry, never fails the job.
        """
        if not self.clients:
            return 0
        key = self.service.cache_key(job)
        if key is None:
            return 0
        path = self.service.cache.path_for(key)
        try:
            entry = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            # Nothing durable to offer (e.g. a budgeted, uncacheable
            # run never stored a result entry).
            return 0
        delivered = 0
        for client in self.clients:
            try:
                client.push_cache_entry(key, entry)
            except ServiceClientError:
                continue  # peer down; its anti-entropy sweep catches up
            delivered += 1
            if self.obs is not None:
                self.obs.cache_push_sent(key, client.base_url)
        return delivered

    # -- anti-entropy --------------------------------------------------------

    def anti_entropy(self) -> Dict[str, int]:
        """One sweep: pull every cache entry and trace a peer has and
        we do not.  Returns ``{"results": n, "traces": n}`` pulled.
        """
        pulled = {"results": 0, "traces": 0}
        for client in self.clients:
            try:
                remote_keys = client.cache_keys()
                remote_traces = client.trace_names()
            except ServiceClientError:
                continue  # peer down; next sweep will catch up
            have = set(self.service.cache.keys())
            for key in remote_keys:
                if key in have or not KEY_RE.match(key):
                    continue
                try:
                    entry = client.cache_entry(key)
                except ServiceClientError:
                    continue
                if self._store_entry(key, entry, client.base_url):
                    pulled["results"] += 1
            have_traces = {p.name for p in TraceCorpus(self.service.traces_dir).paths()}
            for name in remote_traces:
                if name in have_traces:
                    continue
                try:
                    trace = client.trace(name)
                except ServiceClientError:
                    continue
                if self._store_trace(name, trace, client.base_url):
                    pulled["traces"] += 1
        return pulled
