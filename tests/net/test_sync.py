"""Cross-host cache and trace sync: the shared cache-key vocabulary,
pull-on-miss turning a peer's finished work into a local cache hit,
and idle anti-entropy convergence."""

from __future__ import annotations

import json

import pytest

from repro.net.http_api import HttpFrontend, ServiceAPI
from repro.net.sync import CacheSync
from repro.obs import Instrumentation
from repro.service.cache import RESULT_CACHE_SUFFIX
from repro.service.daemon import CheckingService
from repro.service.jobs import Job
from repro.trace.format import TRACE_SUFFIX

SPEC = "toy:stats-race"


def warm_service(root):
    """A service that already checked SPEC (cache + witness trace)."""
    service = CheckingService(root)
    job = service.queue.submit(SPEC, max_bound=1)
    service.serve(once=True)
    assert service.queue.get(job.id).status == "done"
    return service


@pytest.fixture()
def warm_peer(tmp_path):
    front = HttpFrontend(
        ServiceAPI(warm_service(tmp_path / "a"), daemon_id="warm"), port=0
    ).start()
    yield front
    front.close()


@pytest.mark.parametrize(
    "shape",
    [
        {},
        {"workers": 2},
        {"stop_on_first_bug": True},
        {"state_caching": True},
        {"max_executions": 1000},
    ],
    ids=["default", "workers=2", "stop_on_first_bug", "state_caching", "max_executions"],
)
def test_job_cache_key_speaks_the_checkers_vocabulary(tmp_path, shape):
    service = CheckingService(tmp_path / "svc")
    job = service.queue.submit(SPEC, max_bound=1, **shape)
    service.serve(once=True)
    assert service.queue.get(job.id).status == "done"
    keys = [p.name for p in service.cache.root.iterdir()]
    # The key sync asks peers for is the one the daemon's own checker
    # stored its result under.
    assert keys == [service.cache.path_for(service.cache_key(job)).name]
    # Unresolvable specs yield no key rather than an error.
    assert service.cache_key(Job(id="x", spec="no:such-program")) is None


def test_pull_on_miss_installs_the_peers_entry(warm_peer, tmp_path):
    cold = CheckingService(tmp_path / "b")
    obs = Instrumentation()
    sync = CacheSync(cold, peers=[warm_peer.url], obs=obs)
    job = cold.queue.submit(SPEC, max_bound=1)
    key = sync.pull_for_job(job)
    assert key == cold.cache_key(job)
    path = cold.cache.path_for(key)
    assert path.exists()
    assert json.loads(path.read_text())["key"] == key
    assert obs.metrics.counters["cache_sync_hits"] == 1
    # Already warm: a second pull is a no-op.
    assert sync.pull_for_job(job) is None
    # The pulled entry makes the local run a pure cache hit.
    cold.serve(once=True)
    record = cold.queue.get(job.id)
    assert record.status == "done" and record.cache_hit is True


def test_anti_entropy_converges_and_is_idempotent(warm_peer, tmp_path):
    cold = CheckingService(tmp_path / "b")
    sync = CacheSync(cold, peers=[warm_peer.url])
    warm = warm_peer.api.service
    want_keys = {
        p.name[: -len(RESULT_CACHE_SUFFIX)]
        for p in warm.cache.root.iterdir()
        if p.name.endswith(RESULT_CACHE_SUFFIX)
    }
    want_traces = {
        p.name for p in warm.traces_dir.iterdir()
        if p.name.endswith(TRACE_SUFFIX)
    }
    assert want_keys and want_traces  # the warm run produced both
    pulled = sync.anti_entropy()
    assert pulled == {"results": len(want_keys), "traces": len(want_traces)}
    assert {
        p.name[: -len(RESULT_CACHE_SUFFIX)]
        for p in cold.cache.root.iterdir()
        if p.name.endswith(RESULT_CACHE_SUFFIX)
    } == want_keys
    # Content-addressed stores converge: the sweep is idempotent.
    assert sync.anti_entropy() == {"results": 0, "traces": 0}


def test_synced_bytes_are_identical_to_the_peers(warm_peer, tmp_path):
    cold = CheckingService(tmp_path / "b")
    CacheSync(cold, peers=[warm_peer.url]).anti_entropy()
    warm = warm_peer.api.service
    for path in warm.cache.root.iterdir():
        mirrored = cold.cache.root / path.name
        assert mirrored.read_bytes() == path.read_bytes()
    for path in warm.traces_dir.iterdir():
        mirrored = cold.traces_dir / path.name
        assert mirrored.read_bytes() == path.read_bytes()


def test_a_dead_peer_is_not_an_error(tmp_path):
    cold = CheckingService(tmp_path / "b")
    sync = CacheSync(cold, peers=["http://127.0.0.1:9"])  # discard port
    job = cold.queue.submit(SPEC, max_bound=1)
    assert sync.pull_for_job(job) is None
    assert sync.anti_entropy() == {"results": 0, "traces": 0}


def test_foreign_or_mismatched_entries_are_rejected(tmp_path):
    cold = CheckingService(tmp_path / "b")
    sync = CacheSync(cold)
    key = "ab" * 32
    assert sync._store_entry(key, {"format": "wrong", "key": key}, "peer") is False
    assert sync._store_entry(key, "not a dict", "peer") is False
    assert sync._store_trace("../escape" + TRACE_SUFFIX, {}, "peer") is False
    assert sync._store_trace("x" + TRACE_SUFFIX, {"hello": 1}, "peer") is False
    assert not cold.cache.path_for(key).exists()
    assert not cold.traces_dir.exists()


@pytest.mark.parametrize(
    "poison",
    [
        lambda entry: entry.update(version=2),
        lambda entry: entry.pop("context"),
    ],
    ids=["version-2", "missing-context"],
)
def test_a_peer_entry_the_checker_cannot_read_is_never_installed(
    warm_peer, tmp_path, poison
):
    """Pull, anti-entropy and push all refuse an entry the local
    ``ResultCache`` could not serve, so it cannot fail the local job."""
    from repro.net.client import ServiceClient, ServiceClientError

    [path] = warm_peer.api.service.cache.root.iterdir()
    key = path.name[: -len(RESULT_CACHE_SUFFIX)]
    entry = json.loads(path.read_text())
    poison(entry)
    path.write_text(json.dumps(entry, sort_keys=True) + "\n")
    front = HttpFrontend(
        ServiceAPI(CheckingService(tmp_path / "cold"), daemon_id="cold"), port=0
    ).start()
    try:
        cold = front.api.service
        job = cold.queue.submit(SPEC, max_bound=1)
        assert cold.cache_key(job) == key
        sync = CacheSync(cold, peers=[warm_peer.url])
        assert sync.pull_for_job(job) is None
        assert sync.anti_entropy()["results"] == 0
        with pytest.raises(ServiceClientError, match="not a result-cache"):
            ServiceClient(front.url, retries=0).push_cache_entry(key, entry)
        assert not cold.cache.path_for(key).exists()
        cold.serve(once=True)
        record = cold.queue.get(job.id)
        assert (record.status, record.attempts, record.cache_hit) == ("done", 1, False)
    finally:
        front.close()


class TestPushOnComplete:
    def cold_frontend(self, tmp_path):
        return HttpFrontend(
            ServiceAPI(CheckingService(tmp_path / "cold"), daemon_id="cold"),
            port=0,
        ).start()

    def test_fresh_entry_lands_on_the_peer(self, tmp_path):
        warm = warm_service(tmp_path / "warm")
        front = self.cold_frontend(tmp_path)
        try:
            obs = Instrumentation()
            sync = CacheSync(warm, peers=[front.url], obs=obs)
            job = warm.queue.jobs()[0]
            key = warm.cache_key(job)
            assert sync.push_on_complete(job) == 1
            mirrored = front.api.service.cache.path_for(key)
            assert mirrored.exists()
            assert json.loads(mirrored.read_text()) == json.loads(
                warm.cache.path_for(key).read_text()
            )
            assert obs.metrics.counters["cache_pushes"] == 1
        finally:
            front.close()

    def test_push_is_idempotent(self, tmp_path):
        warm = warm_service(tmp_path / "warm")
        front = self.cold_frontend(tmp_path)
        try:
            sync = CacheSync(warm, peers=[front.url])
            job = warm.queue.jobs()[0]
            # A re-push re-offers the same content-addressed bytes;
            # the peer reports it already had them, delivery still
            # counts as accepted.
            assert sync.push_on_complete(job) == 1
            assert sync.push_on_complete(job) == 1
        finally:
            front.close()

    def test_nothing_to_push_is_a_quiet_zero(self, tmp_path):
        warm = warm_service(tmp_path / "warm")
        job = warm.queue.jobs()[0]
        # No peers configured.
        assert CacheSync(warm).push_on_complete(job) == 0
        # Unresolvable spec: no key to speak of.
        front = self.cold_frontend(tmp_path)
        try:
            sync = CacheSync(warm, peers=[front.url])
            assert sync.push_on_complete(Job(id="x", spec="no:such")) == 0
        finally:
            front.close()

    def test_a_dead_peer_never_fails_the_push(self, tmp_path):
        warm = warm_service(tmp_path / "warm")
        sync = CacheSync(warm, peers=["http://127.0.0.1:9"])
        assert sync.push_on_complete(warm.queue.jobs()[0]) == 0

    def test_peer_rejects_mismatched_pushes(self, warm_peer, tmp_path):
        from repro.net.client import ServiceClient, ServiceClientError

        client = ServiceClient(warm_peer.url, retries=0)
        key = "ab" * 32
        with pytest.raises(ServiceClientError, match="not a result-cache"):
            client.push_cache_entry(key, {"format": "wrong", "key": key})
        with pytest.raises(ServiceClientError, match="malformed cache key"):
            client.push_cache_entry("nope", {"format": "wrong", "key": "nope"})
