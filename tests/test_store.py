"""The shared durable-store layer: the atomic writer under failure and
concurrency, and the stamp and field validators."""

from __future__ import annotations

import json
import os
import sys
import threading

import pytest

from repro import store
from repro.errors import ReproError


class Boom(ReproError):
    pass


class TestWriteAtomic:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "deep" / "x.json"
        assert store.write_atomic(target, '{"a": 1}\n') == target
        store.write_atomic(target, '{"a": 2}\n')
        assert json.loads(target.read_text()) == {"a": 2}
        assert os.listdir(target.parent) == ["x.json"]

    def test_installed_file_honours_the_umask(self, tmp_path):
        plain, atomic = tmp_path / "plain", tmp_path / "atomic"
        plain.write_text("x")
        store.write_atomic(atomic, "x")
        assert atomic.stat().st_mode == plain.stat().st_mode

    def test_a_write_failing_midway_keeps_the_previous_file(self, tmp_path, monkeypatch):
        target = tmp_path / "w.trace.json"
        store.write_atomic(target, '{"good": true}\n')
        real_fdopen = os.fdopen

        class Torn:
            """A handle that writes half its text, then hits a full disk."""

            def __init__(self, fd, *args, **kwargs):
                self.handle = real_fdopen(fd, *args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[: len(text) // 2])
                self.handle.flush()
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(store.os, "fdopen", Torn)
        with pytest.raises(OSError):
            store.write_atomic(target, '{"replacement": "x"}\n')
        assert json.loads(target.read_text()) == {"good": True}
        assert os.listdir(tmp_path) == ["w.trace.json"]

    def test_a_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "r.result.json"
        store.write_atomic(target, "old\n")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(store.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            store.write_atomic(target, "new\n")
        assert target.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["r.result.json"]

    def test_concurrent_writers_of_one_path_never_collide(self, tmp_path):
        target = tmp_path / "push.result.json"
        errors = []

        def writer(n):
            try:
                for i in range(25):
                    store.write_atomic(target, json.dumps({"n": n, "i": i}) + "\n")
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(n,)) for n in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert json.loads(target.read_text())["i"] == 24
        assert os.listdir(tmp_path) == ["push.result.json"]


class TestValidators:
    def test_stamp_accepts_its_own_format(self):
        data = {"format": "f", "version": 1}
        assert store.check_stamp(data, "f", 1, Boom, "thing") is data

    @pytest.mark.parametrize(
        "data, fragment",
        [
            ([], "loc: thing must be a JSON object, got list"),
            ({"version": 1}, "loc: not a f file (format=None)"),
            ({"format": "g", "version": 1}, "not a f file (format='g')"),
            ({"format": "f", "version": 2}, "unsupported thing version 2"),
            ({"format": "f", "version": True}, "unsupported thing version True"),
        ],
    )
    def test_stamp_violations_raise_the_callers_error(self, data, fragment):
        with pytest.raises(Boom) as excinfo:
            store.check_stamp(data, "f", 1, Boom, "thing", where="loc")
        assert fragment in str(excinfo.value)

    def test_require_names_the_offending_key(self):
        assert store.require({"n": 3}, "n", int, "doc", Boom) == 3
        with pytest.raises(Boom, match="doc: missing required key 'n'"):
            store.require({}, "n", int, "doc", Boom)
        with pytest.raises(Boom, match="doc: key 'n' must be int, got bool"):
            store.require({"n": True}, "n", int, "doc", Boom)
        with pytest.raises(Boom, match="must be int or null, got str"):
            store.require({"n": "3"}, "n", int, "doc", Boom, optional=True)
        assert store.require({"n": None}, "n", int, "doc", Boom, optional=True) is None
        assert store.require({}, "n", int, "doc", Boom, optional=True) is None
