"""Self-tests of the benchmark.

Run from the checkout root with ``PYTHONPATH=src:. python -m pytest icbbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
import subprocess
import sys
from array import array

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from icbbench import run  # noqa: E402
from icbbench.spans import Tracer, summarize  # noqa: E402
from icbbench.workloads import (  # noqa: E402
    WORKLOADS,
    build_program,
    checks_per_run,
    run_check,
)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_bound0_smoke_run_holds_its_guard(name, tmp_path):
    workload = WORKLOADS[name]
    outcome = run_check(workload, build_program(workload), tmp_path / "w", bound=0)
    assert outcome.errors == []
    assert outcome.wall > 0
    assert not (tmp_path / "w").exists()


def test_first_bug_check_stops_at_the_first_bug_and_holds_its_guard(tmp_path):
    workload = WORKLOADS["invivo-queue-b2"]
    outcome = run_check(
        workload, build_program(workload), tmp_path / "w", first_bug_only=True
    )
    assert outcome.errors == []
    assert outcome.result.executions == workload.first_bug_guard.executions
    assert len(outcome.result.bugs) == 1


def test_wrong_expectation_is_one_failed_operation(tmp_path):
    workload = WORKLOADS["bluetooth-b3-durable"]
    wrong = dataclasses.replace(
        workload.smoke_guard, executions=workload.smoke_guard.executions + 1
    )
    outcome = run_check(
        workload, build_program(workload), tmp_path / "w", bound=0, guard=wrong
    )
    assert not outcome.ok
    assert outcome.errors[0].startswith("executions: expected")

    records = [
        {"kind": "setup", "errors": [], "setup_s": 0.3},
        {"kind": "untraced", "errors": outcome.errors, "wall": outcome.wall},
    ]
    summary = run.result(workload, records, crashed=0, trace=0)
    assert summary["correct"] is False
    assert (summary["attempted"], summary["failed"]) == (2, 1)


def test_exception_in_a_check_is_a_failed_operation_not_a_crash(tmp_path):
    workload = WORKLOADS["dryad-uaf-b1"]

    def broken(**kwargs):
        raise RuntimeError("boom")

    outcome = run_check(workload, None, tmp_path / "w", check=broken)
    assert outcome.errors == ["RuntimeError: boom"]


def test_self_time_of_a_recursive_span_tree():
    # A [0, 10]
    #   B [1, 5]
    #     B [2, 4]      recursion: not counted again in B's inclusive time
    #       C [2.5, 3]
    #   C [6, 7]
    names = ["A", "B", "C"]
    name_ids = array("B", [0, 1, 1, 2, 2])
    parents = array("l", [-1, 0, 1, 2, 0])
    starts = array("d", [0, 1, 2, 2.5, 6])
    ends = array("d", [10, 5, 4, 3, 7])
    values = array("d", [0] * 5)
    stats, by_parent, spawns = summarize(names, name_ids, parents, starts, ends, values)
    assert stats["A"].self_s == pytest.approx(5.0)
    assert stats["B"].self_s == pytest.approx(2.0 + 1.5)
    assert stats["C"].self_s == pytest.approx(1.5)
    assert sum(s.self_s for s in stats.values()) == pytest.approx(10.0)
    assert stats["B"].inclusive_s == pytest.approx(4.0)
    assert stats["B"].count == 2
    assert by_parent[("B", "B")] == pytest.approx(2.0)
    assert spawns == []


def test_spawn_is_thread_start_to_the_following_await():
    names = ["Execution.execute", "Thread.start", "Channel.await_request"]
    stats, _, spawns = summarize(
        names,
        array("B", [0, 1, 2, 2]),
        array("l", [-1, 0, 0, 0]),
        array("d", [0, 1, 3, 6]),
        array("d", [10, 2, 5, 7]),
        array("d", [0] * 4),
    )
    assert spawns == [pytest.approx(4.0)]
    assert stats["Channel.await_request"].count == 2


def test_tracer_records_nested_spans_with_parents():
    tracer = Tracer()
    traced = {}

    def countdown(n):
        return traced["leaf"]() if n == 0 else traced["countdown"](n - 1)

    traced["countdown"] = tracer.wrap("countdown", countdown)
    traced["leaf"] = tracer.wrap("leaf", lambda: 1)
    assert traced["countdown"](2) == 1
    assert [tracer.names[i] for i in tracer.name_ids] == [
        "countdown", "countdown", "countdown", "leaf"
    ]
    assert list(tracer.parents) == [-1, 0, 1, 2]
    stats, _, _ = summarize(
        tracer.names, tracer.name_ids, tracer.parents, tracer.starts,
        tracer.ends, tracer.values,
    )
    total = tracer.ends[0] - tracer.starts[0]
    assert stats["countdown"].inclusive_s == pytest.approx(total)
    assert sum(s.self_s for s in stats.values()) == pytest.approx(total)


def test_check_count_depends_on_the_seconds_alone():
    # The counts the README documents for the committed run_seconds.
    seconds = DECLARED["run_seconds"]
    counts = {
        name: (checks_per_run(w, seconds), checks_per_run(w, seconds, traced=True))
        for name, w in WORKLOADS.items()
    }
    assert counts == {
        "dryad-uaf-b1": (3, 2),
        "invivo-queue-b2": (6, 3),
        "bluetooth-b3-durable": (12, 6),
    }
    assert all(checks_per_run(w, 0) == 1 for w in WORKLOADS.values())


def test_end_to_end_takes_medians_over_the_checks():
    checks = [{"first_bug": 1.5, "wall": w, "rss_kb": 1024} for w in (3.0, 9.0, 4.0)]
    first_bugs = [{"first_bug": fb} for fb in (0.5, 0.7)]
    metrics = run.end_to_end(WORKLOADS["dryad-uaf-b1"], checks, first_bugs, [0.2, 0.4, 0.3])
    assert metrics["execs_per_s"]["value"] == pytest.approx(1618 / 4.0)
    assert metrics["first_bug_s"]["value"] == pytest.approx(1.5)  # of 0.5, 0.7, 1.5 x3
    assert metrics["setup_s"]["value"] == pytest.approx(0.3)
    assert metrics["peak_rss_mb"]["value"] == pytest.approx(1.0)


def _run_benchmark(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "icbbench" / "run.py"), "--workload", workload,
         "--seed", "2", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_are_exactly_the_declared_ones(trace, section):
    out = _run_benchmark("bluetooth-b3-durable", trace)
    assert out["correct"] is True and out["failed"] == 0, out
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert set(out["metrics"]) == set(declared)
    for name, metric in out["metrics"].items():
        assert NAME.fullmatch(name)
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))


def test_declared_names_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in DECLARED[key]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    # dryad-uaf-b1 stays runnable by name but is not declared (README.md).
    assert {w["name"] for w in DECLARED["workloads"]} == set(WORKLOADS) - {"dryad-uaf-b1"}


def test_refuses_to_run_without_the_program_sources(tmp_path):
    bench = tmp_path / "icbbench"
    bench.mkdir()
    for source in (ROOT / "icbbench").glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(DECLARED))
    done = subprocess.run(
        [sys.executable, "icbbench/run.py", "--workload", "dryad-uaf-b1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
