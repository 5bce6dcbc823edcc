"""Benchmark entry point: time serial ICB checks of one workload.

Usage, from the root of a checkout::

    python3 icbbench/run.py --workload dryad-uaf-b1 --seed 1 --seconds 30 --trace 0

The seed becomes ``PYTHONHASHSEED`` of every interpreter the benchmark
starts.  With ``--trace 0`` the run prints the end-to-end metrics
(``execs_per_s``, ``first_bug_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` it prints the per-layer metrics of a separate traced run.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a summary with the raw
seconds of every check goes to standard error.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from icbbench.workloads import WORKLOADS, Workload  # noqa: E402

#: Measured interpreters that run side by side in an untraced run, one
#: per core when there are enough: twice the checks in the same time,
#: for the medians (see README.md).
PARALLEL = 2
#: The whole run, set-up included, must end within this many seconds.
RUN_LIMIT_S = 170.0
SOURCES = ("src/repro/__init__.py", "examples/invivo/bounded_queue.py")


def _child_env(seed: int) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def _measure_cmd(workload: str, workdir: pathlib.Path, *extra: str) -> List[str]:
    return [
        sys.executable, "-m", "icbbench.measure",
        "--workload", workload, "--workdir", str(workdir), *extra,
    ]


def measure(
    workload: str,
    env: Dict[str, str],
    workdir: pathlib.Path,
    stem: pathlib.Path,
    extra: List[str],
    interpreters: int,
    deadline: float,
) -> Tuple[List[dict], int]:
    """Run measured interpreters side by side; return their check
    records and how many of them crashed or timed out."""
    children = []
    crashed = 0
    try:
        for i in range(interpreters):
            path = stem.with_name(f"{stem.name}-{i}.jsonl")
            cmd = _measure_cmd(
                workload, workdir / f"measure-{i}", *extra, "--records", str(path)
            )
            err = open(workdir / f"measure-{i}.err", "w")
            child = subprocess.Popen(
                cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err
            )
            children.append((child, err, path))
        for child, err, _ in children:
            try:
                child.wait(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                print("icbbench: a measured interpreter timed out", file=sys.stderr)
                child.kill()
                child.wait()
            if child.returncode != 0:
                crashed += 1
                print(pathlib.Path(err.name).read_text()[-2000:], file=sys.stderr)
    finally:
        for child, err, _ in children:
            if child.poll() is None:
                child.kill()
                child.wait()
            err.close()
    records: List[dict] = []
    for _, _, path in children:
        if not path.exists():
            continue
        for line in path.read_text().splitlines():
            try:
                records.append(json.loads(line))
            except ValueError:  # cut off by a crash, which is counted
                pass
    return records, crashed


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(
    workload: Workload, checks: List[dict], first_bugs: List[dict], setups: List[float]
) -> Dict[str, dict]:
    """End-to-end metrics: medians over the checks and set-ups of both
    measured interpreters.

    The wall is the median over the full checks, and the first-bug time
    the median over the full and the first-bug checks.  The checks and
    the set-ups are spread over the run, so a slow phase of the host
    moves only those that fall into it.
    """
    wall = statistics.median(c["wall"] for c in checks)
    first_bug = statistics.median(c["first_bug"] for c in checks + first_bugs)
    executions = workload.guard.executions  # every check held its guard
    peak_kb = max(c["rss_kb"] for c in checks)
    return {
        "execs_per_s": _metric(executions / wall, "1/s"),
        "first_bug_s": _metric(first_bug, "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
    }


def per_layer(untraced: List[dict], traced: List[dict]) -> Dict[str, dict]:
    """Medians of every per-layer metric over the traced checks."""
    units = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    metrics = {
        name: _metric(statistics.median(t["metrics"][name] for t in traced), units[name])
        for name in traced[0]["metrics"]
    }
    overhead = statistics.median(t["wall"] for t in traced) / statistics.median(
        u["wall"] for u in untraced
    )
    metrics["tracing.overhead"] = _metric(overhead, units["tracing.overhead"])
    return metrics


def result(workload: Workload, records: List[dict], crashed: int, trace: int) -> dict:
    """The run's result object from its records.

    Every set-up probe and every check, the warm-up included, is one
    operation, and so is each measured interpreter that crashed or timed
    out; a guard mismatch, an exception or a failed probe is one failed
    operation.
    """
    for r in records:
        if r["errors"]:
            print(f"icbbench: {r['kind']} failed: {r['errors']}", file=sys.stderr)
    failed = sum(1 for r in records if r["errors"]) + crashed
    attempted = len(records) + crashed
    setups = [r["setup_s"] for r in records if r["kind"] == "setup" and not r["errors"]]
    untraced = [r for r in records if r["kind"] == "untraced" and not r["errors"]]
    first_bugs = [r for r in records if r["kind"] == "first_bug" and not r["errors"]]
    traced = [r for r in records if r["kind"] == "traced" and not r["errors"]]
    metrics: Dict[str, dict] = {}
    if trace and untraced and traced:
        metrics = per_layer(untraced, traced)
    elif not trace and untraced and setups:
        if all(c["first_bug"] is not None for c in untraced + first_bugs):
            metrics = end_to_end(workload, untraced, first_bugs, setups)
        else:
            print("icbbench: a check found no bug", file=sys.stderr)
    if not metrics:
        failed = max(failed, 1)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="icbbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    missing = [s for s in SOURCES if not (ROOT / s).is_file()]
    if missing:
        print(f"icbbench: program sources missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    env = _child_env(args.seed)
    out = ROOT / "icbbench" / ".work"
    workdir = out / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for stale in out.glob(f"{args.workload}-trace{args.trace}-*.jsonl"):
        stale.unlink()
    try:
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans", str(out / f"spans-{args.workload}")]
        interpreters = 1 if args.trace else min(PARALLEL, len(os.sched_getaffinity(0)))
        records, crashed = measure(
            args.workload, env, workdir, out / f"{args.workload}-trace{args.trace}",
            extra, interpreters, deadline,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    walls = [round(r["wall"], 3) for r in records if r["kind"] in ("untraced", "traced")]
    first_bugs = [
        round(r["first_bug"], 3)
        for r in records
        if r["kind"] in ("untraced", "first_bug") and r.get("first_bug") is not None
    ]
    setups = [round(r["setup_s"], 3) for r in records if r["kind"] == "setup"]
    print(
        f"icbbench: {args.workload} seed {args.seed}: check walls {walls} s; "
        f"first bugs {first_bugs} s; setups {setups} s",
        file=sys.stderr,
    )
    print(json.dumps(result(WORKLOADS[args.workload], records, crashed, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
