"""The measured interpreter: set up one workload, then time its checks.

Run as ``python -m icbbench.measure`` with ``src`` and the checkout root
on ``PYTHONPATH``; :mod:`icbbench.run` starts it in a fresh interpreter
whose ``PYTHONHASHSEED`` is the workload seed.

``--setup-only`` prints the set-up time and exits.  Otherwise the
interpreter runs one guarded bound-0 check as a warm-up, then a fixed
number of timed checks at the workload's bound
(:func:`icbbench.workloads.checks_per_run`), and appends one JSON line
per check to ``--records``:

* untraced checks record their wall and the time at which the first
  bug was noted, from spans of ``SearchContext.note_bug`` alone;
* with ``--trace 0`` a workload with a
  :attr:`~icbbench.workloads.Workload.first_bug_guard` also times
  :data:`~icbbench.workloads.FIRST_BUG_CHECKS` checks that stop at the
  first bug, spread between the full ones;
* with ``--trace 1`` untraced and traced checks alternate, and a traced
  check records spans at every layer boundary (see
  :mod:`icbbench.spans`) and its per-layer metrics;
* with ``--trace 0`` the interpreter also times :data:`SETUP_PROBES`
  fresh ``--setup-only`` interpreters, spread between its checks, and
  records their set-up times.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from icbbench.workloads import (  # noqa: E402
    FIRST_BUG_CHECKS,
    WORKLOADS,
    build_program,
    checks_per_run,
    prepare,
    run_check,
)

#: Fresh-interpreter set-ups each measured interpreter of an untraced
#: run times between its checks.
SETUP_PROBES = 6
#: Seconds after which one set-up probe counts as failed.
PROBE_TIMEOUT_S = 30.0
#: No check starts that would likely end after this many seconds: a
#: safety for code far slower than :attr:`Workload.check_s` assumes.
SAFETY_S = 140.0
#: The spans an untraced check records.
PROGRESS_SPANS = ("repro.search.strategy:SearchContext.note_bug",)


def _setup(workload, workdir: pathlib.Path):
    """Import ``repro``, build the program, prepare the directories."""
    program = build_program(workload)
    if workload.durable:
        prepare(workload, workload.bound, workdir)
    return program


def _setup_probe(workload, workdir: pathlib.Path) -> dict:
    """Set-up seconds of one fresh interpreter, as a record."""
    cmd = [
        sys.executable, "-m", "icbbench.measure", "--workload", workload.name,
        "--workdir", str(workdir), "--setup-only",
    ]
    setup_s, errors = 0.0, []
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            errors.append(f"set-up probe exited {done.returncode}: {done.stderr[-500:]}")
        else:
            setup_s = json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]
    except (subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        errors.append(f"set-up probe: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"kind": "setup", "errors": errors, "setup_s": setup_s}


def _untraced(workload, program, workdir, progress, first_bug_only=False) -> dict:
    progress.clear()
    progress.install(PROGRESS_SPANS)
    try:
        outcome = run_check(workload, program, workdir, first_bug_only=first_bug_only)
    finally:
        progress.uninstall()
    return {
        "kind": "first_bug" if first_bug_only else "untraced",
        "errors": outcome.errors,
        "wall": outcome.wall,
        # Seconds from the start of the check to its first bug.
        "first_bug": progress.starts[0] - outcome.started if len(progress) else None,
    }


def _traced(workload, program, workdir, tracer) -> dict:
    from icbbench.spans import layer_metrics

    tracer.clear()
    tracer.install()
    try:
        outcome = run_check(workload, program, workdir)
    finally:
        tracer.uninstall()
    metrics = {}
    if outcome.ok:
        metrics = layer_metrics(tracer, outcome.result.distinct_states)
    return {
        "kind": "traced",
        "errors": outcome.errors,
        "wall": outcome.wall,
        "spans": len(tracer),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m icbbench.measure")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--workdir", required=True, type=pathlib.Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--records", type=pathlib.Path)
    parser.add_argument("--spans", type=pathlib.Path)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    program = _setup(workload, args.workdir / "setup")
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from icbbench.spans import Tracer

    checks = checks_per_run(workload, args.seconds, traced=bool(args.trace))
    probes = 0 if args.trace else SETUP_PROBES
    first_bug_checks = (
        FIRST_BUG_CHECKS if workload.first_bug_guard and not args.trace else 0
    )
    # Probe k runs before check k * checks // probes: spread over the
    # run, and so do the first-bug checks.
    probes_before = collections.Counter(k * checks // probes for k in range(probes))
    first_bugs_before = collections.Counter(
        k * checks // first_bug_checks for k in range(first_bug_checks)
    )
    check_dir = args.workdir / "check"
    with open(args.records, "a") as records:

        def emit(record: dict) -> None:
            record["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            records.write(json.dumps(record) + "\n")
            records.flush()

        warm = run_check(workload, program, check_dir, bound=0)
        emit({"kind": "warmup", "errors": warm.errors, "wall": warm.wall})

        progress = Tracer()
        tracer = Tracer() if args.trace else None
        begin = time.perf_counter()
        for done in range(1, checks + 1):
            for _ in range(probes_before[done - 1]):
                emit(_setup_probe(workload, args.workdir / "probe"))
            for _ in range(first_bugs_before[done - 1]):
                emit(_untraced(workload, program, check_dir, progress, first_bug_only=True))
            emit(_untraced(workload, program, check_dir, progress))
            if tracer is not None:
                emit(_traced(workload, program, check_dir, tracer))
            used = time.perf_counter() - begin
            if done < checks and used + used / done > SAFETY_S:
                print(
                    f"icbbench: stopped after {done} of {checks} checks, {used:.0f} s",
                    file=sys.stderr,
                )
                break
        if tracer is not None and args.spans is not None:
            tracer.write(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
