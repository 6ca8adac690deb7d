"""One workload run in a fresh process: set up, warm up, then a closed loop
with one client and one job in flight, checking every job.

    python3 perfbench/worker.py --workload search --seed 1 --seconds 30 --out rec.json
    python3 perfbench/worker.py --workload search --seed 1 --rounds 6 --trace 1 --out rec.json
    python3 perfbench/worker.py --workload search --setup-only --out rec.json

Jobs come in rounds of fixed composition.  `--rounds 0` runs whole rounds
until the jobs' summed run time reaches `--seconds`; `--rounds R` runs
exactly the first R rounds of the seeded stream, which makes the traced
run's counts repeat exactly.  The record is written as JSON to
`--out`.  Only `run()` is timed; preparing arguments and checking answers
happen between jobs with the clock (and any tracing) stopped.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402  (no polycover import: kept out of set-up time)

# A job running this long counts as hung (the slowest job takes a few seconds).
JOB_TIMEOUT_S = 60


class JobHung(BaseException):
    """Raised by the alarm; a BaseException so no `except Exception` in the
    program can turn it into an ordinary error."""


def _alarm(signum, frame):
    raise JobHung()


def run_job(job, tracer, trace: bool):
    """Returns (seconds, problems, output bytes, size)."""
    try:
        arg = job.prepare()
    except Exception as err:
        return 0.0, [f"prepare raised {type(err).__name__}: {err}"], b"", {}
    signal.alarm(JOB_TIMEOUT_S)
    if trace:
        tracer.active = True
    start = time.perf_counter()
    try:
        result = job.run(arg)
        failure = None
    except JobHung:
        failure = f"hung for more than {JOB_TIMEOUT_S} s"
    except Exception as err:
        failure = f"raised {type(err).__name__}: {err}"
    seconds = time.perf_counter() - start
    if trace:
        tracer.active = False
    signal.alarm(0)
    if failure:
        return seconds, [failure], failure.encode(), {}
    try:
        problems, output, size = job.check(arg, result)
    except Exception as err:
        return seconds, [f"check raised {type(err).__name__}: {err}"], b"", {}
    return seconds, problems, output, size


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--digest-rounds", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    signal.signal(signal.SIGALRM, _alarm)

    schemas = checker.Schemas(ROOT / "schemas")
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{args.trace}-{int(args.setup_only)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        start = time.perf_counter()
        import polycover.cli  # noqa: F401
        import_s = time.perf_counter() - start

        import workloads
        from tracer import Tracer

        warm_s = 0.0
        warm_problems = []
        for job in workloads.warmup(args.workload, workdir, schemas):
            seconds, problems, _, _ = run_job(job, None, False)
            warm_s += seconds
            warm_problems += [f"warm-up {job.kind}: {p}" for p in problems]
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "import_s": import_s,
            "warmup_s": warm_s,
            "setup_s": import_s + warm_s,
            "warmup_problems": warm_problems,
        }
        if args.setup_only:
            Path(args.out).write_text(json.dumps(record), encoding="utf-8")
            return 0

        tracer = Tracer()
        if args.trace:
            tracer.install([workloads])
        digest = hashlib.sha256()
        jobs = []
        problems_seen = []
        busy = 0.0
        loop_start = time.perf_counter()
        rounds = workloads.stream(args.workload, args.seed, workdir, schemas)
        for done, round_jobs in enumerate(rounds):
            if (done == args.rounds) if args.rounds else (busy >= args.seconds):
                break
            for job in round_jobs:
                seconds, problems, output, size = run_job(job, tracer, bool(args.trace))
                busy += seconds
                if done < args.digest_rounds:
                    digest.update(output)
                problems_seen += [f"job {len(jobs)} {job.kind}: {p}" for p in problems[:3]]
                jobs.append([job.kind, seconds, not problems, size])
        record.update(
            loop_wall_s=time.perf_counter() - loop_start,
            busy_s=busy,
            jobs=jobs,
            problems=problems_seen[:50],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            rounds=done,
            digest=digest.hexdigest() if done >= args.digest_rounds else None,
            digest_rounds=args.digest_rounds,
        )
        if args.trace:
            record["trace"] = tracer.metrics(busy)
        Path(args.out).write_text(json.dumps(record), encoding="utf-8")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
