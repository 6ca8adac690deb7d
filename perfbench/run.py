"""The polycover benchmark: one command per workload run.

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0

Run it from the repository root.  Workloads (see `workloads.py` for the
inputs and why each was chosen): `search`, `deep-verify`, `cli-mix`.

`--trace 0` measures the end-to-end metrics.  The workload runs in a
fresh process as a closed loop, one client and one job in flight, until
whole rounds of jobs add up to `--seconds` of run time; set-up (importing
`polycover.cli` plus a fixed warm-up) is measured in that process and in
`SETUP_PROBES` more fresh processes, and the median is reported.

`--trace 1` measures the per-layer metrics.  The first `TRACE_ROUNDS`
rounds of the same seeded stream run twice, each in a fresh process:
untraced, then with spans and counters installed by `tracer.py`.  Their
run-time ratio is `trace.overhead_ratio`.

Every job is checked against a known answer (`checker.py`, and
`schemas/` for command-line output).  The run's full record, with the
size of every job, the run totals and a digest of the outputs of the
first `DIGEST_ROUNDS` rounds, is written to
`perfbench/results/<workload>-seed<seed>-trace<trace>.json`.  The last
line of standard output is the result object:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("search", "deep-verify", "cli-mix")
SETUP_PROBES = 4
# Tail percentile per workload: the highest of 50, 75, 80, 90, 99 with at
# least ten jobs beyond it at the job counts a 25-second run makes on the
# code that defined the benchmark (about 100 search, 57 deep-verify and
# 3,000 cli-mix jobs).  It is fixed here so that a faster or slower
# program is compared on the same percentile.
TAIL_PERCENTILE = {"search": 90, "deep-verify": 80, "cli-mix": 99}
TRACE_ROUNDS = {"search": 8, "deep-verify": 1, "cli-mix": 24}
DIGEST_ROUNDS = TRACE_ROUNDS
# Module self times must add up to the traced run time within this share.
SELF_TIME_TOLERANCE = 0.05
WORKER_TIMEOUT_S = 170

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def worker(args, out: Path, *extra) -> dict:
    """Run one fresh worker process and return its record."""
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 4294967296))
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--out", str(out), *extra,
    ]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def totals(jobs) -> dict:
    sizes = [size for _, _, _, size in jobs]
    return {
        "deepest_stage": max((s.get("deepest_stage", 0) for s in sizes), default=0),
        "stage_simplices": sum(s.get("stage_simplices", 0) for s in sizes),
        "elements": sum(s.get("elements", 0) for s in sizes),
        "search_nodes": sum(s.get("nodes", 0) for s in sizes),
    }


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src").rglob("*.py"))
    )


def failures(record) -> int:
    return sum(1 for _, _, ok, _ in record["jobs"] if not ok)


def end_to_end(args, scratch: Path) -> tuple:
    probes = [
        worker(args, scratch / f"setup-{i}.json", "--setup-only")
        for i in range(SETUP_PROBES)
    ]
    rec = worker(
        args, scratch / "run.json", "--digest-rounds", str(DIGEST_ROUNDS[args.workload])
    )
    times = [t for _, t, _, _ in rec["jobs"]]
    failed = failures(rec)
    attempted = len(times)
    p = TAIL_PERCENTILE[args.workload]
    setups = [r["setup_s"] for r in probes] + [rec["setup_s"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": (attempted - failed) / rec["busy_s"],
        "job_s_p50": statistics.median(times),
        "job_s_tail": percentile(times, p),
        "peak_rss_mb": rec["peak_rss_mb"],
        "success_rate": (attempted - failed) / attempted,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": 0,
        "seconds": args.seconds, "rounds": rec["rounds"], "busy_s": rec["busy_s"],
        "loop_wall_s": rec["loop_wall_s"],
        "error_rate": failed / attempted,
        "tail": {"percentile": p, "samples": attempted,
                 "beyond": sum(1 for t in times if t > metrics["job_s_tail"])},
        "setup_samples_s": setups,
        "warmup_problems": [q for r in probes + [rec] for q in r["warmup_problems"]],
        "problems": rec["problems"],
        "totals": totals(rec["jobs"]),
        "digest": {"rounds": DIGEST_ROUNDS[args.workload], "sha256": rec["digest"]},
        "jobs": rec["jobs"],
    }
    return metrics, record, attempted, failed


def traced(args, scratch: Path) -> tuple:
    rounds = ["--rounds", str(TRACE_ROUNDS[args.workload]),
              "--digest-rounds", str(DIGEST_ROUNDS[args.workload])]
    plain = worker(args, scratch / "plain.json", *rounds)
    rec = worker(args, scratch / "traced.json", "--trace", "1", *rounds)
    layer = rec["trace"]
    layer["trace.overhead_ratio"] = rec["busy_s"] / plain["busy_s"]
    failed = failures(rec) + failures(plain)
    attempted = len(rec["jobs"]) + len(plain["jobs"])
    shares = {k[len("share."):]: v for k, v in layer.items() if k.startswith("share.")}
    top = max(shares, key=shares.get)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": 1,
        "rounds": TRACE_ROUNDS[args.workload],
        "busy_s": {"untraced": plain["busy_s"], "traced": rec["busy_s"]},
        "self_time_check": {
            "sum_of_module_self_s_over_traced_run_s": layer["trace.self_coverage"],
            "tolerance": SELF_TIME_TOLERANCE,
            "within": abs(1 - layer["trace.self_coverage"]) <= SELF_TIME_TOLERANCE,
        },
        "layer_shares": shares,
        "largest_layer": top,
        "warmup_problems": plain["warmup_problems"] + rec["warmup_problems"],
        "problems": plain["problems"] + rec["problems"],
        "totals": totals(rec["jobs"]),
        "digest": {"rounds": DIGEST_ROUNDS[args.workload],
                   "untraced": plain["digest"], "traced": rec["digest"]},
        "jobs": rec["jobs"],
    }
    return layer, record, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "polycover" / "cli.py").is_file():
        sys.stderr.write("run from a polycover checkout: src/polycover is missing\n")
        return 2

    results = HERE / "results"
    scratch = HERE / "_work" / f"run-{args.workload}-{args.seed}-{args.trace}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, record, attempted, failed = traced(args, scratch)
        else:
            metrics, record, attempted, failed = end_to_end(args, scratch)
    finally:
        for p in scratch.glob("*.json"):
            p.unlink()
        scratch.rmdir()
    declared = {m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != declared:
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ declared)}")
    record["src_lines"] = src_lines()
    record["metrics"] = metrics
    correct = failed == 0 and not record["warmup_problems"]
    if args.trace:
        correct = correct and record["digest"]["untraced"] == record["digest"]["traced"]
    record["correct"] = correct
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    summary = {k: v for k, v in record.items() if k != "jobs"}
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
