"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/spread.py --workloads train,attack,detect --seeds 1-10 \
        [--seconds 8] [--trace 0] [--out FILE.json]

Runs one benchmark process at a time and waits for it. For every workload
and metric it prints the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and the quartile distance as a
share of the median, the figure the benchmark's bounds are set against.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace) -> tuple[dict, dict]:
    """(details, result): the last two stdout lines of one benchmark run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    *_, details, result = proc.stdout.strip().splitlines()
    return json.loads(details), json.loads(result)


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
                     "values": values}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="train,attack,detect")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    report = {"seeds": seed_list(args.seeds), "seconds": seconds, "trace": args.trace,
              "workloads": {}}
    for workload in args.workloads.split(","):
        results, runs = [], []
        for seed in report["seeds"]:
            t0 = time.perf_counter()
            details, result = run_once(workload, seed, seconds, args.trace)
            elapsed = time.perf_counter() - t0
            report.setdefault("environment", details["environment"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"elapsed={elapsed:.1f}s", flush=True)
            results.append(result)
            runs.append({"seed": seed, "elapsed_s": elapsed, "details": details["details"]})
        summary = summarize(results)
        report["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in results), "metrics": summary, "runs": runs}
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {workload:7s} {name:40s} median={s['median']:.6g} {s['unit']} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={spread}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
