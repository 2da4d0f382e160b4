"""cascade-guard benchmark.

    python3 perfbench/run.py --workload {train,attack,detect} --seed N \
        [--seconds S] --trace {0,1}

Run from the root of a checkout; the program is imported from ./src, and S
defaults to run_seconds of BENCHMARK.json. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end metrics, measured without tracing: set-up runs
three times and is reported as a median, then passes of the workload's
commands and serving stream repeat until S seconds have passed (at least
two). With --trace 1 the run does one untraced and one traced pass and
reports the per-layer metrics, including the tracer's own cost and the
per-layer kernel replay. The line before it holds the environment record and
details of the run. Traced runs also write their spans to .bench_out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import layer_metrics as LM
import spans as sp
import workloads as W
from replay import replay

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIN_PASSES = 2
BUILD_TIMEOUT_S = 600   # training the desk victim takes 8-16 s on a 2-core host


def import_program():
    """cascade_guard from ./src of this checkout, never an installed copy."""
    src = ROOT / "src"
    if not (src / "cascade_guard" / "__init__.py").is_file():
        raise SystemExit(f"error: no cascade_guard sources under {src}")
    sys.path.insert(0, str(src))
    import cascade_guard
    from cascade_guard import (attacks, autograd, cascade, cli, dataio, featstats, recovery,
                               selfaware, victim)

    if Path(cascade_guard.__file__).resolve().parent != (src / "cascade_guard").resolve():
        raise SystemExit(f"error: imported cascade_guard from {cascade_guard.__file__}")
    return argparse.Namespace(attacks=attacks, autograd=autograd, cascade=cascade, cli=cli,
                              dataio=dataio, featstats=featstats, recovery=recovery,
                              selfaware=selfaware, victim=victim)


def program_digest() -> str:
    """Short sha256 over the program's sources; names the cached desk victim."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cascade_guard").rglob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    threads = {k: os.environ.get(k, "unset")
               for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads, "cpu": cpu or platform.processor(), "workload_seed": seed}


def benchmark_seconds() -> float:
    return float(json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))["run_seconds"])


def prepare_desk_victim(wl, run):
    """Train the cached desk victim in a child process when it is missing.

    A child process, so that the training's time and memory stay out of this
    run's set-up time and peak resident memory.
    """
    if not wl.uses_desk_victim or (run.cache / "net.json").is_file():
        return
    proc = subprocess.run([sys.executable, __file__, "--workload", wl.name,
                           "--build-desk-victim"],
                          cwd=ROOT, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    run.check(proc.returncode == 0, f"building the desk victim exited {proc.returncode}")
    if proc.returncode != 0:
        raise W.RunAborted(run.failures[-1])


def run_setup(wl, run, work: Path, repeats: int) -> list[float]:
    times, digests = [], []
    for i in range(repeats):
        d = work / f"setup{i}"
        t0 = time.perf_counter()
        wl.setup(run, d)
        times.append(time.perf_counter() - t0)
        digests.append(W.tree_digest(d))
    for i, digest in enumerate(digests[1:], 1):
        run.check(digest == digests[0], f"set-up {i} artifacts differ from set-up 0")
    return times


def run_pass(wl, run, s: Path, p: Path, verify: bool):
    """(commands_s, wall_s, stream, quality, digest) of the commands, then the stream.

    wall_s covers the commands and the whole stream step, not the
    verification that follows it.
    """
    p.mkdir(parents=True)
    t0 = time.perf_counter()
    quality = wl.commands(run, s, p)
    commands_s = time.perf_counter() - t0
    stream = wl.stream(run, s, p)
    wall_s = time.perf_counter() - t0
    if verify:
        wl.verify_stream(run, s, p, stream)
    digest = hashlib.sha256((W.tree_digest(p) + ":").encode() + stream.outputs).hexdigest()
    return commands_s, wall_s, stream, quality, digest


def measure(wl, run, work: Path, seconds: float):
    setup_times = run_setup(wl, run, work, SETUP_REPEATS)
    s = work / "setup0"
    commands, latencies, qualities, digests, per_command = [], [], [], [], []
    t_start = time.perf_counter()
    while len(commands) < MIN_PASSES or time.perf_counter() - t_start < seconds:
        p = work / f"pass{len(commands)}"
        first = len(run.command_times)
        commands_s, _, stream, quality, digest = run_pass(wl, run, s, p, verify=not commands)
        if not commands:  # later passes repeat the same work; their peaks add only heap churn
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        per_command.append(run.command_times[first:])
        commands.append(commands_s)
        latencies += stream.latencies_ms
        qualities.append(quality)
        digests.append(digest)
        if len(digests) > 1:
            shutil.rmtree(p)
    for i, digest in enumerate(digests[1:], 1):
        run.check(digest == digests[0], f"pass {i} outputs differ from pass 0")
    p50, p90 = np.percentile(latencies, [50, 90])
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "pass_s": (statistics.median(commands), "s"),
        "batch_p50_ms": (float(p50), "ms"),
        "quality": (statistics.median(qualities), "share"),
    }
    command_s = {f"{i}:{name}": statistics.median(times[i][1] for times in per_command)
                 for i, (name, _) in enumerate(per_command[0])}
    details = {"setup_runs_s": setup_times, "pass_commands_s": commands, "command_s": command_s,
               "batch_samples": len(latencies), "batch_p90_ms": float(p90),
               "quality_per_pass": qualities,
               "pass_digest": digests[0]}
    return metrics, details


def measure_traced(wl, run, work: Path):
    cg = run.cg
    run_setup(wl, run, work, 1)
    s = work / "setup0"
    _, plain_wall, _, _, plain_digest = run_pass(wl, run, s, work / "plain", verify=True)
    tracer = sp.Tracer()
    distinct = LM.DistinctRows(tracer)
    run.tracer = tracer
    with sp.patched(tracer, LM.targets(cg, distinct)):
        _, traced_wall, traced_stream, _, traced_digest = run_pass(
            wl, run, s, work / "traced", verify=False)
    run.tracer = None
    run.check(traced_digest == plain_digest, "traced pass outputs differ from untraced pass")
    net = cg.dataio.load_network(wl.network_path(s, work / "plain"))
    extra = replay(cg, net, wl.replay_images(run, s), LM.LAYER_NAMES)
    extra["trace.overhead_s"] = tracer.own_ns / 1e9
    extra["dataio.artifact_mb"] = W.tree_mb(work / "traced")
    for key in ("stage1_exit_share.normal", "stage1_exit_share.adversarial"):
        extra["cascade." + key] = traced_stream.extra.get(key, 0.0)
    metrics = LM.derive(tracer, distinct, extra)
    details = {"untraced_pass_s": plain_wall, "traced_pass_s": traced_wall,
               "pass_digest": plain_digest, "spans": len(tracer.spans)}
    return metrics, details, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-desk-victim", action="store_true",
                        help="only train the cached desk victim; run.py calls this itself")
    args = parser.parse_args(argv)
    wl = W.WORKLOADS[args.workload]
    run = W.Run(import_program(), args.seed, ROOT / ".bench_cache" / program_digest())
    if args.build_desk_victim:
        try:
            W.build_desk_victim(run)
        except W.RunAborted:
            pass
        for failure in run.failures:
            print(f"check failed: {failure}", file=sys.stderr)
        return 1 if run.failures else 0
    seconds = benchmark_seconds() if args.seconds is None else args.seconds
    work = ROOT / ".bench_work" / f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    tracer = None
    try:
        prepare_desk_victim(wl, run)
        if args.trace:
            values, details, tracer = measure_traced(wl, run, work)
        else:
            metrics, details = measure(wl, run, work, seconds)
            values = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    except W.RunAborted as exc:
        print(f"error: {wl.name} aborted after a failed command: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        (out / f"trace-{wl.name}-seed{args.seed}.json").write_text(
            json.dumps({"workload": wl.name, "seed": args.seed, "spans": tracer.to_json()}))
    for failure in run.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"workload": wl.name, "environment": environment(args.seed),
                      "details": details, "failures": run.failures}))
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
