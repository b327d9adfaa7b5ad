"""Benchmark command: one workload run, result record on the last stdout line.

    python3 perfbench/run.py --workload bulk_build --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workload runs in a child process
(`perfbench.workloads`) in its own process session, with Ray started inside
it; everything the child prints goes to stderr. Afterwards every process that
carries this run's token in its environment (raylet, GCS, `ray::` workers)
is found under /proc; stragglers still alive after a grace period are killed
and counted as failed operations. Run directories are removed.

With `--trace 1` the workload runs twice, TRACE_ROUNDS rounds each whatever
`--seconds` is: untraced, then traced. The record then carries the per-layer
metrics of the traced run, which are sums over a fixed amount of work, and
the tracing overhead (traced over untraced end-to-end figures, minus 1).

Each child has its own deadline: CHILD_ALLOWANCE_S for set-up, checks and
shutdown, plus twice `--seconds` for a timed run; a traced child gets twice
the allowance. A workload that misses it is killed and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOKEN_ENV = "PERFBENCH_RUN"
# On the 1-CPU host described in README.md a timed run at `--seconds 10`
# takes 50-75 s, and the one-round children of `--trace 1` about 40 s and
# 55 s.
CHILD_ALLOWANCE_S = 90
TRACE_ROUNDS = 1
GRACE_S = 20
# Ray puts Unix sockets about 63 characters deep under its temp dir, and a
# socket path may not exceed 107.
RAY_TMP_MAX = 44


def run_processes(token: str) -> list[int]:
    """PIDs whose environment carries this run's token."""
    needle = f"{TOKEN_ENV}={token}".encode()
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == os.getpid():
            continue
        try:
            with open(f"/proc/{name}/environ", "rb") as f:
                env = f.read().split(b"\0")
        except OSError:
            continue
        if needle in env:
            out.append(int(name))
    return out


def sweep(token: str) -> int:
    """Wait for the run's processes to end; kill and count the stragglers."""
    end = time.monotonic() + GRACE_S
    while run_processes(token) and time.monotonic() < end:
        time.sleep(0.2)
    stragglers = run_processes(token)
    for pid in stragglers:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    while run_processes(token):
        time.sleep(0.1)
    if stragglers:
        print(f"perfbench: killed {len(stragglers)} straggler(s)",
              file=sys.stderr)
    return len(stragglers)


def run_child(args, trace: int, rounds: int, budget: float) -> dict | None:
    token = secrets.token_hex(4)
    run_dir = os.path.join(ROOT, ".perfbench_run", token)
    ray_tmp = os.path.join(ROOT, f".pbray-{token}")
    if len(ray_tmp) > RAY_TMP_MAX:
        ray_tmp = f"/tmp/pbray-{token}"
    work = os.path.join(run_dir, "work")
    trace_dir = os.path.join(run_dir, "trace")
    out = os.path.join(run_dir, "result.json")
    for d in (work, trace_dir, ray_tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, env.get("PYTHONPATH")) if p)
    env[TOKEN_ENV] = token
    env["PERFBENCH_TRACE_DIR"] = trace_dir
    env["RAY_USAGE_STATS_ENABLED"] = "0"
    cmd = [sys.executable, "-m", "perfbench.workloads",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--rounds", str(rounds),
           "--work", work, "--ray-tmp", ray_tmp, "--out", out]
    record = None
    proc = None
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=budget)
        except subprocess.TimeoutExpired:
            print("perfbench: workload timed out", file=sys.stderr)
            code = None
        if code is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        stragglers = sweep(token)
        if code == 0 and os.path.exists(out):
            with open(out) as f:
                record = json.load(f)
            record["attempted"] += stragglers
            record["failed"] += stragglers
    except Interrupted:
        # stop the workload's session and everything Ray started for it
        if proc is not None and proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        for pid in run_processes(token):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        raise
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
        parent = os.path.dirname(run_dir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)
    return record


class Interrupted(Exception):
    pass


def _interrupt(signum, frame):
    raise Interrupted(signal.Signals(signum).name)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "anserini_ray")):
        print("perfbench: no anserini_ray package beside perfbench/",
              file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # One CPU for the whole run (this process, the workload, Ray and its
    # workers inherit it): the run measures a 1-CPU host, and a single busy
    # vCPU is also stolen from far less than several part-busy ones.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, _interrupt)
    try:
        return report(args)
    except Interrupted as e:
        print(f"perfbench: interrupted by {e}", file=sys.stderr)
        return 1


def report(args) -> int:
    if args.trace:
        plain = run_child(args, 0, TRACE_ROUNDS, CHILD_ALLOWANCE_S)
    else:
        plain = run_child(args, 0, 0, CHILD_ALLOWANCE_S + 2 * args.seconds)
    if plain is None:
        return 1
    result = plain
    metrics = {k: v for k, v in plain["metrics"].items()}
    if args.trace:
        traced = run_child(args, 1, TRACE_ROUNDS, 2 * CHILD_ALLOWANCE_S)
        if traced is None:
            return 1
        layers = traced["layers"]
        tm = traced["metrics"]
        layers["trace.overhead.search_p50_ms"] = (
            tm["search_p50_ms"]["value"] / metrics["search_p50_ms"]["value"] - 1)
        layers["trace.overhead.ingest_turns_per_s"] = (
            metrics["ingest_turns_per_s"]["value"]
            / tm["ingest_turns_per_s"]["value"] - 1)
        from perfbench.trace import PER_LAYER

        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER}
        result = {**traced,
                  "attempted": plain["attempted"] + traced["attempted"],
                  "failed": plain["failed"] + traced["failed"],
                  "check_failures": (plain["check_failures"]
                                     + traced["check_failures"])}
    detail = {k: v for k, v in result.items()
              if k not in ("metrics", "layers", "windows", "useful")}
    print(json.dumps(detail), file=sys.stderr)
    print(json.dumps({
        "correct": result["check_failures"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
