"""privateyes benchmark: one workload per invocation, in fresh processes.

    python3 perfbench/run.py --workload secure-cohort --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The parent starts set-up probes and then one worker process (see
``worker.py``), each a fresh interpreter with BLAS/OpenMP threads pinned to 1,
so that set-up time and peak memory belong to the workload alone.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit status
is 0 only if every op passed its correctness gate; it is 2, with no result,
when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 4  # set-up probes besides the worker; setup_s is the median of all
PROBE_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args, *, stdin=None, timeout):
    """Run one worker to completion; returns its stdout lines."""
    t0 = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args, "--t0", str(t0), "--root", str(ROOT)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
    )
    try:
        out, _ = proc.communicate(stdin, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args[:4])} timed out after {timeout} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args[:4])} exited with status {proc.returncode}")
    return lines


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="seconds-long workload variant")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "privateyes" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'privateyes'} is missing", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (
        ["--smoke"] if args.smoke else [])
    try:
        setups, reference = [], ""
        for i in range(PROBES):
            probe = json.loads(spawn(["--mode", "probe", *common]
                                     + (["--reference"] if i == 0 else []),
                                     timeout=PROBE_TIMEOUT_S)[-1])
            setups.append(probe)
            reference = probe.get("reference", reference)
        lines = spawn(["--mode", "run", *common, "--seconds", str(args.seconds),
                       "--trace", str(args.trace)],
                      stdin=json.dumps({"reference": reference}), timeout=RUN_TIMEOUT_S)
        result = json.loads(lines[-1])
    except (BenchError, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    setups.append(result)
    walls = [s["setup_s"] for s in setups]
    setup_s = statistics.median(s["setup_s"] / s["setup_speed"] for s in setups)
    metrics = result["metrics"]
    if not args.trace and metrics:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
    for line in result.get("lines", []):
        print(line)
    if not args.trace:
        print(f"  {'setup_s':<22} {setup_s:.6g} s at the reference speed, median of "
              f"{len(setups)} fresh processes (wall: "
              + ", ".join(f"{w:.3f}" for w in walls) + " s)")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    env = {**result["environment"], "commit": git_commit(), "seed": args.seed,
           "seconds": args.seconds}
    print("environment " + json.dumps(env, sort_keys=True))
    correct = result["failed"] == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
