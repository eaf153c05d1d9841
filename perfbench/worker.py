"""One fresh benchmark process for one workload.

``--mode probe`` sets the workload up, reports how long that took since the
parent started this process, and with ``--reference`` also computes the
correctness reference (the plaintext oracle), so that neither the timed ops
nor set-up pay for it. ``--mode run`` sets up, reads the reference from
stdin, and runs the closed loop of ops for ``--seconds``; with ``--trace 1``
the first half of the loop runs untraced and the second half traced.

The last line of stdout is one JSON object for ``run.py``; the lines before
it are a human-readable report.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import spans
import workloads

# On a shared 2-vCPU VM, vCPU speed drifts by up to 1.6x over seconds to
# minutes, so a run's wall times say as much about the machine as about the
# program. Each op is paired with a fixed calibration loop of the benchmark's
# own, timed just before it; timed end-to-end metrics are reported at the
# reference speed (wall time x CAL_REF_S / mean calibration time).
# CAL_REF_S is calibrate()'s median time on a 2-vCPU Intel Xeon VM
# (Python 3.11.7, numpy 2.4.6).
CAL_REF_S = 0.04
_Q = 2**127 - 1
_CAL_INTS = [(i * 0x9E3779B97F4A7C15F39CC0605CEDC834) % _Q for i in range(1, 1001)]


def calibrate(reps=16):
    """Seconds taken by a fixed mix of the work privateyes does: big-int
    modular arithmetic, int<->bytes, dict building, small numpy products and
    a large vectorised kernel like a KDE evaluation. Garbage collection is
    off, so the program's heap cannot change it."""
    import numpy as np

    a = np.linspace(-1.0, 1.0, 256).reshape(32, 8)
    grid, points = np.linspace(-3.0, 3.0, 4096), np.linspace(-1.0, 1.0, 128)
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        for _ in range(reps):
            data = b"".join(v.to_bytes(16, "little") for v in _CAL_INTS)
            acc = [int.from_bytes(data[i:i + 16], "little") * 3 % _Q
                   for i in range(0, len(data), 16)]
            dict(enumerate(acc))
            for _ in range(40):
                np.tanh(a @ a.T).sum(axis=0)
        for _ in range(4):
            for lo in range(0, grid.size, 256):  # small blocks: no effect on peak RSS
                np.exp(-0.5 * (grid[lo:lo + 256, None] - points[None, :]) ** 2).sum()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def speed(cals):
    """How much slower than the reference the machine ran, from calibrations."""
    return sum(cals) / len(cals) / CAL_REF_S


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("probe", "run"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=int, required=True, help="parent's monotonic ns at spawn")
    p.add_argument("--root", required=True)
    p.add_argument("--reference", action="store_true")
    p.add_argument("--smoke", action="store_true", help="seconds-long variant for tests")
    return p.parse_args(argv)


def tail(walls):
    """Op time at the highest percentile with at least ten ops beyond it:
    (value, percentile, ops beyond), or None below eleven ops."""
    if len(walls) < 11:
        return None
    ordered = sorted(walls)
    at = len(ordered) - 11
    return ordered[at], 100.0 * (at + 1) / len(ordered), len(ordered) - at - 1


class Loop:
    """Closed loop of ops with the correctness gate applied to each."""

    def __init__(self, workload, ctx, reference, tracer=None):
        self.workload, self.ctx, self.reference, self.tracer = workload, ctx, reference, tracer
        self.first = {}
        self.attempted = 0
        self.failures = []
        self.walls = []  # successful untraced ops
        self.traced_ops, self.traced_walls = [], []
        self.cals, self.traced_cals = [], []  # calibration before each op

    def run_for(self, seconds, traced=False):
        deadline = time.perf_counter() + seconds
        while True:
            self.one(traced)
            if time.perf_counter() >= deadline:
                return

    def one(self, traced):
        (self.traced_cals if traced else self.cals).append(calibrate())
        op = self.attempted
        self.attempted += 1
        try:
            if traced:
                result, wall = self.tracer.run_op(op, self.workload.op, self.ctx)
            else:
                t = time.perf_counter()
                result = self.workload.op(self.ctx)
                wall = time.perf_counter() - t
            try:
                failed, outputs = self.workload.check(
                    self.ctx, result, self.reference, self.first)
            finally:
                self.workload.cleanup(result)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"op {op} raised {type(exc).__name__}: {exc}")
            return
        if failed:
            self.failures.extend(f"op {op}: {msg}" for msg in failed)
            return
        if not self.first:
            self.first = outputs
        if traced:
            self.traced_ops.append(op)
            self.traced_walls.append(wall)
        else:
            self.walls.append(wall)


def environment():
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "threads": {k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_NUM_THREADS")},
    }


def end_to_end(workload, loop):
    p50 = spans._median(loop.walls) / speed(loop.cals)
    return {
        "op_p50_s": {"value": p50, "unit": "s"},
        "client_updates_per_s": {"value": workload.updates_per_op / p50, "unit": "1/s"},
        "wire_bytes_per_round": {"value": loop.first["wire_bytes_per_round"], "unit": "bytes"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def report_lines(workload, loop, metrics):
    lines = [f"{workload.name}: {loop.attempted} ops attempted, closed loop, one caller"]
    for name, m in metrics.items():
        lines.append(f"  {name:<22} {m['value']:.6g} {m['unit']}")
    lines.append(f"  {'op wall median':<22} {spans._median(loop.walls):.6g} s, with the "
                 f"calibration loop at {speed(loop.cals):.3f}x its reference time; "
                 "op_p50_s and client_updates_per_s are at the reference speed")
    t = tail(loop.walls)
    lines.append(
        f"  {'op_tail_s':<22} {t[0]:.6g} s (p{t[1]:.0f} of {len(loop.walls)} ops, {t[2]} beyond)"
        if t else f"  {'op_tail_s':<22} n/a ({len(loop.walls)} ops; a tail needs 11)")
    lines.append(f"  {'test_mae_deg':<22} {loop.first.get('test_mae_deg', float('nan')):.6f} deg")
    failed = loop.attempted - len(loop.walls) - len(loop.traced_ops)
    lines.append(f"  {'error_rate':<22} {failed / loop.attempted:.6g} ({failed} of {loop.attempted})")
    lines.append("  op walls (s): " + " ".join(f"{w:.4f}" for w in loop.walls))
    return lines


def save_spans(tracer, path):
    import numpy as np

    data = tracer.spans()
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, names=np.array(data.pop("names")),
             **{k: np.frombuffer(v, dtype=v.typecode) for k, v in data.items()})


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(args.root)
    workload = workloads.WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    out = root / "perfbench" / "out"
    workdir = out / f"{args.workload}-{os.getpid()}"
    tracer = spans.Tracer().install() if args.trace else None
    try:
        ctx = workload.setup(args.seed, workdir)
        setup_s = (time.monotonic_ns() - args.t0) / 1e9
        if tracer:
            tracer.uninstall()
        import privateyes

        if Path(privateyes.__file__).resolve().parent != (root / "src" / "privateyes").resolve():
            print(f"privateyes imported from {privateyes.__file__}, not {root}/src",
                  file=sys.stderr)
            return 2
        calibrate()  # warm-up
        setup = {"setup_s": setup_s, "setup_speed": speed([calibrate() for _ in range(5)])}
        if args.mode == "probe":
            result = dict(setup)
            if args.reference:
                result["reference"] = workload.reference(ctx)
            print(json.dumps(result))
            return 0

        reference = json.loads(sys.stdin.read())["reference"]
        loop = Loop(workload, ctx, reference, tracer)
        if not tracer:
            loop.run_for(args.seconds)
        else:
            loop.run_for(args.seconds / 2)
            tracer.install()
            try:
                loop.run_for(args.seconds / 2, traced=True)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        **setup,
        "attempted": loop.attempted,
        "failed": loop.attempted - len(loop.walls) - len(loop.traced_ops),
        "failures": loop.failures[:20],
        "environment": environment(),
    }
    if not loop.walls or (tracer and not loop.traced_ops):
        result["metrics"] = {}
    elif tracer:
        overhead = (spans._median(loop.traced_walls) / speed(loop.traced_cals)
                    - spans._median(loop.walls) / speed(loop.cals))
        result["metrics"] = spans.layer_metrics(
            tracer, loop.traced_ops, loop.traced_walls, overhead, loop.first["test_mae_deg"])
        path = out / f"spans-{args.workload}-seed{args.seed}.npz"
        save_spans(tracer, path)
        result["lines"] = [f"{args.workload}: traced {len(loop.traced_ops)} ops, "
                           f"{len(tracer.start)} spans kept in {path.relative_to(root)}"]
        if tracer.missing:
            result["lines"].append(f"  not wrapped (absent): {', '.join(tracer.missing)}")
        result["lines"] += [f"  {k:<36} {v['value']:.6g} {v['unit']}"
                            for k, v in result["metrics"].items()]
    else:
        result["metrics"] = end_to_end(workload, loop)
        result["lines"] = report_lines(workload, loop, result["metrics"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
