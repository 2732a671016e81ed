"""Run one pgne benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gne-default --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  With --trace 0 the last line holds the end-to-end metrics, with
--trace 1 the per-layer ones.  The line before it, and a JSON file under
perfbench/out/, record the environment, sample counts, the trace digest
and the metrics that are not gated.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-ups measured per run; setup_s is their median.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 150


def die(msg: str) -> NoReturn:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args: argparse.Namespace) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def measure_setup(args: argparse.Namespace) -> list:
    """Wall seconds of fresh processes that only set up, from spawn to exit."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                       timeout=SETUP_TIMEOUT_S)
        times.append(perf_counter() - t0)
    return times


def end_to_end(res, setup_s: list):
    """Gated metrics and report-only ones; op times host-rescaled, raw beside."""
    from pgnebench import median, tail
    lat_ms = [1e3 * x for x in res.latencies]
    raw_ms = [1e3 * x for x in res.latencies_raw]
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    gated = {
        "ops_per_s": ((res.attempted - res.failed) / res.wall_s, "1/s"),
        "op_p50_ms": (median(lat_ms), "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_kib / 1024, "MB"),
    }
    extra = {
        "fail_share": (res.failed / res.attempted, "share"),
        "latency_samples": (len(lat_ms), "count"),
        "setup_samples": (len(setup_s), "count"),
        "host_probe_ms": (1e3 * median(res.probes), "ms"),
        "host_probes": (len(res.probes), "count"),
        "raw.ops_per_s": ((res.attempted - res.failed) / res.wall_raw_s, "1/s"),
        "raw.op_p50_ms": (median(raw_ms), "ms"),
    }
    # A tail below the median says nothing: report it from 20 samples on.
    for prefix, lats in (("", lat_ms), ("raw.", raw_ms)):
        tl = tail(lats)
        if tl and tl[1] >= 50.0:
            extra[prefix + "op_tail_ms"] = (tl[0], "ms")
            extra[prefix + "op_tail_percentile"] = (tl[1], "%")
    if res.steps:
        extra["steps_per_s"] = (res.steps / res.wall_s, "1/s")
        extra["raw.steps_per_s"] = (res.steps / res.wall_raw_s, "1/s")
    return gated, extra


def as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import, generate inputs, warm up, then exit")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        die("--seconds must be positive")

    if not (ROOT / "src" / "pgne" / "__init__.py").is_file():
        die(f"no pgne sources under {ROOT / 'src'}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import pgnebench

    if args.workload not in pgnebench.WORKLOADS:
        die(f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(pgnebench.WORKLOADS)}")
    wl = pgnebench.WORKLOADS[args.workload](args.seed)
    tracer = pgnebench.Tracer() if args.trace else None
    pgnebench.warm_up(wl, tracer.call if tracer else pgnebench.direct)
    if args.setup_only:
        return 0

    if args.trace:
        res = pgnebench.run_ops(wl, args.seconds, tracer)
        metrics, extra = res.metrics, {}
    else:
        setup = measure_setup(args)
        res = pgnebench.run_ops(wl, args.seconds)
        metrics, extra = end_to_end(res, setup)
    record = {
        "environment": environment(args),
        "attempted": res.attempted,
        "failed": res.failed,
        "wall_s": res.wall_s,
        "wall_raw_s": res.wall_raw_s,
        "trace_sha256": res.digest,
        "trace_sha256_ops": res.digest_ops,
        "metrics": as_json(metrics),
        "extra": as_json(extra),
        **res.notes,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"{stem}-spans.csv").write_text(tracer.csv())

    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": as_json(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
