"""Benchmark of the unlearn system as its users drive it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  Workloads (see ``workloads.py``):
``cli-walkthrough`` and ``cli-unlearn``.

With ``--trace 0`` the run sets up ``SETUPS`` times, then runs seeded
sessions until they have taken ``--seconds`` in all (at least one) and
reports the end-to-end metrics: latencies as medians over the run, and
peak resident memory of the command processes.  With ``--trace 1`` it
runs each command in this process through ``unlearn.cli.main``: it sets
up once, traced, then runs one session traced and the same session
untraced, and reports per-layer metrics plus the tracing overhead.

Every run checks its outputs: honest verifications must accept; an update
envelope with a flipped public input, one with a flipped private witness
wire, and a membership path with a flipped node must be rejected; and the
final commitment must equal the one recomputed from the generated points.
A miss counts as a failed operation and the run exits 1.

Earlier lines of standard output hold a JSON report (machine, limits,
sample counts and quartiles); the last line is the result object.
Scratch files go to ``.perfbench_work/`` in the checkout and are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LIMITS = [
    "The Groth16 snark backend is not measured: its helper binary cannot be built "
    "without a crate registry, so every run uses the witness-check backend.",
    "CPUs are not isolated and the page cache is not dropped: changing machine "
    "settings is out of scope, so other tenants' load shows up as noise.",
    "Noise floor on a shared 2-vCPU VM: an identical pure-Python loop ranged from 1.55 to "
    "2.54 s across 8 runs, and its 5 s medians moved from 0.040 to 0.052 s within 40 s, so "
    "regression bounds come from the observed run-to-run spread.",
]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarize(values: list[float]) -> dict:
    """Median, quartiles and sample count; a tail percentile only where at
    least ten samples lie beyond it."""
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


END_TO_END = {
    "setup_s": "s",
    "update_s": "s",
    "verify_update_s": "s",
    "queue_s": "s",
    "unlearn_claim_s": "s",
    "session_s": "s",
    "update_proof_bytes": "bytes",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "unlearn" / "__init__.py").is_file():
        print(f"error: no unlearn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Recorder, run_workload

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]

    work = ROOT / ".perfbench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    load_before = os.getloadavg()
    rec = Recorder()
    layers, accounting = {}, None
    try:
        layers, accounting = run_workload(w, args.seed, args.seconds, bool(args.trace), work, SRC, rec)
    except Exception:
        traceback.print_exc()
        if not rec.failures:
            rec.attempted += 1
            rec.failures.append("run aborted outside an operation")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    samples = {k: v for k, v in rec.samples.items() if v}
    if args.trace:
        metrics = {name: {"value": v, "unit": _layer_unit(name)} for name, v in layers.items()}
    else:
        metrics = {
            m: {"value": statistics.median(samples[m]), "unit": unit}
            for m, unit in END_TO_END.items()
            if m in samples
        }
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"] = {"value": rss / 1024, "unit": "MB"}
    failed = len(rec.failures)
    report = {
        "workload": w.name,
        "why": w.why,
        "seed": args.seed,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            "backend": "witness-check",
            "client": "one closed-loop client, one operation at a time",
        },
        "not_measured": LIMITS,
        "failed_ops": {"share": failed / max(rec.attempted, 1), "failed": failed,
                       "attempted": rec.attempted},
        "failures": rec.failures,
        "samples": {k: summarize(v) for k, v in sorted(samples.items())},
        "trace_accounting": accounting,
    }
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(rec.attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
