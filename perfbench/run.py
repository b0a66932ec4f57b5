"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Runs from the root of a cellgrade checkout and imports the program from its
`src/` directory. Prints a readable report, then as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones
of a traced pass. The full record (environment, every metric, digests) goes
to .bench_out/<workload>-seed<n>[-trace].json, and a traced run's spans to
.bench_out/<workload>-seed<n>.spans.jsonl. Exits 2 when the program cannot
be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement budget: passes repeat while another fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS reads its thread count when numpy loads, so pin it before importing numpy.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(len(os.sched_getaffinity(0)))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import bench
        import layers
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in bench.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}",
              file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    # A private work directory: commands get relative paths inside it, so their
    # payloads do not name the checkout or the process.
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        record = bench.run(bench.WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace), out_dir / f"{stem}.spans.jsonl")
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    suffix = "-trace" if args.trace else ""
    (out_dir / f"{stem}{suffix}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    for key, value in sorted(record["environment"].items()):
        print(f"env {key}: {value}")
    print(f"corpus: {record['corpus']}")
    for name, m in record["metrics"].items():
        print(f"{name}: {_fmt(m['value'])} {m['unit']} (n={m['samples']})")
    if "criterion_5" in record:
        print(f"criterion 5 (reported): {record['criterion_5']}")
    for name, m in sorted(record.get("per_layer", {}).items()):
        print(f"{name}: {_fmt(m['value'])} {m['unit']}")
    for name, digest in sorted(record["digests"].items()):
        print(f"sha256 {name}: {digest}")
    for problem in record["problems"]:
        print(f"FAILED: {problem}")

    if args.trace:
        chosen = {name: record["per_layer"][name] for name in layers.PER_LAYER}
    else:
        chosen = {name: record["metrics"][name] for name in bench.END_TO_END}
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
