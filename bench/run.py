"""Benchmark of varproj: one closed-loop client, one workload per run.

    python3 bench/run.py --workload oracle-dense --seed 1 --seconds 25 --trace 0

Workloads are listed in BENCHMARK.json (``cli`` and ``wide-magnitude``
are extra ones, see bench/README.md).  The run builds its inputs from ``--seed``,
sets up several times and reports the median set-up time, measures
whole blocks of operations for ``--seconds``, and checks every output.
It prints a report line (corpus digest, failures by operation id,
environment) and, last, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  A traced
run also writes its spans to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 5
CAPACITY = {"closed-forms": 1 << 20, "wide-magnitude": 1 << 20}
DEFAULT_CAPACITY = 1 << 16


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: bool) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json promises for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def set_up(workload: str, seed: int, cal):
    """Import (in a fresh process), build the corpus and warm up, SETUPS times.

    The import is timed raw, like every child process; corpus generation
    and warm-up are scaled.  Returns the blocks, the median set-up seconds
    and the corpus digest.
    """
    import corpus
    from harness import IMPORT_CODE, child_seconds, execute

    times, digests = [], set()
    for _ in range(SETUPS):
        imported = child_seconds(IMPORT_CODE)
        cal.sample()
        start = time.perf_counter()
        blocks = corpus.WORKLOADS[workload](seed)
        warmed = set()
        for op in blocks[0]:
            if (op.layer, op.f_layer) not in warmed:
                warmed.add((op.layer, op.f_layer))
                execute(op)
        times.append(imported + (time.perf_counter() - start) * cal.scale())
        digests.add(corpus.digest_inputs(blocks))
    if len(digests) != 1:
        raise RuntimeError(f"the same seed built different corpora: {sorted(digests)}")
    return blocks, statistics.median(times), digests.pop()


def peak_rss_mb(workload: str) -> float:
    """Peak resident memory of the process that ran the operations (children for ``cli``)."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "varproj" / "__init__.py").is_file():
        print(f"error: library source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import corpus
    import layers
    from harness import Calibrator, Tally, Tracer, closed_loop

    if args.workload not in corpus.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(corpus.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))
    cal = Calibrator()
    blocks, setup_s, digest = set_up(args.workload, args.seed, cal)
    tally = Tally(CAPACITY.get(args.workload, DEFAULT_CAPACITY), None if args.workload == "cli" else cal)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "corpus_digest": digest,
              "corpus_ops": sum(len(b) for b in blocks)}
    if args.trace:
        tracer = Tracer()
        metrics = layers.traced_run(blocks, args.seed, args.seconds, tally, tracer, cal)
        trace_path = BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(trace_path)
        report |= {"spans": len(tracer.spans), "trace_file": str(trace_path.relative_to(ROOT))}
    else:
        closed_loop(blocks, args.seconds, tally)
        scaled, raw = tally.e2e()
        metrics = scaled | {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb(args.workload)}
        report |= {"blocks": len(tally.block_rates), "samples": tally.count, "raw": raw}
    report["calibration_kernel_ms"] = statistics.fmean(cal.samples) * 1e3

    failures = Counter(op_id for op_id, _ in tally.failures)
    reasons = dict(reversed(tally.failures))
    report |= {
        "failed_share": len(tally.failures) / tally.count,
        "failures": [{"id": op_id, "count": k, "reason": reasons[op_id]} for op_id, k in sorted(failures.items())],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    print(json.dumps(report))
    if set(metrics) != set(declared):
        print(f"error: measured metrics differ from BENCHMARK.json: missing {sorted(set(declared) - set(metrics))}, "
              f"undeclared {sorted(set(metrics) - set(declared))}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.count,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
