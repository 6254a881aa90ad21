"""Traced run: per-layer metrics from spans around each call into a layer.

Spans come from the benchmark's own code: one around every public call
it makes, and, inside the oracle, one around every call of the ``f`` it
passes to ``membership`` (a timing and counting wrapper).  The layer
sweep does a fixed amount of work per seed, so its counts repeat
exactly.  Its times are scaled like the end-to-end ones (see
``harness.Calibrator``), child processes excepted; the span file keeps
raw times.  The tracing overhead is measured on the workload's own ops,
each run once with and once without tracing.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import statistics
import subprocess
import time
from collections import defaultdict

import numpy as np

import corpus
from harness import IMPORT_CODE, Calibrator, Op, Tally, Tracer, child_seconds, execute
from varproj import cli, suites

LAYERS = ("oracle", "ball", "orthant", "l2_cone", "descriptors", "vectors", "suites", "cli")
DESCRIPTOR_VARIANTS = ("singleton", "empty", "ball-sphere", "cone-corner", "l2-self-exclusion", "order_interval")
CLOSED_FORM_REPS = 100
CLI_REPS = 5


def overhead_share(blocks: list[list[Op]], budget_s: float, tally: Tally, tracer: Tracer) -> float:
    """Traced over untraced raw time of the same ops, minus one; which runs first alternates per op."""
    plain = traced = 0.0
    deadline = time.perf_counter() + budget_s
    for k, op in enumerate(itertools.chain.from_iterable(itertools.cycle(blocks))):
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            seconds, _, error = execute(op, tracer if with_trace else None)
            tally.record(op, seconds, error)
            if with_trace:
                traced += seconds
            else:
                plain += seconds
        if time.perf_counter() >= deadline:
            break
    return traced / plain - 1.0


class Sweep:
    """Fixed, seeded calls into every layer; each call is one traced, checked op."""

    def __init__(self, seed: int, tally: Tally, tracer: Tracer, cal: Calibrator):
        self.seed, self.tally, self.tracer, self.cal = seed, tally, tracer, cal
        self.self_ns = dict.fromkeys(LAYERS, 0.0)

    def run(self, op: Op, child_process: bool = False):
        """Execute and record one op; return (seconds, output, its child spans in ns).

        Times are scaled unless the op runs a child process.  The op's
        spans are contiguous: its own, then one per call of ``f``.  Their
        self times are added to ``self_ns`` by layer.
        """
        self.cal.due()
        index = len(self.tracer.spans)
        seconds, out, error = execute(op, self.tracer)
        self.tally.record(op, seconds, error)
        scale = 1.0 if child_process else self.cal.scale()
        spans = self.tracer.spans[index:]
        children = [(name, (end - start) * scale) for name, _, _, start, end in spans[1:]]
        name, _, _, start, end = spans[0]
        self.self_ns[name.split(".")[0]] += (end - start) * scale - sum(ns for _, ns in children)
        for child, ns in children:
            self.self_ns[child.split(".")[0]] += ns
        return seconds * scale, out, children

    def oracle(self) -> dict[str, float]:
        rng = np.random.default_rng([self.seed, 6])
        classes = {
            "ball.small": corpus.ball_queries(rng, 4),
            "orthant.small": corpus.orthant_queries(rng, 4),
            "ball.n50": [corpus.wide_query(rng, 50, k) for k in (0, 1, 0, 1)],
            "orthant.n50": [corpus.wide_query(rng, 50, k) for k in (2, 3, 2, 3)],
            "ball.n500": [corpus.wide_query(rng, 500, k) for k in (0, 1, 0, 1)],
            "orthant.n500": [corpus.wide_query(rng, 500, k) for k in (2, 3, 2, 3)],
            "l2_cone.grid": corpus.grid_queries(rng, 1, 2, 0),
            "l2_cone.cases": corpus.l2_queries(rng),
        }
        out: dict[str, float] = {}
        verdicts = dict.fromkeys(("member", "non_member", "inconclusive"), 0)
        total = f_total = 0.0
        f_calls = count = 0
        for cls, queries in classes.items():
            times = []
            for i, q in enumerate(queries):
                seconds, result, children = self.run(q.op(f"sweep/oracle/{cls}/{i:03d}/{q.label}"))
                times.append(seconds)
                total += seconds
                f_total += sum(ns for _, ns in children) / 1e9
                f_calls += len(children)
                count += 1
                if result is not None:
                    verdicts[result.verdict.value] += 1
            out[f"oracle.verdict_ms.{cls}"] = statistics.median(times) * 1e3
        out["oracle.self_ms"] = (total - f_total) / count * 1e3
        out["oracle.f_share"] = f_total / total
        out["oracle.f_calls_per_verdict"] = f_calls / count
        out |= {f"oracle.verdicts.{k}": v for k, v in verdicts.items()}
        return out

    def closed_forms(self) -> dict[str, float]:
        """p50 microseconds per call of every closed form, descriptor and vector function."""
        rng = np.random.default_rng([self.seed, 7])
        ops = [(key, n, op.named(f"sweep/{key}/n{n}"))
               for n in corpus.SIZES for key, op in corpus.closed_form_calls(rng, n)]
        ops += [(f"descriptors.to_json/{variant}", 6, _to_json_op(variant, desc))
                for variant, desc, _, _ in corpus.descriptor_cases(rng, 6)]
        times = defaultdict(list)
        for _ in range(CLOSED_FORM_REPS):
            for key, n, op in ops:
                seconds, _, _ = self.run(op)
                times[key, n].append(seconds)
                if "/" in key:
                    times[key.split("/")[0], n].append(seconds)

        def p50_us(key, n):
            return float(np.median(times[key, n])) * 1e6

        out = {}
        for mod in ("ball", "orthant"):
            for fn in ("project", "coderivative"):
                out |= {f"{mod}.{fn}_us.n{n}": p50_us(f"{mod}.{fn}", n) for n in corpus.SIZES}
            out |= {f"{mod}.{fn}_us": p50_us(f"{mod}.{fn}", 6) for fn in ("region", "gateaux", "frechet")}
        for fn in ("project", "coderivative"):
            out |= {f"l2_cone.{fn}_us.n{n}": p50_us(f"l2_cone.{fn}", n) for n in corpus.SIZES}
        out |= {f"descriptors.contains_us.{v}": p50_us(f"descriptors.contains/{v}", 6) for v in DESCRIPTOR_VARIANTS}
        out["descriptors.to_json_us"] = statistics.fmean(
            p50_us(f"descriptors.to_json/{v}", 6) for v in DESCRIPTOR_VARIANTS)
        out |= {
            "vectors.norm_us.dense": p50_us("vectors.norm/dense", 50),
            "vectors.norm_us.sparse": p50_us("vectors.norm/sparse", 50),
            "vectors.inner_us": p50_us("vectors.inner/dense", 50),
            "vectors.orth_decompose_us": p50_us("vectors.orth_decompose/dense", 50),
            "vectors.sparse_add_us": p50_us("vectors.sparse_add", 50),
        }
        return out

    def suites(self) -> dict[str, float]:
        out = {}
        cases = 0
        for name in corpus.SUITES:
            op = Op(id=f"sweep/suites/{name}", layer="suites.run_suite",
                    call=lambda name=name: suites.run_suite(name, self.seed), check=_suite_ok)
            seconds, report, _ = self.run(op)
            out[f"suites.run_suite_s.{name}"] = seconds
            cases += len(report.cases) if report is not None else 0
        out["suites.cases_per_s"] = cases / sum(out.values())
        return out

    def cli(self) -> dict[str, float]:
        starts, imports = [], []
        for k in range(CLI_REPS):
            seconds, _, _ = self.run(Op(id=f"sweep/cli/python_start/{k}", layer="cli.python_start",
                                        call=lambda: child_seconds("print(0)"), check=lambda _: None), True)
            starts.append(seconds)
            _, imported, _ = self.run(Op(id=f"sweep/cli/import/{k}", layer="cli.import",
                                         call=lambda: child_seconds(IMPORT_CODE), check=_positive), True)
            imports.append(imported or 0.0)
        out = {"cli.python_start_ms": statistics.median(starts) * 1e3,
               "cli.import_ms": statistics.median(imports) * 1e3}
        main_times = defaultdict(list)
        for op in itertools.chain.from_iterable(corpus.cli(self.seed, rounds=len(corpus.SUITES))):
            command = op.inputs[0]
            if command != "verify" and len(main_times[command]) >= CLI_REPS:
                continue
            seconds, _, _ = self.run(Op(id=op.id.replace("cli/", "sweep/cli.main/", 1), layer="cli.main",
                                        call=lambda argv=op.inputs: _main_captured(argv), check=op.check))
            main_times[command].append(seconds)
        out |= {f"cli.main_ms.{cmd}": statistics.median(t) * 1e3 for cmd, t in main_times.items()}
        return out


def _to_json_op(variant: str, desc) -> Op:
    def check(doc):
        got = doc.get("rule", doc.get("variant"))
        return None if got == variant else f"to_json names {got!r}, want {variant!r}"

    return Op(id=f"sweep/descriptors.to_json/{variant}", layer="descriptors.to_json", call=desc.to_json, check=check)


def _suite_ok(report):
    if report.cases and report.all_ok:
        return None
    return f"suite {report.suite}: {report.failed} failed of {len(report.cases)}"


def _positive(seconds):
    return None if seconds > 0.0 else f"import took {seconds!r} s"


def _main_captured(argv) -> subprocess.CompletedProcess:
    """``varproj.cli.main(argv)`` in this process, with stdout and stderr captured."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(argv))
    return subprocess.CompletedProcess(list(argv), code, stdout.getvalue(), stderr.getvalue())


def traced_run(blocks: list[list[Op]], seed: int, seconds: float, tally: Tally, tracer: Tracer,
               cal: Calibrator) -> dict[str, float]:
    """All per-layer metrics: tracing overhead on the workload, then the layer sweep."""
    metrics = {"trace.overhead_share": overhead_share(blocks, seconds / 4, tally, tracer)}
    sweep = Sweep(seed, tally, tracer, cal)
    metrics |= sweep.oracle()
    metrics |= sweep.closed_forms()
    metrics |= sweep.suites()
    metrics |= sweep.cli()
    return metrics | {f"trace.self_ms.{layer}": ns / 1e6 for layer, ns in sweep.self_ns.items()}
