"""Tiny-size smoke test of the benchmark.

    python3 -m pytest bench/tests

Runs every workload for a fraction of a second, checks that each metric
BENCHMARK.json names is printed with its unit, and that the harness
counts a deliberately wrong answer as a failure.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import corpus  # noqa: E402
import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_lines(workload: str, trace: int) -> tuple[dict, dict]:
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return report, result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]] + ["cli"])
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    report, result = result_lines(workload, 0)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0
    assert report["failed_share"] == 0.0 and report["nproc"] >= 1


def test_traced_run_prints_every_per_layer_metric():
    _, result = result_lines("closed-forms", 1)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    metrics = {name: v["value"] for name, v in result["metrics"].items()}
    assert metrics["oracle.verdicts.inconclusive"] == 0
    assert metrics["oracle.verdicts.member"] + metrics["oracle.verdicts.non_member"] == 83
    assert metrics["oracle.f_calls_per_verdict"] > 0


def test_same_seed_same_corpus():
    assert corpus.digest_inputs(corpus.cli(5)) == corpus.digest_inputs(corpus.cli(5))
    assert corpus.digest_inputs(corpus.cli(5)) != corpus.digest_inputs(corpus.cli(6))


def test_wrong_answers_count_as_failures():
    rng = np.random.default_rng(0)
    member = next(q for q in corpus.ball_queries(rng, 3) if q.label == "ball/exterior-member")
    ball_call = next(op for key, op in corpus.closed_form_calls(rng, 6) if key == "ball.project/exterior")
    ops = [
        member.op("right"),
        # the identity is not the ball projection at an exterior point, so z = P'(x) y is no member
        replace(member.op("wrong-f"), f=lambda u: u),
        replace(ball_call, id="wrong-projection", call=lambda: 2.0 * ball_call.call()),
        replace(ball_call, id="raises", call=lambda: 1 / 0),
    ]
    tally = harness.Tally(16, harness.Calibrator())
    tally.run_block(ops)
    assert tally.count == 4
    assert [op_id for op_id, _ in tally.failures] == ["wrong-f", "wrong-projection", "raises"]


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
