import hashlib
import json

import numpy as np
import pytest

from varproj.suites import (
    SUITE_NAMES,
    ball_membership_cases,
    l2_membership_cases,
    orthant_membership_cases,
    run_suite,
)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_green(name):
    report = run_suite(name, 42)
    failures = [c for c in report.cases if not c.ok]
    assert not failures, failures[:5]
    # the CLI serializes reports; numpy scalars leaking into ok flags
    # would only blow up there, so round-trip every suite here
    parsed = json.loads(json.dumps(report.to_json()))
    assert parsed["total"] == len(report.cases)
    assert all(p["ok"] is True for p in parsed["cases"])


def test_all_aggregates():
    report = run_suite("all", 42)
    total = sum(len(run_suite(name, 42).cases) for name in SUITE_NAMES)
    assert len(report.cases) == total and report.all_ok


def test_all_report_is_pinned():
    # the reports of `varproj verify --suite all --seed <seed>`; any refactor
    # that changes a case id, a verdict or the suite order changes a digest
    for seed, want in (
        (42, "dbb617c8ed5c00ab52ffc35140508d43cfcfd652efd9a1fc5e5356c98f6a6c84"),
        (7, "452c584ed45bd2847db56aabdccab1fc965fffbdd789aef0291eb405af898475"),
    ):
        text = json.dumps(run_suite("all", seed).to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == want, seed


def test_reports_are_deterministic():
    a = json.dumps(run_suite("cone-l2", 9).to_json(), sort_keys=True)
    b = json.dumps(run_suite("cone-l2", 9).to_json(), sort_keys=True)
    assert a == b


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("bogus", 0)


def test_generators_cover_families():
    rng = np.random.default_rng(0)
    labels = {c.label.rsplit("/", 1)[0] for c in ball_membership_cases(rng, 2)}
    assert len(labels) == 14
    labels = {c.label.rsplit("/", 1)[0] for c in orthant_membership_cases(rng, 2)}
    assert len(labels) == 16
    labels = {c.label.rsplit("/", 1)[0] for c in l2_membership_cases(rng, 2)}
    assert len(labels) == 10


def test_generator_expectations_are_definite():
    # every generated case already carries a closed-form True/False answer
    rng = np.random.default_rng(1)
    for case in (
        ball_membership_cases(rng, 1)
        + orthant_membership_cases(rng, 1)
        + l2_membership_cases(rng, 1)
    ):
        assert case.descriptor.contains(case.z) is case.expected
