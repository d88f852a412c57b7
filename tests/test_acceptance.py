"""Acceptance gate: every criterion runs once per session at tolerance
zero and must report PASS.

The suite prints one line per criterion; run pytest with -s (or read the
captured output of the fixture) to see them alongside the verdicts.
"""

import pytest

from limsupgames.acceptance import DEFAULT_SEED, _run, run_all

# the number of checks each criterion makes at DEFAULT_SEED
CHECKS = {
    "c1_responder_always_wins": 2100,
    "c2_threshold_construction_grid": 5550,
    "c3_algebra_three_ops": 12000,
    "c4_meager_dense_attack": 3768,
    "c5_oscillation_attack": 1033,
    "c6_two_sided_pairs": 220,
    "c7_lift_restricted": 123,
    "c8_copycat_identities": 420,
}
CRITERIA = list(CHECKS)


@pytest.fixture(scope="session")
def results():
    out = {r.name: r for r in run_all(DEFAULT_SEED)}
    for name in CRITERIA:
        print(out[name].line())
    return out


def test_every_criterion_is_covered(results):
    assert sorted(results) == sorted(CRITERIA)


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(results, name):
    r = results[name]
    assert r.count > 0, r.line()
    assert r.seconds <= r.budget, r.line()
    assert r.passed, r.line()


def test_check_counts_at_the_default_seed(results):
    assert {name: r.count for name, r in results.items()} == CHECKS


def test_run_counts_every_check_and_reports_the_first_failure():
    seen = []

    def body(check):
        seen.append(check(True, "fine"))
        seen.append(check(False, "first"))
        seen.append(check(False, "second"))

    r = _run("demo", 60.0, body)
    assert seen == [True, False, False]
    assert not r.passed and r.count == 3
    assert r.details == "2 failures, first: first"


def test_run_reports_a_raising_body_with_no_checks():
    def body(check):
        check(True, "fine")
        raise RuntimeError("boom")

    r = _run("demo", 60.0, body)
    assert not r.passed and r.count == 0
    assert r.details == "error: RuntimeError: boom"
