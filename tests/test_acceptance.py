"""Acceptance criteria, one test per criterion.

Each test runs the corresponding verification suite at its full
documented budget, asserts a zero-failure verdict (and the stated time
budget where one exists), and prints a single pass/fail line.  Run with
``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the lines even
when everything passes).
"""

import time

import pytest

from rigidlin import (
    GaussianIntegers,
    IntegerPolynomials,
    Integers,
    Modular,
    PrimeFieldPolynomials,
    run_suite,
)

SEED = 20240801

Z = Integers()

ALL_RINGS = [
    Integers(),
    Modular(6),
    PrimeFieldPolynomials(5),
    IntegerPolynomials(),
    GaussianIntegers(),
]


def report_line(number: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_ring_axioms():
    details = []
    ok = True
    for ring in ALL_RINGS:
        report = run_suite("ring-axioms", ring, {"samples": 1000, "seed": SEED})
        ok = ok and report.verdict == "pass" and report.elapsed_ms < 1000.0
        details.append(f"{ring.descriptor}:{report.elapsed_ms:.0f}ms")
    report_line(1, "ring axioms, 1000 triples per ring, <1s each", ok, ", ".join(details))


def test_criterion_02_snf_oracle():
    report = run_suite("snf-oracle", Z, {"trials": 200, "seed": SEED})
    ok = report.verdict == "pass" and report.elapsed_ms < 10_000.0
    report_line(2, "Smith form vs minor-gcd oracle on 200 matrices", ok,
                f"failures={len(report.failures)}, {report.elapsed_ms:.0f}ms")


def test_criterion_03_kernel_completeness():
    report = run_suite("kernel-oracle", Z, {"trials": 500, "box": 6, "seed": SEED})
    ok = report.verdict == "pass"
    report_line(3, "kernel completeness against box enumeration", ok,
                f"trials={report.trials}, failures={len(report.failures)}")


def test_criterion_04_intersection_witnesses():
    start = time.perf_counter()
    failures = 0
    for ring in (Z, IntegerPolynomials()):
        for n in (3, 4, 5):
            report = run_suite("lemma-ke", ring,
                               {"n": n, "trials": 20, "need": 50, "seed": SEED})
            failures += len(report.failures)
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 10.0
    report_line(4, "50 verified intersection witnesses, n in {3,4,5} x 20 tuples, Z and Z[x]", ok,
                f"failures={failures}, {elapsed:.1f}s")


def test_criterion_05_conjugation_closure():
    failures = 0
    for ring in (Z, IntegerPolynomials()):
        for n in (3, 4, 5):
            report = run_suite("lemma-new", ring,
                               {"n": n, "trials": 20, "need": 50, "conjugators": 10,
                                "seed": SEED})
            failures += len(report.failures)
    ok = failures == 0
    report_line(5, "conjugation closure over 10 stabilizer conjugators per trial, Z and Z[x]", ok,
                f"failures={failures}")


def test_criterion_06_generators_and_forms():
    report = run_suite("forms-generators", Z, {"seed": SEED})
    ok = report.verdict == "pass"
    report_line(6, "exhaustive generator/form consistency, n in {2,3}, a in {1,-1,2}", ok,
                f"checks={report.trials}, failures={len(report.failures)}")


def test_criterion_07_transvections():
    report = run_suite("transvections", Z, {"trials": 100, "ns": [2, 4], "seed": SEED})
    ok = report.verdict == "pass" and report.trials >= 100
    report_line(7, "100 isotropic transvection trials at ranks 4 and 8", ok,
                f"trials={report.trials}, failures={len(report.failures)}")


def test_criterion_08_block_witness_streams():
    report = run_suite("t-a-witnesses", Z,
                       {"configs": [["symplectic", 2], ["orthogonal", 4]],
                        "trials": 20, "need": 50, "seed": SEED})
    ok = report.verdict == "pass"
    report_line(8, "50 distinct block witnesses per conjugator, both forms", ok,
                f"trials={report.trials}, failures={len(report.failures)}")


def test_criterion_09_rigidity_contrast():
    start = time.perf_counter()
    failures = 0
    for m in range(2, 9):
        report = run_suite("rigidity-empirical", Modular(m), {"seed": SEED})
        failures += len(report.failures)
        assert report.params["finite_ring"] is True
    for ring in (Z, IntegerPolynomials()):
        report = run_suite("rigidity-empirical", ring,
                           {"trials": 200, "need": 50, "seed": SEED})
        failures += len(report.failures)
        assert report.params["finite_ring"] is False
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 30.0
    report_line(9, "finite kernels mod m vs 50+ solutions over Z and Z[x]", ok,
                f"failures={failures}, {elapsed:.1f}s")


def test_criterion_10_deterministic_reports():
    ok = True
    checked = []
    for suite, ring, params in [
        ("lemma-ke", Z, {"n": 3, "trials": 5, "need": 20, "seed": SEED}),
        ("snf-oracle", Z, {"trials": 30, "seed": SEED}),
        ("rigidity-empirical", Modular(4), {"seed": SEED}),
        ("transvections", Z, {"trials": 12, "seed": SEED}),
    ]:
        first = run_suite(suite, ring, dict(params))
        second = run_suite(suite, ring, dict(params))
        same = first.canonical_json() == second.canonical_json()
        ok = ok and same
        checked.append(f"{suite}:{'=' if same else '!='}")
    report_line(10, "same seed reproduces reports byte for byte (minus timing)", ok,
                ", ".join(checked))
