import collections
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import rigidlin.normal_forms
import rigidlin.suites
import rigidlin.witnesses
from rigidlin import (
    Integers,
    IntegerPolynomials,
    Matrix,
    Modular,
    StabilizerContext,
    UnsupportedRingError,
    parse_matrix,
    ring_from_text,
    run_suite,
    unit_vector,
)
from rigidlin.suites import SUITE_IDS

Z = Integers()


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("no-such-suite", Z)


def test_suite_ids_cover_the_documented_set():
    assert set(SUITE_IDS) == {
        "ring-axioms", "snf-oracle", "kernel-oracle", "rigidity-empirical",
        "lemma-ke", "lemma-new", "forms-generators", "transvections",
        "t-a-witnesses", "abelian-s",
    }


def test_ring_axioms_report_shape():
    report = run_suite("ring-axioms", Modular(6), {"samples": 200, "seed": 1})
    assert report.verdict == "pass"
    assert report.trials == 200
    assert report.failures == []
    assert report.ring == "Z/6"
    payload = json.loads(report.to_json())
    assert payload["suite"] == "ring-axioms"
    assert payload["params"]["seed"] == 1


def test_snf_oracle_requires_integers():
    with pytest.raises(UnsupportedRingError):
        run_suite("snf-oracle", Modular(6), {"trials": 1})


def test_rigidity_finite_ring_flag():
    report = run_suite("rigidity-empirical", Modular(4), {"seed": 2, "finite_trials": 10})
    assert report.verdict == "pass"
    assert report.params["finite_ring"] is True
    assert all("kernel_size" in s for s in report.samples)


def test_rigidity_enumeration_cap():
    # Z/20 enumerates at most 20**3 vectors per trial, at the cap; Z/21 is refused
    assert run_suite("rigidity-empirical", Modular(20), {"finite_trials": 1}).verdict == "pass"
    with pytest.raises(ValueError, match="the cap is"):
        run_suite("rigidity-empirical", Modular(21), {"finite_trials": 1})


@pytest.mark.parametrize("ring_text, params, ignored", [
    ("Z/5", {"trials": 3}, "trials"),
    ("Z/5", {"need": 4, "trials": 3}, "need, trials"),
    ("Z", {"finite_trials": 1}, "finite_trials"),
    ("Z[x]", {"finite_trials": 1, "need": 3}, "finite_trials"),
])
def test_rigidity_refuses_parameters_of_the_other_branch(monkeypatch, ring_text, params, ignored):
    def no_trial(*args):
        raise AssertionError("a trial started")

    monkeypatch.setattr(rigidlin.suites, "_rng", no_trial)
    with pytest.raises(ValueError, match=f"over {re.escape(ring_text)} ignores {ignored}:"):
        run_suite("rigidity-empirical", ring_from_text(ring_text), params)


def test_rigidity_infinite_ring():
    report = run_suite("rigidity-empirical", Z, {"seed": 2, "trials": 15, "need": 20})
    assert report.verdict == "pass"
    assert report.params["finite_ring"] is False


def test_determinism_byte_identical():
    for suite, ring, params in [
        ("lemma-ke", Z, {"n": 3, "trials": 3, "need": 10, "seed": 9}),
        ("snf-oracle", Z, {"trials": 10, "seed": 9}),
        ("transvections", Z, {"trials": 8, "seed": 9}),
        ("rigidity-empirical", Modular(5), {"seed": 9, "finite_trials": 5}),
    ]:
        first = run_suite(suite, ring, dict(params))
        second = run_suite(suite, ring, dict(params))
        assert first.canonical_json() == second.canonical_json()


# SHA-256 of canonical_json, recorded before the witness hot path was
# reworked: conjugator checks once per conjugator, identities once per emission
PINNED_REPORTS = {
    ("lemma-ke", "Z"): "1e87fe32421a4a407ddea2739a17ed5edca3ef5f953ce7f2482f3a7cb3b44052",
    ("lemma-new", "Z"): "9613a27414e313e4846fb5dc97567ada765f7d527d3a102864cfabcc2419479b",
    ("lemma-ke", "Fp[x]/5"): "7f82c9e9201d8278c2ed3c6f0a75ac5310b93298e24a1b1f58ecdab2491594aa",
    ("lemma-new", "Fp[x]/5"): "ce8da62f001e9166386da0c939aada6b4275e30504f822b2f3bd5968301dba26",
    ("lemma-ke", "Z/7"): "2230c7689077609d0ca2798d9da0b5d8947ba06e34c1357a77a1dc3a6248d65a",
    ("lemma-new", "Z/7"): "91298649b8bf283d9a4922d98de715c3c5c794b6b819241421440149ea456521",
}
# The same, recorded before polynomial arithmetic moved to whole coefficient
# lists.  Z[x] had no kernel computation then, so transvections and
# t-a-witnesses were pinned over Fp[x]/5 alone.
PINNED_POLYNOMIAL_REPORTS = {
    ("ring-axioms", "Fp[x]/5"): "61dfba5b4641b0d533bf31987b735cb5084ce8d0baca917bda94ce2c63f7e3c4",
    ("ring-axioms", "Z[x]"): "e7ce92f9ef817b20ffe28106e0b0b81d3aa8d923d55af21ad0bd297e5de24b5d",
    ("rigidity-empirical", "Fp[x]/5"): "bbd53e2c4c08bc64f4c2bc4e3f4a171b1838b9f84e2cf9b5a648fef834def7e5",
    ("rigidity-empirical", "Z[x]"): "5eb0b1a16e33058648b0a6e84793cc8c1c35a1744c47a6bd422a36430724be19",
    ("forms-generators", "Fp[x]/5"): "64b85d54aa29e18973c362fa3d128ada2e7cf14a4e095756cea4979be7bf340d",
    ("forms-generators", "Z[x]"): "41371b8b6b726646d7ed4d0945808ce57fe4396ce99d1ea9bcda7758a3f784e9",
    ("transvections", "Fp[x]/5"): "4bc8141bf468dfa659e4b66948b422bf91c91f40538382cc529af8ce82ab16d2",
    ("t-a-witnesses", "Fp[x]/5"): "1ef63afe0f67232dcfca6d7c3f01f2c530f531d6378fef6f3ee43171c8e98de4",
}
# The kernel-using suites over Z[x], recorded when ``kernel_basis`` took
# over Z[x] with signed maximal minors.
PINNED_MINOR_KERNEL_REPORTS = {
    ("lemma-ke", "Z[x]"): "7f7409a8239060a45ea09c28af614a6848b1141f6ce677f0b2fae56938622af5",
    ("lemma-new", "Z[x]"): "7edcaf01bd318c7a9548150077e8bf5ce8bc85d262cd69553651f76268289c08",
    ("transvections", "Z[x]"): "3c0fe5bc3d77f8c3e9e24bfbf62029398a620915de38a0b04944b420e55b6adb",
    ("t-a-witnesses", "Z[x]"): "fb3775c4299478d7f12bae07da3bf574cfc4d0964c39f3ae961f847e516c2e40",
}
# The same over Z, recorded before these suites stopped re-checking the
# identities that their emitters check.  rigidity-empirical was re-pinned
# when the echelon's Euclid sweep moved to nearest quotients, which changes
# the kernel generators its solutions are streamed from.
PINNED_EMITTER_REPORTS = {
    ("kernel-oracle", "Z"): "b693d06da54afbca0935a4dbcbfa77670d76f268e6de89360b74179b30decc6d",
    ("rigidity-empirical", "Z"): "f799714a311c00968fe540597ea3d5171fc69df25e820679acf0a950cd761046",
    ("transvections", "Z"): "a1f5aef0a8cf5be11491ad9e13b6268d642b3bfa529f4bb531e8d1c8f8f6efc0",
    ("t-a-witnesses", "Z"): "a87c52b5b7bd122a5d7cec162e0413799989b94faeef6ba465dafe12757f72a4",
}
# t-a-witnesses on the orthogonal block path and a symplectic one of
# half-rank 3, recorded before the split form acted through
# ``BilinearForm.covector``.
PINNED_BLOCK_REPORTS = {
    "Z": "a006dc4ed3ead7fe2fd380440863638e092689705e42c5db94a32d025ef03994",
    "Fp[x]/5": "ed10c12b4d8e0bf322cfc85e5d5bd50cc4bef6f9a12b7439fb703836f7f5e087",
}
# The same for the suites that had no pin, recorded before the suites ran
# on one per-run checker.
PINNED_CHECKER_REPORTS = {
    ("snf-oracle", "Z"): "f09304ed2d1fcdb255f5c32a2e921e678935d6e60fa09125a355bd6be5e09270",
    ("abelian-s", "Z"): "2bae4cd34f4e0e98657d9bce300125cfe930369819958d2d3eaac5f7a42498cf",
    ("abelian-s", "Fp[x]/5"): "7ed5efc707ad3b85c7c707cb66bb5556e74ebd60d3b31aaa5cc247237937c9bf",
}
PINNED_PARAMS = {
    "snf-oracle": {"trials": 10, "seed": 3},
    "abelian-s": {"ns": [2, 3], "seed": 3},
    "kernel-oracle": {"trials": 20, "box": 3, "seed": 3},
    "lemma-ke": {"n": 4, "trials": 3, "need": 6, "seed": 3},
    "lemma-new": {"n": 4, "trials": 2, "need": 5, "conjugators": 3, "seed": 3},
    "ring-axioms": {"samples": 200, "seed": 3},
    "rigidity-empirical": {"trials": 10, "need": 10, "seed": 3},
    "forms-generators": {"ns": [2], "words": 10, "seed": 3},
    "transvections": {"ns": [2], "trials": 6, "seed": 3},
    "t-a-witnesses": {"configs": [["symplectic", 2]], "trials": 2, "need": 6, "word_length": 3,
                      "seed": 3},
}


def _report_digest(suite, ring_text):
    report = run_suite(suite, ring_from_text(ring_text), dict(PINNED_PARAMS[suite]))
    assert report.verdict == "pass"
    return hashlib.sha256(report.canonical_json().encode()).hexdigest()


@pytest.mark.parametrize("suite, ring_text", sorted(PINNED_REPORTS))
def test_stabilizer_reports_match_pinned_digest(suite, ring_text):
    assert _report_digest(suite, ring_text) == PINNED_REPORTS[suite, ring_text]


@pytest.mark.parametrize("suite, ring_text", sorted(PINNED_POLYNOMIAL_REPORTS))
def test_polynomial_ring_reports_match_pinned_digest(suite, ring_text):
    assert _report_digest(suite, ring_text) == PINNED_POLYNOMIAL_REPORTS[suite, ring_text]


@pytest.mark.parametrize("suite, ring_text", sorted(PINNED_MINOR_KERNEL_REPORTS))
def test_minor_kernel_reports_match_pinned_digest(suite, ring_text):
    assert _report_digest(suite, ring_text) == PINNED_MINOR_KERNEL_REPORTS[suite, ring_text]


@pytest.mark.parametrize("suite, ring_text", sorted(PINNED_EMITTER_REPORTS))
def test_emitter_checked_reports_match_pinned_digest(suite, ring_text):
    assert _report_digest(suite, ring_text) == PINNED_EMITTER_REPORTS[suite, ring_text]


@pytest.mark.parametrize("suite, ring_text", sorted(PINNED_CHECKER_REPORTS))
def test_previously_unpinned_reports_match_pinned_digest(suite, ring_text):
    assert _report_digest(suite, ring_text) == PINNED_CHECKER_REPORTS[suite, ring_text]


@pytest.mark.parametrize("ring_text", sorted(PINNED_BLOCK_REPORTS))
def test_block_witness_reports_match_pinned_digest(ring_text):
    params = dict(PINNED_PARAMS["t-a-witnesses"], configs=[["orthogonal", 4], ["symplectic", 3]])
    report = run_suite("t-a-witnesses", ring_from_text(ring_text), params)
    assert report.verdict == "pass"
    digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
    assert digest == PINNED_BLOCK_REPORTS[ring_text]


def test_orthogonal_half_rank_three_runs_without_warning():
    # the suite's least orthogonal half-rank streams real witnesses, so the
    # library does not warn about it
    params = dict(PINNED_PARAMS["t-a-witnesses"], configs=[["orthogonal", 3]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_suite("t-a-witnesses", Z, params)
    assert report.verdict == "pass"


class _SkewIntegers(Integers):
    """Z with a product that adds one when a > b: it is neither
    commutative nor distributive, and 1 is not its identity."""

    def mul(self, a, b):
        return a * b + (a > b)


def _always(value):
    return lambda *args: value


def _two_solutions(a, count):
    """A stream that cycles between the zero vector and the all-ones one."""
    pair = [tuple(a.ring.zero for _ in range(a.cols)), tuple(a.ring.one for _ in range(a.cols))]
    return itertools.islice(itertools.cycle(pair), count)


def _repeating_first(emitter):
    """An emitter that yields its first witness over and over."""
    return lambda *args: itertools.repeat(next(emitter(*args)))


def _snf_wrong_on_one_row(a):
    """Smith form with one added to D's first entry when A has one row."""
    d, u, v = rigidlin.normal_forms.smith_normal_form(a)
    if a.rows == 1:
        d = Matrix(a.ring, [[d.entries[0][0] + 1, *d.entries[0][1:]]])
    return d, u, v


# Each case breaks one name in rigidlin.suites (or, with no name, runs over
# a broken ring): suite, ring, parameters, name, replacement.
FAILING_CASES = {
    "forms-never-preserved": ("forms-generators", Z, PINNED_PARAMS["forms-generators"],
                              "preserves_form", _always(False)),
    "forms-always-preserved": ("forms-generators", Z, PINNED_PARAMS["forms-generators"],
                               "preserves_form", _always(True)),
    "kernel-oracle-span": ("kernel-oracle", Z, PINNED_PARAMS["kernel-oracle"],
                           "in_row_span", _always(False)),
    "rigidity-two-solutions": ("rigidity-empirical", Z, PINNED_PARAMS["rigidity-empirical"],
                               "solution_stream", _two_solutions),
    "rigidity-two-solutions-finite": ("rigidity-empirical", Modular(5),
                                      {"finite_trials": 40, "seed": 3},
                                      "solution_stream", _two_solutions),
    "lemma-ke-repeated": ("lemma-ke", Z, PINNED_PARAMS["lemma-ke"], "intersection_witnesses",
                          _repeating_first(rigidlin.witnesses.intersection_witnesses)),
    "t-a-repeated": ("t-a-witnesses", Z, PINNED_PARAMS["t-a-witnesses"],
                     "block_unipotent_witnesses",
                     _repeating_first(rigidlin.witnesses.block_unipotent_witnesses)),
    "ring-axioms-skew": ("ring-axioms", _SkewIntegers(), PINNED_PARAMS["ring-axioms"],
                         None, None),
    "snf-one-row": ("snf-oracle", Z, {"trials": 6, "seed": 1},
                    "smith_normal_form", _snf_wrong_on_one_row),
}
# SHA-256 of canonical_json of each failing case, recorded before the
# suites ran on one per-run checker.  snf-one-row was re-pinned when the
# echelon's Euclid sweep moved to nearest quotients: its samples print the
# Smith transforms U and V, which that rule changes (D does not move).
# rigidity-two-solutions-finite was re-pinned when rigidity-empirical began
# to refuse trials and need over a finite ring: it gives finite_trials, and
# only the defaults recorded in its params moved, not its failures.
PINNED_FAILING_REPORTS = {
    "forms-always-preserved": "bd174024c08d8217f77c3b8aa819f9dfd677dc8d4ea682dca61d01e941aad5d9",
    "forms-never-preserved": "eacea5bf933a9ca8ca71feca02af9fa7a7129af610f4f156d71a34db24da2989",
    "kernel-oracle-span": "156db0376d7bfbc109e06ae254f06583e3dc02795fcd1ce2214f10cc54bc69f4",
    "lemma-ke-repeated": "ebb819f2b65f8ec3f921db7bcd9e8460c0edab4d8dc14394bc67d16b16fdad71",
    "rigidity-two-solutions": "4918c7260de76c900ee283ebc6bf6cc49b231d5194f5d360af0a334de03f962d",
    "rigidity-two-solutions-finite":
        "3f233a675439931ec4c1a4616b0ddb0e58deb9a4aa86eff684885f87fc4227a5",
    "ring-axioms-skew": "e5401048fbe8c88d9c42821242f277302a2d52e87d989dfa4aaa87f2a059a113",
    "snf-one-row": "08d6da0e70ea1d33cc9239055bcca82362d6f547b01381f4b1746674bedc3f0d",
    "t-a-repeated": "d51fa07b66fb1d3892b0585735f19769077bc0185453b51f54638a083c92e77e",
}


@pytest.mark.parametrize("case", sorted(FAILING_CASES))
def test_failing_checks_match_pinned_digest(monkeypatch, case):
    suite, ring, params, name, broken = FAILING_CASES[case]
    if name is not None:
        monkeypatch.setattr(rigidlin.suites, name, broken)
    report = run_suite(suite, ring, dict(params))
    assert report.verdict == "fail"
    digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
    assert digest == PINNED_FAILING_REPORTS[case]


def _functionals_not_annihilating(kernel, count):
    """Annihilating functionals with one added to each coordinate: their
    shears no longer fix the conjugated images."""
    ring = kernel.ring
    for f in rigidlin.normal_forms.combination_stream(kernel, count):
        yield tuple(ring.add(c, ring.one) for c in f)


@pytest.mark.parametrize("suite", ["lemma-ke", "lemma-new"])
def test_broken_intersection_witness_is_a_reported_failure(monkeypatch, suite):
    monkeypatch.setattr(rigidlin.witnesses, "combination_stream",
                        _functionals_not_annihilating)
    params = {"n": 3, "trials": 2, "need": 4, "seed": 1}
    if suite == "lemma-new":
        params["conjugators"] = 2
    report = run_suite(suite, Z, params)
    assert report.verdict == "fail"
    assert len(report.failures) == 2  # one per trial
    assert all("IdentityViolation" in f["got"] for f in report.failures)
    assert report.samples == []


_real_conjugator = rigidlin.suites._random_stabilizer_conjugator


def _wrong_conjugator(rng, ring, n, functionals, pool):
    """The suite's conjugator, drawn as before, with one added to each
    entry of its lower block A, from which conjugated functionals are
    computed: the block no longer fixes the images' tails."""
    q = _real_conjugator(rng, ring, n, functionals, pool)
    lower = tuple(row[:1] + tuple(ring.add(c, ring.one) for c in row[1:]) for row in q.entries[1:])
    return Matrix._raw(ring, q.entries[:1] + lower)


def test_broken_conjugate_is_a_reported_failure(monkeypatch):
    # with q's entry check switched off, f' = f * (A + J) is still caught:
    # it no longer annihilates the images that A fixes
    monkeypatch.setattr(rigidlin.suites, "_random_stabilizer_conjugator", _wrong_conjugator)
    monkeypatch.setattr(rigidlin.witnesses, "_check_conjugator", lambda ctx, q: None)
    report = run_suite("lemma-new", Z,
                       {"n": 3, "trials": 2, "need": 4, "conjugators": 3, "seed": 1})
    assert report.verdict == "fail"
    assert len(report.failures) == 6  # one per conjugator and trial
    assert all(f["expected"] == "closed under conjugation" for f in report.failures)
    assert all("does not annihilate an image" in f["got"] for f in report.failures)
    assert report.samples == []


def _first_and_last_axis_transvection(calls):
    """A transvection that is tau(e1, e_2n), whatever pair it is given, on
    the calls whose index modulo 3 is in calls: it preserves the form but
    moves the suite's first-block pool.  The suite makes three
    ``transvection`` calls per trial: tau(u, v), tau(gu, gv) and c."""
    count = itertools.count()
    real = rigidlin.suites.transvection

    def broken(form, u, v):
        if next(count) % 3 in calls:
            ring, size = form.ring, form.size
            u, v = unit_vector(ring, size, 0), unit_vector(ring, size, size - 1)
        return real(form, u, v)
    return broken


@pytest.mark.parametrize("calls, expected", [
    ((0, 1, 2), {"g tau == tau(gu, gv) g"}),
    ((2,), {"c tau == tau c"}),
], ids=["equivariance", "centrality"])
def test_transvection_failures_name_the_identity_checked(monkeypatch, calls, expected):
    monkeypatch.setattr(rigidlin.suites, "transvection", _first_and_last_axis_transvection(calls))
    report = run_suite("transvections", Z, {"ns": [2, 3], "trials": 8, "seed": 1})
    assert report.verdict == "fail"
    assert {f["expected"] for f in report.failures} - {"fixes constraint vectors"} == expected


def _no_pivots(ring, h, u):
    """An echelon with no pivots: every unit vector faces a zero row, so
    ``kernel_basis`` takes each for a kernel vector, and its own A v == 0
    check fails."""
    return []


class _DoubledIdentity(Matrix):
    """Matrix whose identity is 2I: transvections built on it fail their
    own identity checks."""

    @classmethod
    def identity(cls, ring, n):
        rows = Matrix.identity(ring, n).entries
        return Matrix(ring, [[ring.add(e, e) for e in row] for row in rows])


_real_identity_minus = rigidlin.witnesses._identity_minus


def _flipped_v_term(form, terms, what):
    """A transvection's rank-two update with the sign of its v<u, x> term
    flipped: equivariance and centrality still hold on an isotropic pool,
    so only the form-preservation check at emission can catch it.  At
    half-rank 4 the pool has rank at least 2; where u and v are parallel
    on the symplectic side, the flipped update is I and preserves the
    form."""
    if len(terms) == 2:
        (neg_eps_u, v_row), (v, u_row) = terms
        terms = ((neg_eps_u, v_row), (tuple(form.ring.neg(c) for c in v), u_row))
    return _real_identity_minus(form, terms, what)


_real_block_from_parameters = rigidlin.witnesses._block_from_parameters


def _block_with_an_extra_upper_entry(form, params):
    """The block of params with one added above the diagonal only: block
    witnesses built from it fail their own identity checks."""
    a = _real_block_from_parameters(form, params)
    rows = [list(row) for row in a.entries]
    rows[0][1] = a.ring.add(rows[0][1], a.ring.one)
    return Matrix(a.ring, rows)


_real_minor = rigidlin.normal_forms._minor


def _minor_negated_off_column_zero(a, rows, cols):
    """The minor, negated when its columns leave out column 0: in each
    Z[x] kernel generator whose columns include 0, exactly the minor at
    column 0 changes sign.  No sign flip breaks A v = 0 on a matrix whose
    nonzero columns all lie in the kept minor, so the Z[x] cases below take
    parameters under which each trial's kernel has a nonzero column
    outside it."""
    m = _real_minor(a, rows, cols)
    return m if 0 in cols else a.ring.neg(m)


@pytest.mark.parametrize("suite, ring, params, module, name, broken, expected", [
    ("kernel-oracle", Z, {"trials": 5, "box": 2}, rigidlin.normal_forms, "_echelon",
     _no_pivots, "A v == 0"),
    ("rigidity-empirical", Z, {"trials": 5, "need": 4}, rigidlin.normal_forms,
     "_echelon", _no_pivots, "kernel membership"),
    ("rigidity-empirical", Modular(5), {"finite_trials": 3}, rigidlin.normal_forms,
     "_echelon", _no_pivots, "kernel membership"),
    ("transvections", Z, {"ns": [2, 3], "trials": 8}, rigidlin.witnesses, "Matrix",
     _DoubledIdentity, "form preservation"),
    ("transvections", Z, {"ns": [4], "trials": 8}, rigidlin.witnesses, "_identity_minus",
     _flipped_v_term, "form preservation"),
    ("t-a-witnesses", Z, {"trials": 2, "need": 4}, rigidlin.witnesses, "_block_from_parameters",
     _block_with_an_extra_upper_entry, "fixes g e1 and preserves the form"),
    ("t-a-witnesses", ring_from_text("Fp[x]/5"), {"trials": 2, "need": 4}, rigidlin.witnesses,
     "_block_from_parameters", _block_with_an_extra_upper_entry,
     "fixes g e1 and preserves the form"),
    ("lemma-ke", IntegerPolynomials(), {"n": 5, "trials": 2, "need": 4}, rigidlin.normal_forms,
     "_minor", _minor_negated_off_column_zero, "verified intersection witnesses"),
    ("t-a-witnesses", IntegerPolynomials(),
     {"configs": [["orthogonal", 3]], "trials": 2, "need": 4}, rigidlin.normal_forms, "_minor",
     _minor_negated_off_column_zero, "fixes g e1 and preserves the form"),
], ids=["kernel-oracle", "rigidity-empirical", "rigidity-empirical-finite", "transvections",
        "transvections-flipped-sign", "t-a-witnesses", "t-a-witnesses-poly",
        "lemma-ke-minor-sign", "t-a-witnesses-minor-sign"])
def test_broken_emitter_is_one_reported_failure_per_trial(monkeypatch, suite, ring, params,
                                                          module, name, broken, expected):
    monkeypatch.setattr(module, name, broken)
    report = run_suite(suite, ring, dict(params, seed=1))
    assert report.verdict == "fail"
    assert len(report.failures) == report.trials > 1
    assert all(f["expected"] == expected and "IdentityViolation" in f["got"]
               for f in report.failures)
    assert report.samples == []


def _kernel_calls(ring, params):
    """How many trials of a passing transvections run reach kernel_basis:
    those whose constraint rows are not all zero."""
    calls = []
    real = rigidlin.suites.kernel_basis

    def counting(a):
        calls.append(a)
        return real(a)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rigidlin.suites, "kernel_basis", counting)
        assert run_suite("transvections", ring, dict(params)).verdict == "pass"
    return len(calls)


@pytest.mark.parametrize("ring, params, name, broken", [
    (Z, {"ns": [2, 3], "trials": 8, "seed": 1}, "_echelon", _no_pivots),
    (IntegerPolynomials(), {"ns": [2, 3], "trials": 8, "seed": 3}, "_minor",
     _minor_negated_off_column_zero),
], ids=["no-pivots", "minor-sign"])
def test_failing_isotropic_pool_is_one_reported_failure_per_trial(monkeypatch, ring, params,
                                                                  name, broken):
    # the pool's kernel used to be built outside the checker, so its
    # IdentityViolation escaped run_suite and no report was written
    reached = _kernel_calls(ring, params)
    monkeypatch.setattr(rigidlin.normal_forms, name, broken)
    report = run_suite("transvections", ring, dict(params))
    assert report.verdict == "fail"
    assert 0 < len(report.failures) <= reached < report.trials
    if name == "_echelon":  # no pivots break every kernel, a flipped minor sign only some
        assert len(report.failures) == reached
    assert all(f["expected"] == "isotropic pool" and "IdentityViolation" in f["got"]
               for f in report.failures)


@pytest.mark.parametrize("suite, params", [
    ("abelian-s", {"ns": 2}),
    ("abelian-s", {"ns": (2, 3)}),
    ("lemma-ke", {"n": True}),
    ("lemma-ke", {"trials": 2.0}),
    ("t-a-witnesses", {"configs": "symplectic"}),
    ("ring-axioms", {"seed": "1"}),
], ids=["int-for-list", "tuple-for-list", "bool-for-int", "float-for-int", "str-for-list",
        "str-seed"])
def test_parameters_must_have_their_default_type(suite, params):
    with pytest.raises(ValueError, match="must be"):
        run_suite(suite, Z, params)


@pytest.mark.parametrize("suite, params", [
    ("transvections", {"ns": [2, 2]}),
    ("abelian-s", {"ns": [2, 3, 2]}),
    ("forms-generators", {"ns": [3, 3]}),
    ("t-a-witnesses", {"configs": [["symplectic", 2], ["symplectic", 2]]}),
], ids=["transvections", "abelian-s", "forms-generators", "t-a-witnesses"])
def test_list_parameters_refuse_repeated_entries(suite, params):
    # a repeated entry would run its trials, and repeat its samples, twice
    with pytest.raises(ValueError, match="repeats the entry"):
        run_suite(suite, Z, params)


@pytest.mark.parametrize("ring_text", ["Z", "Z/5", "Z/6", "Zi", "Fp[x]/5", "Z[x]"])
def test_configs_refuse_orthogonal_half_rank_two(monkeypatch, ring_text):
    # an alternating 2x2 block with A y = 0 for y != 0 is zero over a domain,
    # so the witness count would fail trials that the library gets right
    def no_trial(*args):
        raise AssertionError("a trial started")

    monkeypatch.setattr(rigidlin.suites, "_rng", no_trial)
    with pytest.raises(ValueError, match="alternating 2x2 block has one parameter"):
        run_suite("t-a-witnesses", ring_from_text(ring_text),
                  {"configs": [["symplectic", 2], ["orthogonal", 2]]})


def test_configs_of_one_half_rank_and_both_kinds_are_distinct():
    params = {"configs": [["symplectic", 4], ["orthogonal", 4]], "trials": 1, "need": 3}
    assert run_suite("t-a-witnesses", Z, params).trials == 2


@pytest.mark.parametrize("suite", ["transvections", "t-a-witnesses"])
@pytest.mark.parametrize("seed", range(1, 7))
def test_kernel_suites_run_over_integer_polynomials(suite, seed):
    # whether a trial reaches kernel_basis depends on its draws; every
    # trial runs, over the minor generators where it does
    report = run_suite(suite, IntegerPolynomials(), {"trials": 2, "seed": seed})
    assert report.verdict == "pass" and report.trials >= 2


@pytest.mark.parametrize("kind", ["esp", "eo"])
def test_random_unitary_word_refuses_half_rank_one(kind):
    # in a child process with a timeout: at half-rank 1 the root draw used
    # to loop for ever
    code = ("import random; from rigidlin import Integers; "
            "from rigidlin.suites import random_unitary_word; "
            f"random_unitary_word(random.Random(1), Integers(), {kind!r}, 1, 6)")
    env = dict(os.environ)
    src = str(Path(rigidlin.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=20)
    assert run.returncode == 1
    assert "ValueError: random unitary words need half-rank n >= 2, got 1" in run.stderr


def test_different_seeds_change_sampled_content():
    a = run_suite("lemma-ke", Z, {"n": 3, "trials": 2, "need": 5, "seed": 1})
    b = run_suite("lemma-ke", Z, {"n": 3, "trials": 2, "need": 5, "seed": 2})
    assert a.samples != b.samples


def test_lemma_ke_samples_reverify():
    from rigidlin import parse_word, parse_matrix as pm

    report = run_suite("lemma-ke", Z, {"n": 3, "trials": 2, "need": 8, "seed": 5})
    assert report.verdict == "pass"
    sample = report.samples[0]
    conjugators = tuple(
        parse_word(Z, "en", 3, text).evaluate() for text in sample["conjugators"]
    )
    ctx = StabilizerContext(Z, 3, conjugators)
    e1 = unit_vector(Z, 3, 0)
    for text in sample["witnesses"]:
        witness = pm(Z, text)
        for g in ctx.conjugators:
            assert g.inverse().apply(witness.apply(g.apply(e1))) == e1


def test_snf_samples_reverify():
    report = run_suite("snf-oracle", Z, {"trials": 5, "seed": 6})
    for sample in report.samples:
        a = parse_matrix(Z, sample["matrix"])
        d = parse_matrix(Z, sample["d"])
        u = parse_matrix(Z, sample["u"])
        v = parse_matrix(Z, sample["v"])
        assert u @ a @ v == d


def test_abelian_suite_passes_and_documents_the_center():
    report = run_suite("abelian-s", Z, {"seed": 3})
    assert report.verdict == "pass"
    assert "nilpotent" in report.samples[0]["note"]


def test_forms_generators_suite():
    report = run_suite("forms-generators", Z, {"words": 15, "seed": 4})
    assert report.verdict == "pass"


def test_lemma_new_suite_small():
    report = run_suite("lemma-new", Z,
                       {"n": 3, "trials": 2, "need": 6, "conjugators": 4, "seed": 7})
    assert report.verdict == "pass"
    assert report.samples and "conjugate" in report.samples[0]


@pytest.mark.parametrize("trials, per_pair", [
    (1, {"symplectic:2": 1}),
    (7, {"symplectic:2": 2, "symplectic:4": 2, "orthogonal:2": 2, "orthogonal:4": 1}),
])
def test_transvections_runs_the_requested_trial_count(monkeypatch, trials, per_pair):
    started = []
    real = rigidlin.suites._rng

    def counting_rng(seed, label, t):
        started.append(label.removeprefix("transvections:"))
        return real(seed, label, t)

    monkeypatch.setattr(rigidlin.suites, "_rng", counting_rng)
    report = run_suite("transvections", Z, {"trials": trials, "seed": 5})
    assert report.verdict == "pass"
    assert report.trials == trials
    # four (kind, n) pairs; the first trials % 4 of them run one more trial
    assert collections.Counter(started) == per_pair


def test_t_a_suite_small():
    report = run_suite("t-a-witnesses", Z, {"trials": 2, "need": 8, "seed": 8})
    assert report.verdict == "pass"


def test_rigidity_integer_polynomials():
    report = run_suite("rigidity-empirical", IntegerPolynomials(),
                       {"trials": 10, "need": 15, "seed": 11})
    assert report.verdict == "pass"


def test_ring_from_text_integration():
    for text in ("Z", "Z/6", "Fp[x]/5", "Z[x]", "Zi"):
        report = run_suite("ring-axioms", ring_from_text(text), {"samples": 50, "seed": 1})
        assert report.verdict == "pass"
