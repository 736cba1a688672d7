"""The benchmark's workloads: seeded inputs, the timed calls, their checks.

``generate`` makes a workload's inputs from the seed as plain data, once
and outside any timing.  ``build`` turns them into library objects with a
freshly imported rigidlin and returns the operations of one round; this
is the set-up that ``setup_s`` times.  Every suite parameter is passed
explicitly, so a change to the library's defaults cannot change a
workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import check

Z = check.IntegerOps()
F5 = check.PolynomialOps(5)
CHECK_OPS = {"stabilizer-z": Z, "poly-fp5": F5, "lattice-z": Z}

# What each of a workload's two phases completes, so that the traced run
# can turn the phase's time into a rate.
PHASES = {
    "stabilizer-z": {"a": "witnesses", "b": "witnesses"},  # lemma-ke, lemma-new
    "poly-fp5": {"a": "witnesses", "b": "normal_forms"},  # suites, normal forms
    "lattice-z": {"a": "normal_forms", "b": "solutions"},  # normal forms, streams
}

SIZES = {
    "full": {
        "stabilizer-z": {"ns": (3, 4, 5), "trials": 20, "need": 50, "conjugators": 10},
        "poly-fp5": {
            "lemma-new": {"n": 3, "trials": 10, "need": 50, "word_length": 6,
                          "param_bound": 3, "conjugators": 10},
            "t-a-witnesses": {"configs": [["symplectic", 2], ["orthogonal", 4]],
                              "trials": 10, "need": 50, "word_length": 6},
            "transvections": {"ns": [2, 4], "trials": 40},
            "forms-generators": {"ns": [2, 3], "words": 100},
            "square": (8, 10, 12, 14), "wide": (8, 10, 12, 14), "degree": 2,
        },
        "lattice-z": {"square": (8, 12, 16, 20, 24, 28, 32), "per_size": 2,
                      "inverse_upto": 16, "wide": (8, 16, 24, 32), "count": 200},
    },
    "tiny": {
        "stabilizer-z": {"ns": (3,), "trials": 2, "need": 5, "conjugators": 2},
        "poly-fp5": {
            "lemma-new": {"n": 3, "trials": 1, "need": 5, "word_length": 6,
                          "param_bound": 3, "conjugators": 2},
            "t-a-witnesses": {"configs": [["symplectic", 2], ["orthogonal", 4]],
                              "trials": 1, "need": 5, "word_length": 6},
            "transvections": {"ns": [2, 4], "trials": 4},
            "forms-generators": {"ns": [2], "words": 4},
            "square": (3, 4), "wide": (3,), "degree": 2,
        },
        "lattice-z": {"square": (3, 5), "per_size": 1, "inverse_upto": 5,
                      "wide": (3,), "count": 10},
    },
}


@dataclass
class Op:
    """One timed call.  ``call`` runs inside the timing and returns the
    library's output; ``plain`` turns it into comparable plain data and
    ``check`` lists what is wrong with that data, both outside it."""

    phase: str
    kind: str  # suite, hnf, snf, kernel, det, inverse or stream
    label: str
    call: Callable
    plain: Callable
    check: Callable


def generate(workload: str, size: str, seed: int) -> dict:
    """Plain inputs from the seed (same seed, same inputs)."""
    spec = SIZES[size][workload]
    rng = random.Random(f"rigidlin-bench:{workload}:{seed}")
    if workload == "stabilizer-z":
        return {"spec": spec, "seed": seed}
    if workload == "poly-fp5":
        def entry():
            return F5._strip([rng.randrange(5) for _ in range(spec["degree"] + 1)])
        square = [_nonsingular(F5, n, entry) for n in spec["square"]]
        wide = [tuple(tuple(entry() for _ in range(n + 3)) for _ in range(n)) for n in spec["wide"]]
        return {"spec": spec, "seed": seed, "square": square, "wide": wide}
    def entry():
        return rng.randint(-9, 9)
    square = [_nonsingular(Z, n, entry) for n in spec["square"] for _ in range(spec["per_size"])]
    wide = [tuple(tuple(entry() for _ in range(n + 4)) for _ in range(n)) for n in spec["wide"]]
    return {"spec": spec, "seed": seed, "square": square, "wide": wide}


def _nonsingular(ops, n, entry):
    """A random n x n matrix with nonzero determinant, and that determinant.

    Unimodularity of the transforms is checked through det(A), which
    needs det(A) != 0; singular draws are redrawn."""
    while True:
        a = tuple(tuple(entry() for _ in range(n)) for _ in range(n))
        d = check.det(ops, a)
        if d != ops.zero:
            return a, d


def build(workload: str, rl, inputs: dict) -> list[Op]:
    """The operations of one round, built with the imported package ``rl``."""
    return {"stabilizer-z": _stabilizer_z, "poly-fp5": _poly_fp5,
            "lattice-z": _lattice_z}[workload](rl, inputs)


def _report(report):
    data = report.to_dict()
    del data["elapsed_ms"]
    return data


def _suite_op(rl, phase, ring, ops, suite, params):
    if suite == "t-a-witnesses":
        expected_trials = params["trials"] * len(params["configs"])
    else:
        expected_trials = params.get("trials")  # forms-generators counts its checks
    label = suite + (f" n={params['n']}" if "n" in params else "")
    return Op(phase, "suite", label, lambda: rl.run_suite(suite, ring, params), _report,
              lambda r: check.check_report(ops, r, suite, params, expected_trials))


def _stabilizer_z(rl, inputs):
    spec, seed = inputs["spec"], inputs["seed"]
    ring = rl.Integers()
    ops = []
    for phase, suite in (("a", "lemma-ke"), ("b", "lemma-new")):
        for n in spec["ns"]:
            params = {"n": n, "trials": spec["trials"], "need": spec["need"],
                      "word_length": 6, "param_bound": 3, "seed": seed}
            if suite == "lemma-new":
                params["conjugators"] = spec["conjugators"]
            ops.append(_suite_op(rl, phase, ring, Z, suite, params))
    return ops


def _poly_fp5(rl, inputs):
    spec, seed = inputs["spec"], inputs["seed"]
    ring = rl.PrimeFieldPolynomials(5)
    ops = []
    for suite in ("lemma-new", "t-a-witnesses", "transvections", "forms-generators"):
        ops.append(_suite_op(rl, "a", ring, F5, suite, dict(spec[suite], seed=seed)))
    ops += _normal_form_ops(rl, "b", ring, F5, inputs["square"], with_det=False)
    for rows in inputs["wide"]:
        a = rl.Matrix(ring, rows)
        ops.append(Op("b", "kernel", f"kernel {len(rows)}x{len(rows[0])}",
                      lambda a=a: rl.kernel_basis(a), lambda k: k.basis,
                      lambda basis, rows=rows: check.check_kernel(F5, rows, basis)))
    return ops


def _lattice_z(rl, inputs):
    spec = inputs["spec"]
    ring = rl.Integers()
    ops = _normal_form_ops(rl, "a", ring, Z, inputs["square"], with_det=True,
                           inverse_upto=spec["inverse_upto"])
    count = spec["count"]
    for rows in inputs["wide"]:
        a = rl.Matrix(ring, rows)
        ops.append(Op("b", "stream", f"stream {len(rows)}x{len(rows[0])}",
                      lambda a=a: list(rl.solution_stream(a, count)), tuple,
                      lambda vecs, rows=rows: check.check_stream(Z, rows, vecs, count)))
    return ops


def _normal_form_ops(rl, phase, ring, ops, square, with_det, inverse_upto=0):
    """HNF and SNF (and det) of each square input, and the adjugate inverse
    of the HNF transform of the first input of each size up to inverse_upto.
    Methods are looked up at call time, so that the traced run sees them."""
    out = []
    inverted = set()
    for index, (rows, det_a) in enumerate(square):
        n = len(rows)
        a = rl.Matrix(ring, rows)
        tag = f"{n}x{n} #{index}"
        out.append(Op(phase, "hnf", f"hnf {tag}", lambda a=a: rl.hermite_normal_form(a),
                      lambda r: (r[0].entries, r[1].entries),
                      lambda r, rows=rows, d=det_a: check.check_hnf(ops, rows, r[0], r[1], d)))
        out.append(Op(phase, "snf", f"snf {tag}", lambda a=a: rl.smith_normal_form(a),
                      lambda r: tuple(m.entries for m in r),
                      lambda r, rows=rows, d=det_a: check.check_snf(ops, rows, *r, d)))
        if with_det:
            out.append(Op(phase, "det", f"det {tag}", lambda a=a: a.det(), lambda d: d,
                          lambda d, ref=det_a: check.check_det(d, ref)))
        if n <= inverse_upto and n not in inverted:
            inverted.add(n)
            # the transform is an input here, so it is computed in set-up
            u = rl.hermite_normal_form(a)[1]
            out.append(Op(phase, "inverse", f"inverse {tag}", lambda u=u: u.inverse(),
                          lambda m: m.entries,
                          lambda inv, u=u.entries: check.check_inverse(ops, u, inv)))
    return out
