"""Seeded verification suites and their machine-readable reports.

Every suite is deterministic given its parameters: a single seed is split
per trial (``Random(f"{seed}:{label}:{trial}")``, which hashes the string
with SHA-512, so the split is stable across platforms and runs).  A
report serializes to JSON with sorted keys; rerunning with the same seed
reproduces it byte for byte apart from the elapsed-time field.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field

from .errors import IdentityViolation, UnsupportedRingError
from .groups import (
    GeneratorWord,
    WordToken,
    elementary_matrix,
    embed_stabilize,
    form_matrix,
    format_word,
    preserves_form,
    sigma_index,
    unitary_generator,
)
from .matrix import (
    Matrix,
    format_matrix,
    format_vector,
    unit_vector,
    vec_is_zero,
)
from .normal_forms import (
    in_row_span,
    kernel_basis,
    principal_kernel_family,
    smith_normal_form,
    solution_stream,
)
from .rings import Integers, IntegerPolynomials, Modular, Ring
from .witnesses import (
    PreparedConjugator,
    StabilizerContext,
    block_unipotent_witnesses,
    conjugate_by_stabilizer,
    intersection_witnesses,
    transvection,
    transvection_short,
)


@dataclass
class WitnessReport:
    suite: str
    ring: str
    params: dict
    trials: int
    failures: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    elapsed_ms: float = 0.0
    verdict: str = "pass"

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "ring": self.ring,
            "params": self.params,
            "trials": self.trials,
            "failures": self.failures,
            "samples": self.samples,
            "elapsed_ms": self.elapsed_ms,
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def canonical_json(self) -> str:
        """Serialization with the timing field removed (for byte comparison)."""
        payload = self.to_dict()
        del payload["elapsed_ms"]
        return json.dumps(payload, sort_keys=True, indent=2)


def _rng(seed: int, label: str, trial: int) -> random.Random:
    return random.Random(f"{seed}:{label}:{trial}")


def _fail(failures: list, input_: str, expected: str, got: str):
    failures.append({"input": input_, "expected": expected, "got": got})


def _small_params(ring: Ring, bound: int = 3) -> list:
    """Nonzero elements with small literals, e.g. 1, -1, 2, -2, 3, -3 over Z."""
    pool = []
    for k in range(1, bound + 1):
        for text in (str(k), f"-{k}"):
            value = ring.parse(text)
            if value != ring.zero and value not in pool:
                pool.append(value)
    return pool


def random_elementary_word(rng: random.Random, ring: Ring, n: int, length: int,
                           pool: list | None = None) -> GeneratorWord:
    pool = _small_params(ring) if pool is None else pool
    tokens = []
    for _ in range(length):
        i = rng.randrange(1, n + 1)
        j = rng.randrange(1, n + 1)
        while j == i:
            j = rng.randrange(1, n + 1)
        tokens.append(WordToken("e", i, j, rng.choice(pool), rng.choice((1, -1))))
    return GeneratorWord(ring, "en", n, tuple(tokens))


def random_unitary_word(rng: random.Random, ring: Ring, kind: str, n: int, length: int,
                        pool: list | None = None) -> GeneratorWord:
    if n < 2:
        # at half-rank 1 every index j is i or sigma(i): no short root exists
        raise ValueError(f"random unitary words need half-rank n >= 2, got {n}")
    pool = _small_params(ring) if pool is None else pool
    size = 2 * n
    tokens = []
    for _ in range(length):
        if kind == "esp" and rng.random() < 0.25:
            tokens.append(WordToken("rl", rng.randrange(1, size + 1), None,
                                    rng.choice(pool), rng.choice((1, -1))))
            continue
        while True:
            i = rng.randrange(1, size + 1)
            j = rng.randrange(1, size + 1)
            if j != i and j != sigma_index(n, i):
                break
        tokens.append(WordToken("rs", i, j, rng.choice(pool), rng.choice((1, -1))))
    return GeneratorWord(ring, kind, n, tuple(tokens))


# -- suite implementations ---------------------------------------------------

def _suite_ring_axioms(ring: Ring, p: dict) -> dict:
    samples = p["samples"]
    pool = ring.take(100)
    failures: list = []
    kept = []
    rng = _rng(p["seed"], "ring-axioms", 0)
    for t in range(samples):
        a, b, c = (rng.choice(pool) for _ in range(3))
        triple = f"({ring.format(a)}, {ring.format(b)}, {ring.format(c)})"
        checks = (
            ("(a+b)+c == a+(b+c)",
             ring.add(ring.add(a, b), c), ring.add(a, ring.add(b, c))),
            ("a*b == b*a", ring.mul(a, b), ring.mul(b, a)),
            ("a*(b+c) == a*b + a*c",
             ring.mul(a, ring.add(b, c)), ring.add(ring.mul(a, b), ring.mul(a, c))),
            ("a*1 == a", ring.mul(a, ring.one), a),
            ("a+0 == a", ring.add(a, ring.zero), a),
        )
        for law, lhs, rhs in checks:
            if lhs != rhs:
                _fail(failures, f"{law} on {triple}", ring.format(rhs), ring.format(lhs))
        if t < 3:
            kept.append(triple)
    return {"trials": samples, "failures": failures, "samples": kept}


def _int_matrix(rng: random.Random, ring: Ring, rows: int, cols: int, bound: int) -> Matrix:
    return Matrix(ring, [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def _minor_gcd(a: Matrix, k: int) -> int:
    g = 0
    for rows in itertools.combinations(range(a.rows), k):
        for cols in itertools.combinations(range(a.cols), k):
            sub = Matrix(a.ring, [[a.entries[r][c] for c in cols] for r in rows])
            g = math.gcd(g, abs(sub.det_cofactor()))
    return g


def _suite_snf_oracle(ring: Ring, p: dict) -> dict:
    if not isinstance(ring, Integers):
        raise UnsupportedRingError("the Smith-form oracle suite runs over Z")
    failures: list = []
    kept = []
    for t in range(p["trials"]):
        rng = _rng(p["seed"], "snf-oracle", t)
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        a = _int_matrix(rng, ring, rows, cols, 9)
        d, u, v = smith_normal_form(a)
        label = format_matrix(a)
        if u @ a @ v != d:
            _fail(failures, label, "U*A*V == D", format_matrix(u @ a @ v))
            continue
        if u.det() not in (1, -1) or v.det() not in (1, -1):
            _fail(failures, label, "unimodular U, V", f"det(U)={u.det()}, det(V)={v.det()}")
        diag = [d.entries[i][i] for i in range(min(rows, cols))]
        for i in range(len(diag) - 1):
            ok = (diag[i + 1] == 0) if diag[i] == 0 else (diag[i + 1] % diag[i] == 0)
            if not ok:
                _fail(failures, label, "divisibility chain", str(diag))
        off_diag = [
            d.entries[i][j] for i in range(rows) for j in range(cols) if i != j
        ]
        if any(off_diag):
            _fail(failures, label, "diagonal D", format_matrix(d))
        product = 1
        for k in range(1, min(rows, cols) + 1):
            product *= abs(diag[k - 1])
            oracle = _minor_gcd(a, k)
            if product != oracle:
                _fail(failures, label, f"d1..d{k} == gcd of {k}x{k} minors ({oracle})", str(product))
        if t < 2:
            kept.append({"matrix": label, "d": format_matrix(d),
                         "u": format_matrix(u), "v": format_matrix(v)})
    return {"trials": p["trials"], "failures": failures, "samples": kept}


def _suite_kernel_oracle(ring: Ring, p: dict) -> dict:
    if not isinstance(ring, Integers):
        raise UnsupportedRingError("the kernel oracle suite runs over Z")
    box = p["box"]
    failures: list = []
    kept = []
    for t in range(p["trials"]):
        rng = _rng(p["seed"], "kernel-oracle", t)
        rows, cols = rng.randint(1, 2), rng.randint(1, 3)
        a = _int_matrix(rng, ring, rows, cols, 4)
        label = format_matrix(a)
        try:
            kernel = kernel_basis(a)
        except IdentityViolation as exc:
            _fail(failures, label, "A v == 0", repr(exc))
            continue
        grid = a.entries
        for point in itertools.product(range(-box, box + 1), repeat=cols):
            if all(sum(r * x for r, x in zip(row, point)) == 0 for row in grid):
                if any(point) and not in_row_span(ring, kernel.basis, point):
                    _fail(failures, label, "box kernel vector in span of basis", str(point))
        if t < 2:
            kept.append({"matrix": label,
                         "basis": [format_vector(ring, v) for v in kernel.basis]})
    return {"trials": p["trials"], "failures": failures, "samples": kept}


# Largest m**3 the finite branch of rigidity-empirical accepts: each trial
# enumerates all of (Z/m)^cols, with cols up to 3.
RIGIDITY_ENUMERATION_CAP = 8000


def _suite_rigidity(ring: Ring, p: dict) -> dict:
    failures: list = []
    kept = []
    if ring.is_finite:
        m = ring.cardinality
        if m ** 3 > RIGIDITY_ENUMERATION_CAP:
            raise ValueError(
                f"rigidity-empirical over {ring.descriptor} would enumerate up to {m ** 3} vectors "
                f"per trial; the cap is {RIGIDITY_ENUMERATION_CAP}")
        trials = p["finite_trials"]
        for t in range(trials):
            rng = _rng(p["seed"], "rigidity-finite", t)
            rows, cols = rng.randint(1, 2), rng.randint(2, 3)
            a = Matrix(ring, [[rng.randrange(m) for _ in range(cols)] for _ in range(rows)])
            label = format_matrix(a)
            space = list(itertools.product(range(m), repeat=cols))
            kernel_vectors = {v for v in space if vec_is_zero(ring, a.apply(v))}
            image = {a.apply(v) for v in space}
            if len(kernel_vectors) * len(image) != m ** cols:
                _fail(failures, label, f"|ker|*|im| == {m ** cols}",
                      f"{len(kernel_vectors)}*{len(image)}")
            try:
                streamed = list(solution_stream(a, m ** cols + 5))
            except IdentityViolation as exc:
                _fail(failures, label, "kernel membership", repr(exc))
                continue
            if set(streamed) != kernel_vectors - {tuple([0] * cols)}:
                _fail(failures, label, "stream == nonzero kernel", str(len(streamed)))
            if len(streamed) != len(set(streamed)):
                _fail(failures, label, "stream distinct", str(len(streamed)))
            if t < 3:
                kept.append({"matrix": label, "kernel_size": len(kernel_vectors),
                             "image_size": len(image)})
        return {"trials": trials, "failures": failures, "samples": kept,
                "extra": {"finite_ring": True}}

    trials, need = p["trials"], p["need"]
    pool = ring.take(40)
    use_family = isinstance(ring, IntegerPolynomials)
    for t in range(trials):
        rng = _rng(p["seed"], "rigidity-infinite", t)
        a, b = rng.choice(pool), rng.choice(pool)
        label = f"({ring.format(a)}, {ring.format(b)})"
        stream = (principal_kernel_family(ring, a, b, need) if use_family
                  else solution_stream(Matrix(ring, [[a, b]]), need))
        try:
            found = list(stream)
        except IdentityViolation as exc:
            _fail(failures, label, "kernel membership", repr(exc))
            continue
        if len(set(found)) < need:
            _fail(failures, label, f">= {need} distinct kernel elements", str(len(set(found))))
        if t < 2:
            kept.append({"map": label,
                         "kernel_sample": [format_vector(ring, v) for v in found[:3]]})
    return {"trials": trials, "failures": failures, "samples": kept,
            "extra": {"finite_ring": False}}


def _stabilizer_trials(ring: Ring, p: dict, failures: list):
    """Per trial, a deterministic context and its witnesses, shared by the
    intersection and conjugation suites (same seed => same witnesses).  A
    witness failing its identity is recorded and ends its trial."""
    n = p["n"]
    if n < 3:
        raise ValueError(f"the stabilizer suites need n >= 3, got {n}")
    params = _small_params(ring, p["param_bound"])
    for t in range(p["trials"]):
        rng = _rng(p["seed"], "lemma-ke", t)
        words = [random_elementary_word(rng, ring, n, rng.randint(1, p["word_length"]), params)
                 for _ in range(n - 2)]
        ctx = StabilizerContext(ring, n, tuple(w.evaluate() for w in words))
        label = " | ".join(format_word(w) for w in words)
        try:
            witnesses = list(itertools.islice(intersection_witnesses(ctx, p["need"]), p["need"]))
        except IdentityViolation as exc:
            _fail(failures, label, "verified intersection witnesses", repr(exc))
            continue
        yield t, words, label, ctx, witnesses


def _suite_intersection(ring: Ring, p: dict) -> dict:
    failures: list = []
    kept = []
    need = p["need"]
    for t, words, label, ctx, witnesses in _stabilizer_trials(ring, p, failures):
        if not ring.is_finite and len(witnesses) < need:
            _fail(failures, label, f"{need} witnesses", str(len(witnesses)))
        functionals = {w.functional for w in witnesses}
        if len(functionals) != len(witnesses):
            _fail(failures, label, "pairwise distinct witnesses", str(len(functionals)))
        if t == 0:
            kept.append({"conjugators": [format_word(w) for w in words],
                         "witnesses": [format_matrix(w.matrix) for w in witnesses[:3]]})
    return {"trials": p["trials"], "failures": failures, "samples": kept,
            "extra": {"conjugators_per_trial": p["n"] - 2}}


def _random_stabilizer_conjugator(rng: random.Random, ring: Ring, n: int,
                                  functionals: list, pool: list) -> Matrix:
    """A random (1, x; 0, A) fixing the context images: x annihilates them,
    and A is a product of unit-determinant shears I + w f with f in the
    annihilator and f(w) = 0.  Coefficients are drawn from pool, the ring's
    parsed small integers.  Each factor is a rank-one update of the rows
    of A: row -> row + (row . w) psi."""
    dim = n - 1

    def combo():
        out = [ring.zero] * dim
        for f in functionals:
            c = rng.choice(pool)
            if c != ring.zero:
                out = ring.axpy(out, ring.neg(c), f)
        return tuple(out)

    x_part = combo()
    block = Matrix.identity(ring, dim).entries
    for _ in range(rng.randint(0, 2)):
        psi = combo()
        if all(c == ring.zero for c in psi):
            continue
        w_kernel = kernel_basis(Matrix(ring, [list(psi)]))
        if not w_kernel.basis:
            continue
        w = [ring.zero] * dim
        for gen in w_kernel.basis:
            c = rng.choice(pool)
            if c != ring.zero:
                w = ring.axpy(w, ring.neg(c), gen)
        block = [ring.axpy(row, ring.neg(d), psi) for row, d in zip(block, ring.dots(w, block))]
    top = (ring.one,) + x_part
    return Matrix._raw(ring, (top,) + tuple((ring.zero,) + tuple(row) for row in block))


def _suite_conjugation(ring: Ring, p: dict) -> dict:
    n = p["n"]
    pool = [ring.parse(str(c)) for c in (-2, -1, 0, 1, 2)]
    failures: list = []
    kept = []
    for t, _, label, ctx, witnesses in _stabilizer_trials(ring, p, failures):
        rng = _rng(p["seed"], "lemma-new", t)
        functionals = [w.functional for w in witnesses[:3]]
        for _ in range(p["conjugators"]):
            q = _random_stabilizer_conjugator(rng, ring, n, functionals, pool)
            try:
                prepared = PreparedConjugator(ctx, q)
                results = list(conjugate_by_stabilizer(witnesses, prepared))
            except (ValueError, IdentityViolation) as exc:
                _fail(failures, f"{label} ; q={format_matrix(q)}",
                      "closed under conjugation", repr(exc))
                continue
            if t == 0 and not kept and results:
                kept.append({"witness": format_matrix(witnesses[0].matrix),
                             "conjugator": format_matrix(q),
                             "conjugate": format_matrix(results[0].matrix)})
    return {"trials": p["trials"], "failures": failures, "samples": kept}


def _suite_forms_generators(ring: Ring, p: dict) -> dict:
    failures: list = []
    kept = []
    params = [ring.parse(str(v)) for v in (1, -1, 2)]
    checks = 0
    for n in p["ns"]:
        size = 2 * n
        symplectic = form_matrix(ring, n, "symplectic")
        orthogonal = form_matrix(ring, n, "orthogonal")
        for a in params:
            for i in range(1, size + 1):
                si = sigma_index(n, i)
                long_root = unitary_generator(ring, n, -1, i, si, a)
                checks += 1
                if not preserves_form(long_root, symplectic):
                    _fail(failures, f"n={n} long({i},{ring.format(a)})",
                          "preserves symplectic form", format_matrix(long_root))
                # the same one-position matrix must fail the orthogonal form
                # whenever 2a is nonzero
                if ring.add(a, a) != ring.zero:
                    checks += 1
                    if preserves_form(long_root, orthogonal):
                        _fail(failures, f"n={n} long({i},{ring.format(a)})",
                              "fails orthogonal form", format_matrix(long_root))
                for j in range(1, size + 1):
                    if j in (i, si):
                        continue
                    for eps, form in ((-1, symplectic), (1, orthogonal)):
                        gen = unitary_generator(ring, n, eps, i, j, a)
                        checks += 1
                        if not preserves_form(gen, form):
                            _fail(failures, f"n={n} eps={eps} rho({i},{j},{ring.format(a)})",
                                  "preserves form", format_matrix(gen))
                        # mirror identity: rho_ij(a) == rho_{sj,si}(-a')
                        sj = sigma_index(n, j)
                        mirrored = gen.entries[sj - 1][si - 1]  # equals -a'
                        twin = unitary_generator(ring, n, eps, sj, si, mirrored)
                        checks += 1
                        if twin != gen:
                            _fail(failures, f"n={n} eps={eps} rho({i},{j})",
                                  "mirror identity", format_matrix(twin))
        # additivity of parameters along a fixed root
        rng = _rng(p["seed"], "forms-generators", n)
        for _ in range(20):
            a, b = rng.choice(params), rng.choice(params)
            i = rng.randrange(1, size + 1)
            j = rng.randrange(1, size + 1)
            while j in (i, sigma_index(n, i)):
                j = rng.randrange(1, size + 1)
            eps = rng.choice((-1, 1))
            lhs = unitary_generator(ring, n, eps, i, j, a) @ unitary_generator(ring, n, eps, i, j, b)
            rhs = unitary_generator(ring, n, eps, i, j, ring.add(a, b))
            checks += 1
            if lhs != rhs:
                _fail(failures, f"n={n} eps={eps} rho({i},{j}) additivity",
                      format_matrix(rhs), format_matrix(lhs))
            ii = rng.randrange(1, n + 1)
            jj = rng.randrange(1, n + 1)
            while jj == ii:
                jj = rng.randrange(1, n + 1)
            lhs = elementary_matrix(ring, n, ii, jj, a) @ elementary_matrix(ring, n, ii, jj, b)
            checks += 1
            if lhs != elementary_matrix(ring, n, ii, jj, ring.add(a, b)):
                _fail(failures, f"n={n} e({ii},{jj}) additivity", "e(a+b)", format_matrix(lhs))
    for n in range(1, 9):
        for k in range(1, 2 * n + 1):
            checks += 1
            if sigma_index(n, sigma_index(n, k)) != k:
                _fail(failures, f"sigma involution n={n} k={k}", str(k),
                      str(sigma_index(n, sigma_index(n, k))))
    # determinant-one and inverse identities on random words
    rng = _rng(p["seed"], "forms-generators-words", 0)
    pool = _small_params(ring)
    for t in range(p["words"]):
        kind = rng.choice(("en", "esp", "eo"))
        n = rng.choice((2, 3))
        length = rng.randint(1, 8)
        if kind == "en":
            word = random_elementary_word(rng, ring, n + 1, length, pool)
        else:
            word = random_unitary_word(rng, ring, kind, n, length, pool)
        m = word.evaluate()
        checks += 1
        if m.det() != ring.one:  # every generator is unipotent
            _fail(failures, format_word(word), "det == 1", ring.format(m.det()))
        checks += 1
        if not (m @ word.inverse().evaluate()).is_identity():
            _fail(failures, format_word(word), "word * word^-1 == I", format_matrix(m))
    # stabilization embedding respects the symplectic form
    rng = _rng(p["seed"], "forms-generators-embed", 0)
    for _ in range(10):
        word = random_unitary_word(rng, ring, "esp", 2, rng.randint(1, 5), pool)
        m = word.evaluate()
        bigger = embed_stabilize(m)
        checks += 1
        if not preserves_form(bigger, form_matrix(ring, 3, "symplectic")):
            _fail(failures, format_word(word), "embedding preserves the form",
                  format_matrix(bigger))
    kept.append({"checked": checks})
    return {"trials": checks, "failures": failures, "samples": kept}


def _isotropic_pool(ctx: StabilizerContext) -> list:
    """Basis of the intersection of the totally isotropic first-block span
    with the complement of the constraint vectors."""
    form = ctx.form
    ring = ctx.ring
    n = form.n
    # condition on the first block only
    rows = [form.covector(w)[:n] for w in ctx.constraint_vectors]
    if all(vec_is_zero(ring, row) for row in rows):
        heads = [unit_vector(ring, n, i) for i in range(n)]
    else:
        heads = list(kernel_basis(Matrix(ring, rows)).basis)
    zero_tail = tuple(ring.zero for _ in range(n))
    return [tuple(h) + zero_tail for h in heads]


def _combine(rng: random.Random, ring: Ring, vectors: list, size: int, coeffs: list) -> tuple:
    out = tuple(ring.zero for _ in range(size))
    for v in vectors:
        if rng.random() < 0.5:
            c = rng.choice(coeffs)
            out = ring.axpy(out, ring.neg(c), v)
    return tuple(out)


def _require_kernels(ring: Ring, suite: str):
    """Refuse, before any trial, a ring on which a suite could reach
    ``kernel_basis``: whether a trial does depends on its draws."""
    if not (ring.is_euclidean or isinstance(ring, Modular)):
        raise UnsupportedRingError(f"{suite} needs kernels: "
                                   f"no kernel computation over {ring.descriptor}")


def _suite_transvections(ring: Ring, p: dict) -> dict:
    _require_kernels(ring, "transvections")
    failures: list = []
    kept = []
    combos = [(kind, n) for kind in ("symplectic", "orthogonal") for n in p["ns"]]
    params = _small_params(ring)
    coeffs = [ring.parse(str(c)) for c in (-2, -1, 1, 2)]
    # exactly p["trials"] trials: the first pairs take the remainder
    per_combo, extra = divmod(p["trials"], len(combos))
    for index, (kind, n) in enumerate(combos):
        form = form_matrix(ring, n, kind)
        word_kind = "esp" if kind == "symplectic" else "eo"
        for t in range(per_combo + (index < extra)):
            rng = _rng(p["seed"], f"transvections:{kind}:{n}", t)
            k = rng.randint(0, min(2, n - 1))
            conjugators = tuple(
                random_unitary_word(rng, ring, word_kind, n, rng.randint(1, 4), params).evaluate()
                for _ in range(k)
            )
            ctx = StabilizerContext(ring, 2 * n, conjugators, form)
            pool = _isotropic_pool(ctx)
            label = f"{kind} n={n} k={k}"
            if not pool:
                continue
            u = _combine(rng, ring, pool, 2 * n, coeffs)
            v = _combine(rng, ring, pool, 2 * n, coeffs)
            r = rng.choice(params)
            g_word = random_unitary_word(rng, ring, word_kind, n, rng.randint(1, 4), params)
            u2 = _combine(rng, ring, pool, 2 * n, coeffs)
            v2 = _combine(rng, ring, pool, 2 * n, coeffs)
            g = g_word.evaluate()
            # every transvection checks its own form preservation
            try:
                tau = transvection(form, u, v)
                short = transvection_short(form, v, r)
                rhs = transvection(form, g.apply(u), g.apply(v))
                center = transvection(form, u2, v2)
                center_inv = transvection(form, u2, tuple(ring.neg(c) for c in v2))
            except IdentityViolation as exc:
                _fail(failures, label, "form preservation", repr(exc))
                continue
            if kind == "orthogonal" and not short.is_identity():
                _fail(failures, label, "identity on the orthogonal side", format_matrix(short))
            moved = [w for w in ctx.constraint_vectors if tau.apply(w) != w or short.apply(w) != w]
            if moved:
                _fail(failures, label, "fixes constraint vectors", format_vector(ring, moved[0]))
            # conjugation equivariance under a random form-preserving word
            lhs = g @ tau @ g_word.inverse().evaluate()
            if lhs != rhs:
                _fail(failures, label, "g tau g^-1 == tau(gu, gv)", format_matrix(lhs))
            # pairs fixed by a transvection commute with it exactly
            if center @ tau @ center_inv != tau:
                _fail(failures, label, "central conjugate equals tau", format_matrix(tau))
            if t == 0:
                kept.append({"context": label, "u": format_vector(ring, u),
                             "v": format_vector(ring, v), "tau": format_matrix(tau)})
    return {"trials": p["trials"], "failures": failures, "samples": kept}


def _suite_block_witnesses(ring: Ring, p: dict) -> dict:
    _require_kernels(ring, "t-a-witnesses")
    failures: list = []
    kept = []
    need = p["need"]
    trials = 0
    params = _small_params(ring)
    for kind, n in p["configs"]:
        form = form_matrix(ring, n, kind)
        word_kind = "esp" if kind == "symplectic" else "eo"
        for t in range(p["trials"]):
            trials += 1
            rng = _rng(p["seed"], f"t-a:{kind}:{n}", t)
            g_word = random_unitary_word(rng, ring, word_kind, n, rng.randint(1, p["word_length"]),
                                         params)
            g = g_word.evaluate()
            label = f"{kind} n={n} g={format_word(g_word)}"
            try:
                found = list(itertools.islice(block_unipotent_witnesses(form, g, need), need))
            except IdentityViolation as exc:
                _fail(failures, label, "fixes g e1 and preserves the form", repr(exc))
                continue
            if not ring.is_finite and len(found) < need:
                _fail(failures, label, f"{need} block witnesses", str(len(found)))
            blocks = {w.block for w in found}
            if len(blocks) != len(found):
                _fail(failures, label, "pairwise distinct", str(len(blocks)))
            if t == 0 and found:
                kept.append({"g": format_word(g_word), "witness": format_matrix(found[0].matrix)})
    return {"trials": trials, "failures": failures, "samples": kept}


def _suite_abelian(ring: Ring, p: dict) -> dict:
    failures: list = []
    kept = []
    params = [ring.parse(str(v)) for v in (1, -1, 2)]
    checks = 0
    for n in p["ns"]:
        # row group inside the linear group: pairwise commuting
        gens = [elementary_matrix(ring, n, 1, j, a) for j in range(2, n + 1) for a in params]
        for g1, g2 in itertools.combinations(gens, 2):
            checks += 1
            if g1 @ g2 != g2 @ g1:
                _fail(failures, f"linear n={n}", "commuting row generators",
                      format_matrix(g1 @ g2))
        size = 2 * n
        s1 = sigma_index(n, 1)
        # orthogonal side: the row generators commute
        ortho = [unitary_generator(ring, n, 1, 1, i, a)
                 for i in range(2, size + 1) if i != s1 for a in params]
        for g1, g2 in itertools.combinations(ortho, 2):
            checks += 1
            if g1 @ g2 != g2 @ g1:
                _fail(failures, f"orthogonal n={n}", "commuting row generators",
                      format_matrix(g1 @ g2))
        # symplectic side: two-step nilpotent, not abelian.  Mirror-index
        # pairs commute only up to a central long root with doubled product:
        # rho_1i(a) rho_1{si}(b) == rho_1{si}(b) rho_1i(a) rho_1{s1}(2ab).
        for i in range(2, size + 1):
            if i == s1:
                continue
            si = sigma_index(n, i)
            if si == s1 or si <= i:
                continue
            for a in params:
                for b in params:
                    lhs = unitary_generator(ring, n, -1, 1, i, a) @ unitary_generator(
                        ring, n, -1, 1, si, b)
                    correction = unitary_generator(
                        ring, n, -1, 1, s1, ring.add(ring.mul(a, b), ring.mul(a, b)))
                    rhs = unitary_generator(ring, n, -1, 1, si, b) @ unitary_generator(
                        ring, n, -1, 1, i, a) @ correction
                    checks += 1
                    if lhs != rhs:
                        _fail(failures, f"symplectic n={n} pair (1,{i}),(1,{si})",
                              "commutator equals the central long root", format_matrix(lhs))
        # long roots are central among the symplectic row generators
        for a in params:
            central = unitary_generator(ring, n, -1, 1, s1, a)
            others = [unitary_generator(ring, n, -1, 1, i, params[0])
                      for i in range(2, size + 1) if i != s1]
            for g in others:
                checks += 1
                if central @ g != g @ central:
                    _fail(failures, f"symplectic n={n} long root", "central",
                          format_matrix(central @ g))
        # non-mirror symplectic pairs commute outright
        for i in range(2, size + 1):
            if i == s1:
                continue
            for j in range(i + 1, size + 1):
                if j in (s1, sigma_index(n, i)):
                    continue
                g1 = unitary_generator(ring, n, -1, 1, i, params[0])
                g2 = unitary_generator(ring, n, -1, 1, j, params[1])
                checks += 1
                if g1 @ g2 != g2 @ g1:
                    _fail(failures, f"symplectic n={n} pair (1,{i}),(1,{j})",
                          "commuting", format_matrix(g1 @ g2))
    kept.append({"checked": checks,
                 "note": "symplectic row group is two-step nilpotent; its mirror-pair "
                         "commutators are the central long roots"})
    return {"trials": checks, "failures": failures, "samples": kept}


# Each suite's runner and default parameters; the defaults also fix which
# parameters it takes and their types.
_SUITES = {
    "ring-axioms": (_suite_ring_axioms, {"samples": 1000}),
    "snf-oracle": (_suite_snf_oracle, {"trials": 200}),
    "kernel-oracle": (_suite_kernel_oracle, {"trials": 500, "box": 6}),
    "rigidity-empirical": (_suite_rigidity, {"trials": 200, "need": 50, "finite_trials": 40}),
    "lemma-ke": (_suite_intersection,
                 {"n": 3, "trials": 20, "need": 50, "word_length": 6, "param_bound": 3}),
    "lemma-new": (_suite_conjugation,
                  {"n": 3, "trials": 20, "need": 50, "word_length": 6, "param_bound": 3,
                   "conjugators": 10}),
    "forms-generators": (_suite_forms_generators, {"ns": [2, 3], "words": 100}),
    "transvections": (_suite_transvections, {"ns": [2, 4], "trials": 100}),
    "t-a-witnesses": (_suite_block_witnesses,
                      {"configs": [["symplectic", 2], ["orthogonal", 4]],
                       "trials": 20, "need": 50, "word_length": 6}),
    "abelian-s": (_suite_abelian, {"ns": [2, 3, 4]}),
}

SUITE_IDS = tuple(_SUITES)


def _is_half_rank(value) -> bool:
    # at 1 there is no short root, so random_unitary_word refuses it, and
    # abelian-s would have no generators to check
    return type(value) is int and value >= 2


def _check_list(suite_id: str, key: str, value: list):
    """Refuse an empty list (a vacuous pass) and malformed entries."""
    if not value:
        raise ValueError(f"{suite_id} parameter {key} must not be empty")
    for entry in value:
        if key == "configs":
            ok = (type(entry) is list and len(entry) == 2
                  and entry[0] in ("symplectic", "orthogonal") and _is_half_rank(entry[1]))
            want = '[kind, half-rank], kind "symplectic" or "orthogonal", half-rank an int >= 2'
        else:
            ok = _is_half_rank(entry)
            want = "an int >= 2"
        if not ok:
            raise ValueError(f"{suite_id} parameter {key}: each entry must be {want}, "
                             f"got {entry!r}")


def run_suite(suite_id: str, ring: Ring, params: dict | None = None) -> WitnessReport:
    """Run a verification suite; deterministic given params (seed included)."""
    if suite_id not in _SUITES:
        raise ValueError(f"unknown suite {suite_id!r}; known: {', '.join(SUITE_IDS)}")
    runner, defaults = _SUITES[suite_id]
    resolved = dict(defaults)
    resolved["seed"] = 0
    params = params or {}
    unknown = sorted(set(params) - set(resolved))
    if unknown:
        raise ValueError(f"{suite_id} takes no parameter {', '.join(unknown)}; "
                         f"it takes {', '.join(sorted(resolved))}")
    for key, value in params.items():
        expected = type(resolved[key])
        if type(value) is not expected:
            raise ValueError(f"{suite_id} parameter {key} must be {expected.__name__}, "
                             f"got {value!r}")
        if expected is int and key != "seed" and value < 1:
            raise ValueError(f"{key} must be at least 1, got {value}")
        if expected is list:
            _check_list(suite_id, key, value)
    resolved.update(params)
    start = time.perf_counter()
    outcome = runner(ring, resolved)
    elapsed = (time.perf_counter() - start) * 1000.0
    recorded = dict(resolved)
    recorded.update(outcome.get("extra", {}))
    failures = sorted(outcome["failures"], key=lambda f: json.dumps(f, sort_keys=True))
    return WitnessReport(
        suite=suite_id,
        ring=ring.descriptor,
        params=recorded,
        trials=outcome["trials"],
        failures=failures,
        samples=outcome["samples"],
        elapsed_ms=round(elapsed, 3),
        verdict="pass" if not failures else "fail",
    )
