"""Property tests of the Hermite, Smith and kernel contracts over Z and
Fp[x]/5, on matrices of up to 5 x 6 with small entries, of the kernel
contract over Z[x], on matrices of up to 3 x 4 with entries of degree at
most 2, and of the packed A v = 0 check over Z against ``Matrix.apply``,
on matrices of up to 6 x 8 with entries up to 2^130, of Fp[x] axpy
against schoolbook for p <= 13, where it packs byte slots, and of
``conjugate_module`` against the dense conjugates of witnesses over Z,
Z/7, Zi and Fp[x]/5, on stabilizer contexts of size 3 to 5.  The examples
are derandomized and their number is fixed, so every run checks the same
inputs; a failure is shrunk and prints the input it drew."""

import itertools
import random

import pytest

from rigidlin import (
    GaussianIntegers,
    IntegerPolynomials,
    Integers,
    Matrix,
    Modular,
    PrimeFieldPolynomials,
    ShearWitness,
    StabilizerContext,
    conjugate_module,
    hermite_normal_form,
    in_row_span,
    intersection_witnesses,
    kernel_basis,
    smith_normal_form,
    solution_stream,
)
from rigidlin.matrix import vec_is_zero
from rigidlin.normal_forms import _annihilator, combination_stream
from rigidlin.suites import _random_stabilizer_conjugator, random_elementary_word

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

Z = Integers()
F5 = PrimeFieldPolynomials(5)


def _polynomial(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return tuple(coeffs)


ENTRIES = {
    "Z": (Z, st.integers(-9, 9)),
    "Fp[x]/5": (F5, st.lists(st.integers(0, 4), max_size=3).map(_polynomial)),  # degree <= 2
}

RINGS = pytest.mark.parametrize("ring_text", sorted(ENTRIES))

CONTRACT = settings(max_examples=100, derandomize=True, database=None, deadline=None)


def _draw_matrix(data, ring_text):
    ring, entries = ENTRIES[ring_text]
    rows = data.draw(st.integers(1, 5), label="rows")
    cols = data.draw(st.integers(1, 6), label="cols")
    row = st.lists(entries, min_size=cols, max_size=cols)
    return Matrix(ring, data.draw(st.lists(row, min_size=rows, max_size=rows), label="A"))


def _leading(ring, row):
    return next((j for j, x in enumerate(row) if x != ring.zero), None)


@RINGS
@CONTRACT
@given(data=st.data())
def test_hnf_contract(ring_text, data):
    a = _draw_matrix(data, ring_text)
    ring = a.ring
    h, u = hermite_normal_form(a)
    assert u @ a == h
    assert ring.is_unit(u.det())
    leads = [_leading(ring, h.row(i)) for i in range(h.rows)]
    pivots = [(i, c) for i, c in enumerate(leads) if c is not None]
    assert [i for i, _ in pivots] == list(range(len(pivots)))  # zero rows last
    assert all(c < d for (_, c), (_, d) in zip(pivots, pivots[1:]))  # echelon
    for r, c in pivots:
        pivot = h.entries[r][c]
        assert ring.canonical_unit(pivot) == ring.one
        for i in range(r):  # reduced: divmod by the pivot leaves the entry as it is
            assert ring.divmod(h.entries[i][c], pivot)[0] == ring.zero


@RINGS
@CONTRACT
@given(data=st.data())
def test_snf_contract(ring_text, data):
    a = _draw_matrix(data, ring_text)
    ring = a.ring
    d, u, v = smith_normal_form(a)
    assert u @ a @ v == d
    assert ring.is_unit(u.det()) and ring.is_unit(v.det())
    z = ring.zero
    assert all(x == z for i, row in enumerate(d.entries) for j, x in enumerate(row) if i != j)
    diag = [d.entries[k][k] for k in range(min(d.rows, d.cols))]
    for x in diag:
        assert ring.canonical_unit(x) == ring.one
    for x, y in zip(diag, diag[1:]):  # x divides y; only zero follows zero
        assert y == z if x == z else ring.divmod(y, x)[1] == z


@RINGS
@CONTRACT
@given(data=st.data())
def test_kernel_contract(ring_text, data):
    a = _draw_matrix(data, ring_text)
    ring = a.ring
    basis = kernel_basis(a).basis
    for vec in basis:
        assert all(x == ring.zero for x in a.apply(vec))
    h, _ = hermite_normal_form(a)
    rank = sum(_leading(ring, h.row(i)) is not None for i in range(h.rows))
    assert rank + len(basis) == a.cols


ZX = IntegerPolynomials()
ZX_ENTRIES = st.lists(st.integers(-3, 3), max_size=3).map(_polynomial)  # degree <= 2


@CONTRACT
@given(data=st.data())
def test_kernel_contract_over_integer_polynomials(data):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rows = data.draw(st.integers(1, 3), label="rows")
    cols = data.draw(st.integers(1, 4), label="cols")
    row = st.lists(ZX_ENTRIES, min_size=cols, max_size=cols)
    a = Matrix(ZX, data.draw(st.lists(row, min_size=rows, max_size=rows), label="A"))
    basis = kernel_basis(a).basis
    for vec in basis:  # A v, recomputed here by schoolbook sums of products
        for entries in a.entries:
            total = ZX.zero
            for x, y in zip(entries, vec):
                total = ZX.add(total, ZX.mul(x, y))
            assert total == ZX.zero
    # the rank over the fraction field Q(x), from sympy
    x = sympy.symbols("x")
    domain = sympy.ZZ[x]
    grid = [[domain.from_sympy(sum(c * x**k for k, c in enumerate(e))) for e in r]
            for r in a.entries]
    rank = DomainMatrix(grid, (a.rows, a.cols), domain).to_field().rank()
    assert len(basis) == a.cols - rank


BIG = st.integers(-2**130, 2**130)


@CONTRACT
@given(data=st.data())
def test_packed_check_agrees_with_apply(data):
    rows = data.draw(st.integers(1, 6), label="rows")
    cols = data.draw(st.integers(1, 8), label="cols")
    entries = st.one_of(st.just(0), st.integers(-9, 9), BIG)
    grid = data.draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                              min_size=rows, max_size=rows), label="A")
    zero_row = data.draw(st.none() | st.integers(0, rows - 1), label="zero row")
    zero_col = data.draw(st.none() | st.integers(0, cols - 1), label="zero column")
    grid = [[0 if i == zero_row or j == zero_col else x for j, x in enumerate(r)]
            for i, r in enumerate(grid)]
    a = Matrix(Z, grid)
    solutions = list(solution_stream(a, 6))
    zero = (0,) * cols
    perturbed = []
    for vec in solutions + [zero]:
        k = data.draw(st.integers(0, cols - 1), label="coordinate")
        delta = data.draw(BIG.filter(bool), label="delta")
        perturbed.append(vec[:k] + (vec[k] + delta,) + vec[k + 1:])
    vectors = solutions + perturbed
    shared = _annihilator(a)
    for _ in range(3):  # checked by apply; later calls are packed if rows > 1
        shared(zero)
    for vec in vectors:
        expected = vec_is_zero(Z, a.apply(vec))
        fresh = _annihilator(a)
        for _ in range(3):
            fresh(zero)
        assert fresh(vec) is expected
        assert shared(vec) is expected


# the longest q that Fp[x] axpy packs into byte slots, for each p
BYTE_SLOT_CAPS = {2: 254, 3: 63, 5: 15, 7: 6, 11: 2, 13: 1}


@pytest.mark.parametrize("p", sorted(BYTE_SLOT_CAPS))
@CONTRACT
@given(data=st.data())
def test_packed_axpy_matches_schoolbook(p, data):
    ring = PrimeFieldPolynomials(p)
    cap = BYTE_SLOT_CAPS[p]
    coeffs = st.integers(0, p - 1)
    poly = st.lists(coeffs, max_size=40).map(_polynomial)
    q_len = data.draw(st.integers(1, 40) | st.sampled_from([cap, cap + 1]), label="len(q)")
    q = tuple(data.draw(st.lists(coeffs, min_size=q_len - 1, max_size=q_len - 1), label="q"))
    q += (data.draw(st.integers(1, p - 1), label="top of q"),)
    width = data.draw(st.integers(0, 4), label="entries")
    xs = data.draw(st.lists(poly, min_size=width, max_size=width), label="xs")
    ys = data.draw(st.lists(st.just(()) | poly, min_size=width, max_size=width), label="ys")
    expected = []
    for x, y in zip(xs, ys):  # schoolbook x - q*y, reduced mod p
        acc = list(x) + [0] * (len(q) + len(y) - 1 - len(x))
        for i, a in enumerate(q):
            for j, b in enumerate(y):
                acc[i + j] -= a * b
        expected.append(_polynomial([c % p for c in acc]))
    assert ring.axpy(xs, q, ys) == expected


CONJUGATION_RINGS = {"Z": Z, "Z/7": Modular(7), "Zi": GaussianIntegers(), "Fp[x]/5": F5}


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_conjugated_witnesses_lie_in_the_conjugated_module(data):
    ring = CONJUGATION_RINGS[data.draw(st.sampled_from(sorted(CONJUGATION_RINGS)), label="ring")]
    n = data.draw(st.integers(3, 5), label="n")
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    words = [random_elementary_word(rng, ring, n, rng.randint(1, 4)) for _ in range(n - 2)]
    ctx = StabilizerContext(ring, n, tuple(w.evaluate() for w in words))
    witnesses = list(itertools.islice(intersection_witnesses(ctx, 8), 8))
    pool = [ring.parse(str(c)) for c in (-2, -1, 0, 1, 2)]
    q = _random_stabilizer_conjugator(rng, ring, n, [w.functional for w in witnesses[:3]], pool)
    module = conjugate_module(ctx, q)
    conjugates = list(combination_stream(module, 8))
    assert len(conjugates) == len(witnesses)
    q_inverse = q.inverse()
    for witness, functional in zip(witnesses, conjugates):
        # the dense conjugate is the shear the module streams in the witness's place
        conjugate = q_inverse @ witness.matrix @ q
        assert conjugate == ShearWitness(ring, functional).matrix
        assert in_row_span(ring, module.basis, functional)
