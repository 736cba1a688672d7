import random
import re

import pytest

from rigidlin import (
    GaussianIntegers,
    IntegerPolynomials,
    Integers,
    Matrix,
    Modular,
    NotInvertibleError,
    ParseError,
    PrimeFieldPolynomials,
    elementary_matrix,
    format_matrix,
    parse_matrix,
    ring_from_text,
    unit_vector,
)
from rigidlin.matrix import vec_dot

Z = Integers()

SAMPLE_RINGS = [
    Integers(),
    Modular(6),
    PrimeFieldPolynomials(5),
    IntegerPolynomials(),
    GaussianIntegers(),
]


def random_matrix(rng, ring, rows, cols, pool):
    return Matrix(ring, [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)])


def test_identity_multiplication():
    a = parse_matrix(Z, "1,2,3;4,5,6;7,8,9")
    assert Matrix.identity(Z, 3) @ a == a
    assert a @ Matrix.identity(Z, 3) == a


def test_elementary_product_adds_parameters():
    # direct 2x2 multiplication: [[1,a],[0,1]] @ [[1,b],[0,1]] == [[1,a+b],[0,1]]
    a, b = 5, -3
    lhs = elementary_matrix(Z, 2, 1, 2, a) @ elementary_matrix(Z, 2, 1, 2, b)
    assert lhs == elementary_matrix(Z, 2, 1, 2, a + b)


def test_column_action():
    e1 = unit_vector(Z, 2, 0)
    moved = elementary_matrix(Z, 2, 2, 1, 1).apply(e1)
    assert moved == (1, 1)  # e1 + e2


def test_dimension_and_ring_mismatch():
    a = parse_matrix(Z, "1,2;3,4")
    b = parse_matrix(Z, "1,2,3")
    with pytest.raises(ValueError):
        a @ b
    c = parse_matrix(Modular(6), "1,2;3,4")
    with pytest.raises(ValueError):
        a @ c


def test_determinant_examples():
    assert Matrix.identity(Z, 4).det() == 1
    assert parse_matrix(Z, "0,1;-1,0").det() == 1  # ad - bc
    for n in (2, 3, 4):
        for r in (-3, 2, 7):
            e = elementary_matrix(Z, n, 1, n, r)
            assert e.det() == 1
            assert e.det_cofactor() == 1  # cofactor oracle agrees


def test_bareiss_matches_cofactor_oracle():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 5)
        a = random_matrix(rng, Z, n, n, list(range(-9, 10)))
        assert a.det() == a.det_cofactor()


@pytest.mark.parametrize("ring", [Integers(), Modular(6), Modular(9)],
                         ids=lambda r: r.descriptor)
def test_det_multiplicative(ring):
    rng = random.Random(13)
    pool = ring.take(19)
    for _ in range(200):
        a = random_matrix(rng, ring, 3, 3, pool)
        b = random_matrix(rng, ring, 3, 3, pool)
        assert (a @ b).det() == ring.mul(a.det(), b.det())


@pytest.mark.parametrize("ring", SAMPLE_RINGS, ids=lambda r: r.descriptor)
def test_associativity_and_transpose(ring):
    rng = random.Random(17)
    pool = ring.take(12)
    for _ in range(100):
        a = random_matrix(rng, ring, 4, 4, pool)
        b = random_matrix(rng, ring, 4, 4, pool)
        c = random_matrix(rng, ring, 4, 4, pool)
        assert (a @ b) @ c == a @ (b @ c)
        assert (a @ b).transpose() == b.transpose() @ a.transpose()


@pytest.mark.parametrize("ring", SAMPLE_RINGS, ids=lambda r: r.descriptor)
def test_det_over_every_ring_matches_oracle(ring):
    rng = random.Random(19)
    pool = ring.take(9)
    for _ in range(40):
        n = rng.randint(1, 3)
        a = random_matrix(rng, ring, n, n, pool)
        assert a.det() == a.det_cofactor()


def test_inverse_examples():
    assert Matrix.identity(Z, 3).inverse() == Matrix.identity(Z, 3)
    e = elementary_matrix(Z, 3, 1, 2, 9)
    inv = e.inverse()
    assert inv == elementary_matrix(Z, 3, 1, 2, -9)
    assert (inv @ e).is_identity() and (e @ inv).is_identity()
    with pytest.raises(NotInvertibleError) as err:
        parse_matrix(Z, "2,0;0,1").inverse()
    assert "2" in str(err.value)


def test_inverse_over_modular_and_gaussian():
    m9 = Modular(9)
    a = parse_matrix(m9, "2,1;1,1")
    assert (a.inverse() @ a).is_identity()
    zi = GaussianIntegers()
    b = parse_matrix(zi, "i,1;0,1")
    assert (b.inverse() @ b).is_identity()


def test_inverse_of_random_unimodular_products():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 4)
        acc = Matrix.identity(Z, n)
        for _ in range(rng.randint(1, 6)):
            i = rng.randrange(1, n + 1)
            j = rng.randrange(1, n + 1)
            while j == i:
                j = rng.randrange(1, n + 1)
            acc = acc @ elementary_matrix(Z, n, i, j, rng.randint(-3, 3))
        assert (acc.inverse() @ acc).is_identity()


INVERSE_RINGS = ["Z", "Z/6", "Z/7", "Z/9", "Zi", "Fp[x]/5", "Z[x]"]


def adjugate_inverse(a):
    """Independent oracle: the adjugate from cofactor determinants, times the
    unit inverse of the determinant; None when the determinant is no unit."""
    ring, n = a.ring, a.rows
    d = a.det_cofactor()
    d_inv = ring.unit_inverse(d)
    if d_inv is None:
        return None
    if n == 1:
        return Matrix(ring, [[d_inv]])
    grid = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = a.submatrix(j, i).det_cofactor()
            row.append(ring.mul(d_inv, ring.neg(minor) if (i + j) % 2 else minor))
        grid.append(row)
    return Matrix(ring, grid)


def random_unimodular(rng, ring, n, pool, steps):
    acc = Matrix.identity(ring, n)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(1, n + 1), 2)
        acc = acc @ elementary_matrix(ring, n, i, j, rng.choice(pool))
    return acc


@pytest.mark.parametrize("ring_text", INVERSE_RINGS)
def test_inverse_matches_adjugate_oracle(ring_text):
    ring = ring_from_text(ring_text)
    rng = random.Random(f"inverse-oracle:{ring_text}")
    pool = ring.take(7)
    seen = set()
    for t in range(60):
        n = rng.randint(1, 4)
        if t % 3 == 0:
            # a unimodular matrix with rows swapped, so that pivoting swaps them back
            a = random_unimodular(rng, ring, n, pool, 6)
            a = Matrix(a.ring, a.entries[::-1])
        elif t % 3 == 1 and n > 1:
            # singular: a repeated row
            rows = [[rng.choice(pool) for _ in range(n)] for _ in range(n - 1)]
            a = Matrix(ring, rows + [rows[0]])
        else:
            a = random_matrix(rng, ring, n, n, pool)
        expected = adjugate_inverse(a)
        if expected is None:
            with pytest.raises(NotInvertibleError) as err:
                a.inverse()
            d = a.det_cofactor()
            assert str(err.value) == (
                f"matrix is not invertible: determinant {ring.format(d)} is not a unit")
            seen.add("singular" if d == ring.zero else "non-unit")
        else:
            assert a.inverse() == expected
            seen.add("invertible")
    # over the field Z/7 every nonzero determinant is a unit
    assert seen == {"invertible", "singular"} | ({"non-unit"} if ring_text != "Z/7" else set())


def test_inverse_does_not_expand_determinants(monkeypatch):
    rng = random.Random(12)
    a = random_unimodular(rng, Z, 12, [-2, -1, 1, 2, 3], 60)
    calls = []
    real_det = Matrix.det

    def counting_det(self):
        calls.append(self.rows)
        return real_det(self)

    monkeypatch.setattr(Matrix, "det", counting_det)
    inv = a.inverse()
    assert len(calls) <= 1
    assert (inv @ a).is_identity() and (a @ inv).is_identity()


def test_matrix_text_roundtrip():
    rng = random.Random(29)
    for ring in SAMPLE_RINGS:
        pool = ring.take(10)
        for _ in range(20):
            a = random_matrix(rng, ring, rng.randint(1, 3), rng.randint(1, 3), pool)
            assert parse_matrix(ring, format_matrix(a)) == a
    with pytest.raises(ParseError):
        parse_matrix(Z, "1,2;3")
    with pytest.raises(ParseError):
        parse_matrix(Z, ";")


def test_matrices_are_immutable_and_hashable():
    a = parse_matrix(Z, "1,2;3,4")
    with pytest.raises(AttributeError):
        a.rows = 5
    assert len({a, parse_matrix(Z, "1,2;3,4")}) == 1


def test_non_square_determinant_rejected():
    with pytest.raises(ValueError):
        parse_matrix(Z, "1,2,3;4,5,6").det()


@pytest.mark.parametrize("call, error, fragment", [
    pytest.param(lambda: Matrix(Z, []), ValueError,
                 "at least one row and one column", id="no-rows"),
    pytest.param(lambda: Matrix(Z, [[]]), ValueError,
                 "at least one row and one column", id="no-columns"),
    pytest.param(lambda: Matrix(Z, [[1, 2], [3]]), ValueError, "ragged rows", id="ragged"),
    pytest.param(lambda: Matrix.identity(Z, 0), ValueError,
                 "size must be positive", id="identity-size"),
    pytest.param(lambda: Matrix.zeros(Z, 0, 2), ValueError,
                 "dimensions must be positive", id="zeros-rows"),
    pytest.param(lambda: Matrix.zeros(Z, 2, 0), ValueError,
                 "dimensions must be positive", id="zeros-cols"),
    pytest.param(lambda: Matrix.identity(Z, 2).apply((1, 2, 3)), ValueError,
                 "vector length mismatch", id="apply-length"),
    pytest.param(lambda: vec_dot(Z, (1, 2), (1,)), ValueError,
                 "vector length mismatch", id="vec-dot-length"),
    pytest.param(lambda: parse_matrix(Z, "1,2").det(), ValueError,
                 "determinant of a non-square matrix", id="det-non-square"),
    pytest.param(lambda: parse_matrix(Z, "1;2").det_cofactor(), ValueError,
                 "determinant of a non-square matrix", id="det-cofactor-non-square"),
    pytest.param(lambda: parse_matrix(Modular(6), "1,2").inverse(), ValueError,
                 "inverse of a non-square matrix", id="inverse-non-square"),
])
def test_bad_inputs_are_refused(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
