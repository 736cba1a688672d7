import hashlib
import itertools
import random

import pytest

from rigidlin import (
    GaussianIntegers,
    IntegerPolynomials,
    Integers,
    Modular,
    ParseError,
    PrimeFieldPolynomials,
    ring_from_text,
)
from rigidlin import rings

ALL_RINGS = [
    Integers(),
    Modular(6),
    Modular(9),
    PrimeFieldPolynomials(5),
    IntegerPolynomials(),
    GaussianIntegers(),
]


def ring_id(ring):
    return ring.descriptor


@pytest.mark.parametrize("text,expected_kind", [
    ("Z", "integers"),
    ("Z/6", "modular"),
    ("Fp[x]/5", "poly-over-prime-field"),
    ("Z[x]", "integer-polynomials"),
    ("Zi", "gaussian-integers"),
])
def test_ring_descriptor_roundtrip(text, expected_kind):
    ring = ring_from_text(text)
    assert ring.kind == expected_kind
    assert ring_from_text(ring.descriptor) == ring


def test_ring_descriptor_rejects_garbage():
    for bad in ("Q", "Z/1", "Z/x", "Fp[x]/4", "Fp[x]/", ""):
        with pytest.raises(ParseError):
            ring_from_text(bad)


def test_flags():
    assert Integers().is_euclidean and Integers().is_domain and not Integers().is_finite
    assert GaussianIntegers().is_euclidean
    assert PrimeFieldPolynomials(5).is_euclidean
    assert not IntegerPolynomials().is_euclidean and IntegerPolynomials().is_domain
    m = Modular(6)
    assert m.is_finite and not m.is_euclidean and m.cardinality == 6
    with pytest.raises(ValueError):
        Modular(1)
    with pytest.raises(ValueError):
        PrimeFieldPolynomials(4)


def test_parse_examples():
    assert Integers().parse("-7") == -7
    assert Modular(6).parse("9") == 3
    assert IntegerPolynomials().parse("3*x^2-1") == (-1, 0, 3)
    assert IntegerPolynomials().parse("x") == (0, 1)
    assert PrimeFieldPolynomials(5).parse("7*x+6") == (1, 2)
    assert GaussianIntegers().parse("3-2i") == (3, -2)
    assert GaussianIntegers().parse("i") == (0, 1)
    assert GaussianIntegers().parse("-i") == (0, -1)
    assert GaussianIntegers().parse("4") == (4, 0)


def test_parse_rejects_malformed():
    with pytest.raises(ParseError):
        Integers().parse("3.5")
    with pytest.raises(ParseError):
        IntegerPolynomials().parse("x**2")
    with pytest.raises(ParseError):
        GaussianIntegers().parse("1+2j")
    with pytest.raises(ParseError):
        GaussianIntegers().parse("1+2i+3")


@pytest.mark.parametrize("ring", ALL_RINGS, ids=ring_id)
def test_parse_print_identity(ring):
    for element in ring.take(300):
        assert ring.parse(ring.format(element)) == element


def test_arithmetic_examples():
    assert Integers().add(2, 3) == 5
    assert Modular(6).mul(4, 3) == 0  # zero divisor
    zx = IntegerPolynomials()
    assert zx.mul(zx.parse("x+1"), zx.parse("x-1")) == zx.parse("x^2-1")
    zi = GaussianIntegers()
    assert zi.mul((0, 1), (0, 1)) == (-1, 0)  # i^2 == -1


@pytest.mark.parametrize("ring", ALL_RINGS, ids=ring_id)
def test_ring_axioms_sampled(ring):
    pool = ring.take(60)
    rng = random.Random(20240917)
    for _ in range(300):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
        assert ring.mul(a, ring.one) == a
        assert ring.add(a, ring.zero) == a
        assert ring.add(a, ring.neg(a)) == ring.zero


def test_is_unit_examples():
    assert Integers().unit_inverse(1) == 1
    assert Integers().unit_inverse(2) is None
    # oracle: scan the residues 0..8 for 2*k == 1 mod 9
    scan = next(k for k in range(9) if (2 * k) % 9 == 1)
    assert scan == 5
    assert Modular(9).unit_inverse(2) == scan


@pytest.mark.parametrize("ring", ALL_RINGS, ids=ring_id)
def test_unit_inverse_recomputes(ring):
    for a in ring.take(80):
        inv = ring.unit_inverse(a)
        if inv is not None:
            assert ring.mul(a, inv) == ring.one


def test_gaussian_units():
    zi = GaussianIntegers()
    units = [a for a in zi.take(30) if zi.is_unit(a)]
    assert sorted(units) == sorted([(1, 0), (-1, 0), (0, 1), (0, -1)])


def test_euclid_divmod_examples():
    assert Integers().divmod(7, 3) == (2, 1)
    q, r = Integers().divmod(-7, 3)
    assert (q, r) == (-3, 2) and -7 == q * 3 + r and 0 <= r < 3
    f5 = PrimeFieldPolynomials(5)
    q, r = f5.divmod(f5.parse("x^2+1"), f5.parse("x+2"))
    assert r == ()
    # oracle: multiply back over F5
    assert f5.mul(q, f5.parse("x+2")) == f5.parse("x^2+1")
    assert q == f5.parse("x+3")


@pytest.mark.parametrize("ring", [Integers(), PrimeFieldPolynomials(5), GaussianIntegers()],
                         ids=ring_id)
def test_divmod_contract(ring):
    pool = [a for a in ring.take(60) if a != ring.zero]
    rng = random.Random(7)
    for _ in range(300):
        a = rng.choice(pool + [ring.zero])
        b = rng.choice(pool)
        q, r = ring.divmod(a, b)
        assert ring.add(ring.mul(q, b), r) == a
        if r != ring.zero:
            assert ring.norm(r) < ring.norm(b)


def test_integer_divmod_least_nonnegative():
    ring = Integers()
    for a in range(-20, 21):
        for b in (-7, -3, -1, 1, 3, 7):
            q, r = ring.divmod(a, b)
            assert a == q * b + r and 0 <= r < abs(b)


def test_enumeration_examples():
    assert Integers().take(5) == [0, 1, -1, 2, -2]
    assert Modular(4).take(10) == [0, 1, 2, 3]  # exhausted early
    assert IntegerPolynomials().take(4) == [(), (1,), (-1,), (0, 1)]
    zi = GaussianIntegers()
    assert zi.take(5) == [(0, 0), (0, 1), (0, -1), (1, 0), (-1, 0)]


@pytest.mark.parametrize("ring", ALL_RINGS, ids=ring_id)
def test_enumeration_distinct(ring):
    seen = set()
    for element in ring.take(10_000):
        assert element not in seen
        assert ring.contains(element)
        seen.add(element)
    if ring.is_finite:
        assert len(seen) == ring.cardinality


# SHA-256 of repr(take(500)), recorded before polynomial arithmetic moved to
# whole coefficient lists
PINNED_ENUMERATIONS = {
    "Fp[x]/2": "0836e6ebb0910a987db8aa54cc607327168fd81a86f018606160b5acb5125f69",
    "Fp[x]/5": "bfc04c5f34f2d9c827300704bceae089295a38266b917532f9c8f425119ab20c",
    "Z[x]": "e1f7bcc898a6e4aa085a07abd17c2da1b6f71c62e3c221b6547229a9dec91d78",
}


@pytest.mark.parametrize("text", sorted(PINNED_ENUMERATIONS))
def test_polynomial_enumeration_matches_pinned_digest(text):
    digest = hashlib.sha256(repr(ring_from_text(text).take(500)).encode()).hexdigest()
    assert digest == PINNED_ENUMERATIONS[text]


def _operand_pairs(rng, ring):
    """Pairs at every degree 0-40 and every tenth degree 50-130 (the degrees
    that Fp[x] Hermite and Smith transforms reach), with the zero polynomial,
    pairs whose sum or difference cancels the top coefficients (the result
    is stripped), and pairs just either side of the size at which Fp[x]
    multiplies by Kronecker substitution."""
    p = getattr(ring, "p", None)

    def coeff(nonzero=False):
        if p:
            return rng.randrange(1 if nonzero else 0, p)
        c = rng.randint(-10**30, 10**30)
        return c if c or not nonzero else 1

    def poly(degree):
        return tuple(coeff() for _ in range(degree)) + (coeff(nonzero=True),)

    def cancelling(a, sign):
        # agrees with sign*a above a random degree, random below it
        keep = rng.randrange(len(a))
        top = [(sign * c) % p if p else sign * c for c in a[keep:]]
        return tuple(coeff() for _ in range(keep)) + tuple(top)

    pairs = [((), ()), ((), poly(3)), (poly(0), ())]
    for degree in range(41):
        a = poly(degree)
        pairs += [(a, poly(degree)), (a, poly(rng.randrange(41))),
                  (a, cancelling(a, -1)), (a, cancelling(a, 1)), (a, a)]
    for degree in range(50, 131, 10):
        a = poly(degree)
        pairs += [(a, poly(degree)), (a, poly(rng.randrange(131))),
                  (a, cancelling(a, -1)), (a, cancelling(a, 1)), (a, a)]
    for short in (2, 3, 5):
        at = -(-rings._KRONECKER_MIN_WORK // short)  # fewest coefficients that pack
        for long in (at - 1, at):
            a, b = poly(short - 1), poly(long - 1)
            pairs += [(a, b), (b, a)]
    return pairs


# 2, 3, 5 and 7 pack into 1- and 2-byte slots, 251 into 4, 65521 into 8;
# 4294967311 is too large to pack and multiplies by schoolbook
@pytest.mark.parametrize("ring", [PrimeFieldPolynomials(p)
                                  for p in (2, 3, 5, 7, 251, 65521, 4294967311)]
                         + [IntegerPolynomials()], ids=ring_id)
def test_polynomial_arithmetic_matches_sympy(ring):
    pytest.importorskip("sympy")
    from sympy.polys.densearith import dup_add, dup_mul, dup_neg, dup_sub
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_add, gf_mul, gf_neg, gf_sub

    # sympy's dense arithmetic on high-to-low coefficient lists: galoistools
    # over Z/p, densearith over Z
    p = getattr(ring, "p", None)
    if p:
        ops = [lambda *fs, op=op: op(*fs, p, ZZ) for op in (gf_add, gf_sub, gf_mul, gf_neg)]
    else:
        ops = [lambda *fs, op=op: op(*fs, ZZ) for op in (dup_add, dup_sub, dup_mul, dup_neg)]
    add, sub, mul, neg = ops

    def to_sympy(a):
        return [ZZ(c) for c in reversed(a)]

    def from_sympy(f):
        return tuple(int(c) for c in reversed(f))

    for a, b in _operand_pairs(random.Random(f"sympy:{ring.descriptor}"), ring):
        fa, fb = to_sympy(a), to_sympy(b)
        assert ring.add(a, b) == from_sympy(add(fa, fb))
        assert ring.sub(a, b) == from_sympy(sub(fa, fb))
        assert ring.mul(a, b) == from_sympy(mul(fa, fb))
        assert ring.neg(a) == from_sympy(neg(fa))


def _schoolbook(p):
    """add, sub, mul and neg on coefficient tuples, reduced mod p when p is
    given, with trailing zeros stripped."""
    def strip(cs):
        cs = [c % p for c in cs] if p else list(cs)
        while cs and cs[-1] == 0:
            cs.pop()
        return tuple(cs)

    def add(a, b):
        return strip(x + y for x, y in itertools.zip_longest(a, b, fillvalue=0))

    def mul(a, b):
        out = [0] * max(len(a) + len(b) - 1, 0)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return strip(out)

    def neg(a):
        return strip(-c for c in a)

    return add, lambda a, b: add(a, neg(b)), mul, neg


@pytest.mark.parametrize("ring", [PrimeFieldPolynomials(5), PrimeFieldPolynomials(4294967311),
                                  IntegerPolynomials()], ids=ring_id)
def test_constant_arithmetic_matches_schoolbook(ring):
    p = getattr(ring, "p", None)
    add, sub, mul, neg = _schoolbook(p)
    rng = random.Random(f"constants:{ring.descriptor}")
    if p == 5:
        values = list(range(1, 5))  # every nonzero constant
    elif p:
        values = [1, 2, p - 1, p - 2] + [rng.randrange(1, p) for _ in range(12)]
    else:
        values = [1, -1, 2, -2, 10**40, -(10**40)] + [rng.randint(-10**30, 10**30) or 1
                                                      for _ in range(12)]
    constants = [()] + [(c,) for c in values]
    for a in constants:
        assert ring.neg(a) == neg(a)
        for b in constants:
            assert ring.add(a, b) == add(a, b), (a, b)
            assert ring.sub(a, b) == sub(a, b), (a, b)
            assert ring.mul(a, b) == mul(a, b), (a, b)
    assert ring.neg(()) == ()
    if p == 5:
        assert ring.add((2,), (3,)) == () and ring.sub((2,), (2,)) == ()
    elif p:
        assert ring.add((1,), (p - 1,)) == ()
    else:
        assert ring.add((7,), (-7,)) == () and ring.add((10**40,), (-(10**40),)) == ()


# the fewest coefficients a partner of a two-coefficient operand needs to pack
_PACKS_AT = -(-rings._KRONECKER_MIN_WORK // 2)


@pytest.mark.parametrize("ring, lens, packed", [
    (PrimeFieldPolynomials(5), (2, _PACKS_AT - 1), None),
    (PrimeFieldPolynomials(5), (2, _PACKS_AT), True),
    (PrimeFieldPolynomials(5), (1, 2 * _PACKS_AT), None),
    (PrimeFieldPolynomials(65521), (2, _PACKS_AT), True),
    (PrimeFieldPolynomials(4294967311), (2, _PACKS_AT), False),
    (IntegerPolynomials(), (2, _PACKS_AT), None),
], ids=["below", "at", "constant", "8-byte", "unpackable", "Z[x]"])
def test_fp_mul_packs_from_the_threshold_on(monkeypatch, ring, lens, packed):
    """None: schoolbook without trying to pack; False: the slot would be
    wider than 8 bytes, so schoolbook after trying."""
    tried = []
    pack = rings._kronecker_mul

    def spy(a, b, p):
        out = pack(a, b, p)
        tried.append(out is not None)
        return out

    monkeypatch.setattr(rings, "_kronecker_mul", spy)
    a, b = ((1,) * n for n in lens)
    ring.mul(a, b)
    assert tried == ([] if packed is None else [packed])


def _kernel_pool(rng, ring):
    if isinstance(ring, rings._PolynomialRing):
        return [a for pair in _operand_pairs(rng, ring) for a in pair]
    if isinstance(ring, Integers):
        return [rng.randint(-10**30, 10**30) for _ in range(40)]
    if isinstance(ring, GaussianIntegers):
        return [(rng.randint(-99, 99), rng.randint(-99, 99)) for _ in range(40)]
    return ring.take(ring.cardinality)


@pytest.mark.parametrize("ring", [
    Integers(), Modular(6), GaussianIntegers(), IntegerPolynomials(),
    PrimeFieldPolynomials(5), PrimeFieldPolynomials(4294967311),
], ids=ring_id)
def test_row_kernels_match_ring_arithmetic(ring):
    """dots and axpy agree with per-entry add/mul/sub, on vectors with zero
    entries, with q = 0, with no vectors at all, and on polynomial products
    either side of the size at which Fp[x] multiplies by Kronecker
    substitution (4294967311 is too large to pack)."""
    rng = random.Random(f"row-kernels:{ring.descriptor}")
    z = ring.zero
    pool = _kernel_pool(rng, ring)

    def dot(u, v):
        acc = z
        for x, y in zip(u, v):
            acc = ring.add(acc, ring.mul(x, y))
        return acc

    def axpy(xs, q, ys):
        return [ring.sub(x, ring.mul(q, y)) for x, y in zip(xs, ys)]

    def vector(n):
        return tuple(z if rng.random() < 0.3 else rng.choice(pool) for _ in range(n))

    assert ring.dots(vector(3), []) == ()
    for _ in range(30):
        n = rng.randint(0, 5)
        u = vector(n)
        vs = [vector(n) for _ in range(rng.randint(0, 3))]
        assert ring.dots(u, vs) == tuple(dot(u, v) for v in vs)
        for v in vs:
            for q in (z, rng.choice(pool)):
                assert ring.axpy(u, q, v) == axpy(u, q, v)
    if isinstance(ring, rings._PolynomialRing):
        pairs = [(q, y) for q, y in _operand_pairs(rng, ring) if q and y]
        if ring.coefficients.cardinality:
            packs = {len(q) > 1 and len(y) > 1 and len(q) * len(y) >= rings._KRONECKER_MIN_WORK
                     for q, y in pairs}
            assert packs == {False, True}
        for q, y in pairs:
            xs = [rng.choice(pool), z, rng.choice(pool)]
            assert ring.axpy(xs, q, [y, y, z]) == axpy(xs, q, [y, y, z])
            assert ring.dots((q, z), [(y, q)]) == (dot((q, z), (y, q)),)


def test_large_prime_is_refused_at_once():
    # primality is decided exactly, by Miller-Rabin, only below about 3.3e24
    with pytest.raises(ValueError, match="too large"):
        PrimeFieldPolynomials(2**127 - 1)
    with pytest.raises(ValueError, match="too large"):
        ring_from_text(f"Fp[x]/{2**127 - 1}")
    assert PrimeFieldPolynomials(2**61 - 1).p == 2**61 - 1
    with pytest.raises(ValueError, match="not prime"):
        PrimeFieldPolynomials(3215031751)  # a strong pseudoprime to bases 2, 3, 5, 7


def test_non_euclidean_rings_reject_division():
    from rigidlin import UnsupportedRingError

    with pytest.raises(UnsupportedRingError):
        IntegerPolynomials().divmod((0, 1), (1,))
    with pytest.raises(UnsupportedRingError):
        Modular(6).divmod(4, 2)
    with pytest.raises(ZeroDivisionError):
        Integers().divmod(3, 0)


def test_exact_div():
    zx = IntegerPolynomials()
    prod = zx.mul(zx.parse("2*x+1"), zx.parse("3*x^2-x+4"))
    assert zx.exact_div(prod, zx.parse("2*x+1")) == zx.parse("3*x^2-x+4")
    with pytest.raises(ArithmeticError):
        zx.exact_div(zx.parse("x^2"), zx.parse("2*x"))
    with pytest.raises(ArithmeticError):
        Integers().exact_div(7, 2)


def test_canonical_unit():
    assert Integers().canonical_unit(-5) == -1
    f5 = PrimeFieldPolynomials(5)
    lead = f5.mul(f5.canonical_unit((1, 3)), (1, 3))
    assert lead[-1] == 1  # monic
    zi = GaussianIntegers()
    for a in zi.take(50):
        if a == zi.zero:
            continue
        z = zi.mul(zi.canonical_unit(a), a)
        assert z[0] > 0 and z[1] >= 0


def test_mixed_ring_operand_rejected():
    with pytest.raises(ValueError):
        Modular(6).check(7)
    with pytest.raises(ValueError):
        Integers().check((1, 0))
    with pytest.raises(ValueError):
        IntegerPolynomials().check((1, 0, 0))  # trailing zero is not canonical
