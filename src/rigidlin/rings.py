"""Exact arithmetic for the supported commutative coefficient rings.

An element is a plain canonical Python value and all arithmetic goes
through the ring object that owns it:

* ``Z``       -- arbitrary-precision integers (``int``)
* ``Z/m``     -- residues stored as ``int`` in ``[0, m)``
* ``Fp[x]/p`` -- polynomials over ``Z/p``: low-to-high coefficient tuples
  with no trailing zeros, ``()`` is the zero polynomial
* ``Z[x]``    -- polynomials over ``Z``, same tuple convention.  Both
  polynomial rings compute on whole coefficient lists with ``int``
  arithmetic, reducing each result mod p once over ``Z/p``.  Over ``Z/p``
  a product of operands with at least ``_KRONECKER_MIN_WORK`` coefficient
  pairs is one big-int multiply by Kronecker substitution; shorter
  products, and every product over ``Z``, stay schoolbook
* ``Zi``      -- Gaussian integers as ``(re, im)`` pairs

Besides the scalar operations every ring has two row kernels, which the
matrix and normal-form layers call once per row instead of once per
entry: ``dots(u, vs)``, the dot products of u with each vector in vs,
and ``axpy(xs, q, ys)``, the row ``[x - q*y]``.  The base class runs
them on ``add``/``mul``/``sub``, skipping zero entries; ``Integers``
overrides both with native ``int`` arithmetic, and the polynomial rings
override ``axpy`` with one fused pass per entry over unreduced ``int``
coefficients (except for products that ``mul`` takes by Kronecker
substitution).  ``Z/m`` and ``Zi`` keep the base kernels.

Canonical values make equality, hashing and printing unambiguous, which
the verification suites lean on: two elements are equal exactly when
their values compare equal.

Every ring also fixes a documented enumeration of its elements, used to
stream pairwise-distinct solutions:

* integers: ``0, 1, -1, 2, -2, ...``
* residues: ``0, 1, ..., m-1``
* polynomials: graded by ``degree + height`` where the height of a
  coefficient is its index in the base ring's enumeration; within a
  grade, by degree, then lexicographically on the coefficient tuple
  (constant coefficient first) via the base ring's order.  The first
  elements over ``Z[x]`` are ``0, 1, -1, x, 1+x, 2, -x, ...``
* Gaussian integers: graded by ``|re| + |im|``, within a grade ordered
  lexicographically on ``(re, im)`` via the integer order above.
"""

from __future__ import annotations

import itertools
import operator
import re
import sys
from abc import ABC, abstractmethod
from array import array
from typing import Iterator

from .errors import ParseError, UnsupportedRingError


class Ring(ABC):
    """A commutative ring with identity and canonical value-level elements."""

    kind: str
    is_domain: bool
    is_euclidean: bool
    is_finite: bool
    cardinality: int | None = None
    zero: object
    one: object

    @property
    @abstractmethod
    def descriptor(self) -> str:
        """Text form of the ring, e.g. ``Z/6`` (parseable by ring_from_text)."""

    @abstractmethod
    def contains(self, a) -> bool: ...

    def check(self, a):
        if not self.contains(a):
            raise ValueError(f"{a!r} is not an element of {self.descriptor}")
        return a

    @abstractmethod
    def add(self, a, b): ...

    @abstractmethod
    def mul(self, a, b): ...

    @abstractmethod
    def neg(self, a): ...

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    # -- row kernels -------------------------------------------------------
    def dots(self, u, vs) -> tuple:
        """The tuple of dot products of u with each vector in vs, all of
        u's length; the zero entries of u are found once, not per vector."""
        add, mul, z = self.add, self.mul, self.zero
        terms = [(i, x) for i, x in enumerate(u) if x != z]
        out = []
        for v in vs:
            acc = z
            for i, x in terms:
                y = v[i]
                if y != z:
                    acc = add(acc, mul(x, y))
            out.append(acc)
        return tuple(out)

    def axpy(self, xs, q, ys) -> list:
        """The row [x - q*y]; entries facing a zero y stay as they are."""
        sub, mul, z = self.sub, self.mul, self.zero
        return [x if y == z else sub(x, mul(q, y)) for x, y in zip(xs, ys)]

    # -- units -----------------------------------------------------------
    def is_unit(self, a) -> bool:
        return self.unit_inverse(a) is not None

    @abstractmethod
    def unit_inverse(self, a):
        """Return b with a*b == 1, or None if a is not a unit."""

    # -- Euclidean contract (only where is_euclidean) ----------------------
    def divmod(self, a, b):
        """Return (q, r) with a == q*b + r and norm(r) < norm(b) or r == 0."""
        raise UnsupportedRingError(f"{self.descriptor} has no division with remainder")

    def norm(self, a) -> int:
        raise UnsupportedRingError(f"{self.descriptor} has no Euclidean norm")

    def exact_div(self, a, b):
        """Divide a by b when a is an exact multiple of b; error otherwise."""
        q, r = self.divmod(a, b)
        if r != self.zero:
            raise ArithmeticError(
                f"{self.format(a)} is not an exact multiple of {self.format(b)}"
            )
        return q

    def canonical_unit(self, a):
        """A unit u such that u*a is the canonical associate of a.

        Over Z the canonical associate is nonnegative, over Fp[x] monic,
        over Zi in the quadrant re > 0, im >= 0 (and 0 for 0).
        """
        return self.one

    # -- enumeration and literals ------------------------------------------
    @abstractmethod
    def elements(self) -> Iterator:
        """The documented enumeration; terminates exactly for finite rings."""

    def take(self, count: int) -> list:
        return list(itertools.islice(self.elements(), count))

    @abstractmethod
    def parse(self, text: str): ...

    @abstractmethod
    def format(self, a) -> str: ...

    def __eq__(self, other):
        return isinstance(other, Ring) and self.descriptor == other.descriptor

    def __hash__(self):
        return hash(self.descriptor)

    def __repr__(self):
        return f"<ring {self.descriptor}>"


_INT_RE = re.compile(r"^[+-]?\d+$")


def _parse_int(text: str, what: str) -> int:
    s = "".join(text.split())
    if not _INT_RE.match(s):
        raise ParseError(f"malformed {what} literal: {text!r}")
    return int(s)


def _int_rank(c: int) -> int:
    # index of c in the enumeration 0, 1, -1, 2, -2, ...
    return 2 * c - 1 if c > 0 else -2 * c


class Integers(Ring):
    kind = "integers"
    is_domain = True
    is_euclidean = True
    is_finite = False
    zero = 0
    one = 1

    @property
    def descriptor(self) -> str:
        return "Z"

    def contains(self, a) -> bool:
        return isinstance(a, int) and not isinstance(a, bool)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def dots(self, u, vs) -> tuple:
        return tuple([sum(map(operator.mul, u, v)) for v in vs])

    def axpy(self, xs, q, ys) -> list:
        return [x - q * y for x, y in zip(xs, ys)]

    def unit_inverse(self, a):
        return a if a in (1, -1) else None

    def divmod(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        r = a % abs(b)  # least nonnegative remainder
        return (a - r) // b, r

    def exact_div(self, a, b):
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError(f"{a} is not an exact multiple of {b}")
        return q

    def norm(self, a) -> int:
        return abs(a)

    def canonical_unit(self, a):
        return -1 if a < 0 else 1

    def elements(self):
        yield 0
        k = 1
        while True:
            yield k
            yield -k
            k += 1

    def parse(self, text: str):
        return _parse_int(text, "integer")

    def format(self, a) -> str:
        return str(a)


class Modular(Ring):
    """Residues mod m.  Arithmetic is native; linear algebra over Z/m is
    done elsewhere by lifting to the integers, so the ring is deliberately
    not flagged Euclidean (pivoting on zero divisors is never attempted).
    """

    kind = "modular"
    is_domain = False
    is_euclidean = False
    is_finite = True

    def __init__(self, modulus: int):
        if not isinstance(modulus, int) or modulus < 2:
            raise ValueError("modulus must be an integer >= 2")
        self.modulus = modulus
        self.cardinality = modulus
        self.zero = 0
        self.one = 1 % modulus

    @property
    def descriptor(self) -> str:
        return f"Z/{self.modulus}"

    def contains(self, a) -> bool:
        return isinstance(a, int) and not isinstance(a, bool) and 0 <= a < self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def unit_inverse(self, a):
        g, x, _ = _xgcd(a, self.modulus)
        if g != 1:
            return None
        return x % self.modulus

    def elements(self):
        return iter(range(self.modulus))

    def parse(self, text: str):
        return _parse_int(text, "residue") % self.modulus

    def format(self, a) -> str:
        return str(a)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) and x*a + y*b = g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


class GaussianIntegers(Ring):
    kind = "gaussian-integers"
    is_domain = True
    is_euclidean = True
    is_finite = False
    zero = (0, 0)
    one = (1, 0)

    _UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))

    @property
    def descriptor(self) -> str:
        return "Zi"

    def contains(self, a) -> bool:
        return (
            isinstance(a, tuple)
            and len(a) == 2
            and all(isinstance(c, int) and not isinstance(c, bool) for c in a)
        )

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def sub(self, a, b):
        return (a[0] - b[0], a[1] - b[1])

    def mul(self, a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def neg(self, a):
        return (-a[0], -a[1])

    def unit_inverse(self, a):
        if a[0] * a[0] + a[1] * a[1] != 1:
            return None
        return (a[0], -a[1])  # conjugate, since the norm is 1

    def divmod(self, a, b):
        if b == (0, 0):
            raise ZeroDivisionError("division by zero")
        n = b[0] * b[0] + b[1] * b[1]
        # a * conj(b) = (re, im); quotient = nearest Gaussian integer
        re = a[0] * b[0] + a[1] * b[1]
        im = a[1] * b[0] - a[0] * b[1]
        q = (_round_nearest(re, n), _round_nearest(im, n))
        r = self.sub(a, self.mul(b, q))
        return q, r

    def norm(self, a) -> int:
        return a[0] * a[0] + a[1] * a[1]

    def canonical_unit(self, a):
        if a == (0, 0):
            return self.one
        for u in self._UNITS:
            z = self.mul(u, a)
            if z[0] > 0 and z[1] >= 0:
                return u
        raise AssertionError("unreachable: some rotation lands in the quadrant")

    def elements(self):
        yield (0, 0)
        s = 1
        while True:
            shell = []
            for a in range(-s, s + 1):
                rest = s - abs(a)
                for b in ((0,) if rest == 0 else (rest, -rest)):
                    shell.append((a, b))
            shell.sort(key=lambda z: (_int_rank(z[0]), _int_rank(z[1])))
            yield from shell
            s += 1

    def parse(self, text: str):
        s = "".join(text.split())
        if not s:
            raise ParseError("empty Gaussian integer literal")
        re_part = None
        im_part = None
        for term in _split_signed_terms(s):
            if term.endswith("i"):
                digits = term[:-1]
                if digits in ("", "+"):
                    value = 1
                elif digits == "-":
                    value = -1
                elif _INT_RE.match(digits):
                    value = int(digits)
                else:
                    raise ParseError(f"malformed Gaussian integer literal: {text!r}")
                if im_part is not None:
                    raise ParseError(f"malformed Gaussian integer literal: {text!r}")
                im_part = value
            else:
                if not _INT_RE.match(term) or re_part is not None:
                    raise ParseError(f"malformed Gaussian integer literal: {text!r}")
                re_part = int(term)
        return (re_part or 0, im_part or 0)

    def format(self, a) -> str:
        re_part, im_part = a
        if im_part == 0:
            return str(re_part)
        if im_part == 1:
            im_text = "i"
        elif im_part == -1:
            im_text = "-i"
        else:
            im_text = f"{im_part}i"
        if re_part == 0:
            return im_text
        sign = "+" if im_part > 0 else ""
        return f"{re_part}{sign}{im_text}"


def _round_nearest(num: int, den: int) -> int:
    # den > 0; nearest integer to num/den, ties rounded up (deterministic)
    return (2 * num + den) // (2 * den)


def _split_signed_terms(s: str) -> list[str]:
    """Split ``a+b-c`` into signed terms; exponents carry no signs here."""
    terms = []
    start = 0
    for idx in range(1, len(s)):
        if s[idx] in "+-":
            terms.append(s[start:idx])
            start = idx
    terms.append(s[start:])
    if any(t in ("", "+", "-") for t in terms):
        raise ParseError(f"malformed literal: {s!r}")
    return terms


_POLY_COEFF_TERM = re.compile(r"^([+-]?\d+)(?:\*x(?:\^(\d+))?)?$")
_POLY_BARE_TERM = re.compile(r"^([+-]?)x(?:\^(\d+))?$")


class _PolynomialRing(Ring):
    """Polynomials in one variable over the coefficient ring ``Z`` or ``Z/p``,
    which checks the coefficients and orders them in the enumeration."""

    is_finite = False
    zero = ()
    one = (1,)

    def __init__(self, coefficients: Ring):
        self.coefficients = coefficients
        self._modulus = coefficients.cardinality  # p over Z/p; None over Z

    def contains(self, a) -> bool:
        return (
            isinstance(a, tuple)
            and all(map(self.coefficients.contains, a))
            and (not a or a[-1] != 0)
        )

    def add(self, a, b):
        if len(a) == 1 == len(b):
            c = (a[0] + b[0]) % self._modulus if self._modulus else a[0] + b[0]
            return (c,) if c else ()
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return a
        if self._modulus:
            p = self._modulus
            out = [(x + y) % p for x, y in zip(a, b)]
        else:
            out = [x + y for x, y in zip(a, b)]
        if len(a) > len(b):
            return (*out, *a[len(b):])  # the longer operand's leading term survives
        return _strip(out)

    def sub(self, a, b):
        if not b:
            return a
        if self._modulus:
            p = self._modulus
            out = [(x - y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0)]
        else:
            out = [x - y for x, y in itertools.zip_longest(a, b, fillvalue=0)]
        return _strip(out)

    def mul(self, a, b):
        if len(a) == 1 == len(b):  # both rings are domains: the product is nonzero
            return ((a[0] * b[0]) % self._modulus,) if self._modulus else (a[0] * b[0],)
        if not a or not b:
            return ()
        if (len(a) * len(b) >= _KRONECKER_MIN_WORK and len(a) > 1 and len(b) > 1
                and self._modulus):
            out = _kronecker_mul(a, b, self._modulus)
            if out is not None:
                return out
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        if self._modulus:
            p = self._modulus
            for k, c in enumerate(out):
                out[k] = c % p
        return tuple(out)  # both rings are domains: the leading term survives

    def neg(self, a):
        if not a:
            return ()
        if self._modulus:
            p = self._modulus
            return tuple(-c % p for c in a)
        return tuple(-c for c in a)

    def axpy(self, xs, q, ys) -> list:
        """The row [x - q*y], each entry in one pass over unreduced int
        coefficients reduced mod p once; pairs that mul packs stay
        sub(x, mul(q, y))."""
        if not q:
            return list(xs)
        p = self._modulus
        # the shortest y that mul packs with q (never, over Z or for constant q)
        packs_at = max(2, -(-_KRONECKER_MIN_WORK // len(q))) if p and len(q) > 1 else sys.maxsize
        terms = [(i, c) for i, c in enumerate(q) if c]
        out = []
        for x, y in zip(xs, ys):
            if not y:
                out.append(x)
            elif len(y) >= packs_at:
                out.append(self.sub(x, self.mul(q, y)))
            else:
                acc = list(x)
                acc.extend([0] * (len(q) + len(y) - 1 - len(x)))
                for i, c in terms:
                    for j, b in enumerate(y, i):
                        acc[j] -= c * b
                out.append(_strip([c % p for c in acc] if p else acc))
        return out

    def elements(self):
        yield ()
        count = self.coefficients.cardinality
        grade = 1
        while True:
            for degree in range(grade):
                height = grade - degree
                if count is not None and height >= count:
                    continue
                pool = self.coefficients.take(height + 1)
                for ranks in itertools.product(range(height + 1), repeat=degree + 1):
                    if ranks[-1] == 0 or max(ranks) != height:
                        continue
                    yield tuple(pool[r] for r in ranks)
            grade += 1

    def parse(self, text: str):
        s = "".join(text.split())
        if not s:
            raise ParseError("empty polynomial literal")
        out: list[int] = []
        for term in _split_signed_terms(s):
            m = _POLY_COEFF_TERM.match(term)
            if m:
                coeff = int(m.group(1))
                degree = 0 if "x" not in term else int(m.group(2) or 1)
            else:
                m = _POLY_BARE_TERM.match(term)
                if not m:
                    raise ParseError(f"malformed polynomial literal: {text!r}")
                coeff = -1 if m.group(1) == "-" else 1
                degree = int(m.group(2) or 1)
            out.extend([0] * (degree + 1 - len(out)))
            out[degree] += coeff
        if self._modulus:
            out = [c % self._modulus for c in out]
        return _strip(out)

    def format(self, a) -> str:
        if not a:
            return "0"
        pieces = []
        for degree in range(len(a) - 1, -1, -1):
            c = a[degree]
            if c == 0:
                continue
            if degree == 0:
                body = str(c)
            else:
                xpow = "x" if degree == 1 else f"x^{degree}"
                if c == 1:
                    body = xpow
                elif c == -1:
                    body = f"-{xpow}"
                else:
                    body = f"{c}*{xpow}"
            if pieces and not body.startswith("-"):
                pieces.append("+")
            pieces.append(body)
        return "".join(pieces)


# Products over Z/p of operands with at least 2 coefficients each and at
# least this many coefficient pairs go through _kronecker_mul.  Below it the
# fixed cost of packing exceeds schoolbook's; on the products of a poly-fp5
# benchmark round, total mul time is flat for thresholds from 28 to 50.
_KRONECKER_MIN_WORK = 30

# (item size in bytes, unsigned array code) for the slot widths 1, 2, 4, 8,
# read from the platform's array module rather than assumed.
_SLOT_CODES = tuple(sorted({array(code).itemsize: code for code in "QLIHB"}.items()))


def _kronecker_mul(a, b, p):
    """The product of a and b over Z/p by Kronecker substitution, or None
    when a slot would need more than 8 bytes.

    Each operand is packed into one int, one coefficient per fixed-width
    slot; a slot holds min(len(a), len(b)) * (p-1)**2, the largest
    coefficient of the integer product, so slots never carry into each
    other and the product's slots are its coefficients.
    """
    bits = (min(len(a), len(b)) * (p - 1) ** 2).bit_length()
    for size, code in _SLOT_CODES:
        if 8 * size >= bits:
            break
    else:
        return None
    order = sys.byteorder
    x = int.from_bytes(array(code, a).tobytes(), order)
    y = int.from_bytes(array(code, b).tobytes(), order)
    out = array(code)
    out.frombytes((x * y).to_bytes((len(a) + len(b) - 1) * size, order))
    return tuple([c % p for c in out])  # the leading term survives: Z/p is a field


def _strip(coeffs: list[int]) -> tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class IntegerPolynomials(_PolynomialRing):
    kind = "integer-polynomials"
    is_domain = True
    is_euclidean = False

    def __init__(self):
        super().__init__(Integers())

    @property
    def descriptor(self) -> str:
        return "Z[x]"

    def unit_inverse(self, a):
        return a if a in ((1,), (-1,)) else None

    def canonical_unit(self, a):
        return (-1,) if a and a[-1] < 0 else (1,)

    def exact_div(self, a, b):
        """Exact polynomial division over Z; errors unless b divides a."""
        if not b:
            raise ZeroDivisionError("division by zero")
        if not a:
            return ()
        if len(a) < len(b):
            raise ArithmeticError("not an exact multiple")
        rem = list(a)
        quot = [0] * (len(a) - len(b) + 1)
        lead = b[-1]
        for k in range(len(a) - len(b), -1, -1):
            top = rem[k + len(b) - 1]
            if top % lead != 0:
                raise ArithmeticError("not an exact multiple")
            c = top // lead
            quot[k] = c
            if c:
                for idx, bc in enumerate(b):
                    rem[k + idx] -= c * bc
        if any(rem):
            raise ArithmeticError("not an exact multiple")
        return _strip(quot)


class PrimeFieldPolynomials(_PolynomialRing):
    kind = "poly-over-prime-field"
    is_domain = True
    is_euclidean = True

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        super().__init__(Modular(p))
        self.p = p

    @property
    def descriptor(self) -> str:
        return f"Fp[x]/{self.p}"

    def unit_inverse(self, a):
        if len(a) != 1:
            return None
        return (pow(a[0], -1, self.p),)

    def divmod(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero")
        p = self.p
        rem = list(a)
        if len(a) < len(b):
            return (), a
        quot = [0] * (len(a) - len(b) + 1)
        inv_lead = pow(b[-1], -1, p)
        for k in range(len(a) - len(b), -1, -1):
            c = (rem[k + len(b) - 1] * inv_lead) % p
            if c:
                quot[k] = c
                for idx, bc in enumerate(b):
                    rem[k + idx] = (rem[k + idx] - c * bc) % p
        return _strip(quot), _strip(rem)

    def norm(self, a) -> int:
        return len(a) - 1  # degree; callers never ask for the zero polynomial

    def canonical_unit(self, a):
        if not a:
            return self.one
        return (pow(a[-1], -1, self.p),)


# Miller-Rabin on the primes up to 41 as bases decides primality exactly
# below _PRIME_TEST_LIMIT (Sorenson and Webster 2015, psi_13).  Larger p is
# refused: no test here is both exact and quick for it.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    if not isinstance(p, int) or p < 2:
        return False
    if p >= _PRIME_TEST_LIMIT:
        raise ValueError(
            f"{p} is too large for Fp[x]/p: primality is decided only below "
            f"{_PRIME_TEST_LIMIT} (about 3.3e24)"
        )
    for q in _PRIME_BASES:
        if p % q == 0:
            return p == q
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 == d * 2**s with d odd
    d = (p - 1) >> s
    for base in _PRIME_BASES:
        x = pow(base, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


_RING_TEXT = re.compile(r"^(Z|Zi|Z\[x\]|Z/(\d+)|Fp\[x\]/(\d+))$")


def ring_from_text(text: str) -> Ring:
    """Parse a ring descriptor: ``Z``, ``Z/6``, ``Fp[x]/5``, ``Z[x]``, ``Zi``."""
    s = "".join(text.split())
    m = _RING_TEXT.match(s)
    if not m:
        raise ParseError(f"unknown ring descriptor: {text!r}")
    if s == "Z":
        return Integers()
    if s == "Zi":
        return GaussianIntegers()
    if s == "Z[x]":
        return IntegerPolynomials()
    if m.group(2) is not None:
        modulus = int(m.group(2))
        if modulus < 2:
            raise ParseError(f"modulus must be >= 2: {text!r}")
        return Modular(modulus)
    p = int(m.group(3))
    if not _is_prime(p):
        raise ParseError(f"{p} is not prime in {text!r}")
    return PrimeFieldPolynomials(p)
