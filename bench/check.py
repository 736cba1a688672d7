"""Independent checks of rigidlin's outputs.

Nothing here imports rigidlin.  Elements are read in the library's
documented value format (``int`` over Z; low-to-high coefficient tuples
without trailing zeros over Fp[x]) and every identity is re-derived with
this module's own arithmetic: plain ``int`` for Z and a small ``Fp[x]``
routine for the polynomial workloads.  Each ``check_*`` function returns
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import itertools
import math
import re


class IntegerOps:
    """Z with the canonical associates rigidlin promises (nonnegative)."""

    name = "Z"
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def divmod(self, a, b):
        return divmod(a, b)

    def exact(self, a, b):
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError(f"{b} does not divide {a}")
        return q

    def divides(self, a, b):
        return b == 0 if a == 0 else b % a == 0

    def is_unit(self, a):
        return a in (1, -1)

    def is_canonical(self, a):
        return a >= 0

    def is_reduced(self, entry, pivot):
        return 0 <= entry < pivot

    def gcd(self, a, b):
        return math.gcd(a, b)

    def dot(self, row, col):
        return sum(x * y for x, y in zip(row, col))

    def parse(self, text):
        return int(text)

    def size(self, a):
        """Decimal digits of the absolute value."""
        return len(str(abs(a)))


_TERM = re.compile(r"^(\d*)\*?(x(?:\^(\d+))?)?$")


class PolynomialOps:
    """Fp[x] on coefficient tuples; canonical associates are monic."""

    one = (1,)
    zero = ()

    def __init__(self, p: int):
        self.p = p
        self.name = f"Fp[x]/{p}"

    def _strip(self, coeffs):
        p = self.p
        out = [c % p for c in coeffs]
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def add(self, a, b):
        n = max(len(a), len(b))
        return self._strip([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                            for i in range(n)])

    def neg(self, a):
        return self._strip([-c for c in a])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return self._strip(out)

    def divmod(self, a, b):
        if not b:
            raise ZeroDivisionError("division by the zero polynomial")
        p = self.p
        rem = list(a)
        quot = [0] * max(len(a) - len(b) + 1, 0)
        inv = pow(b[-1], -1, p)
        for k in range(len(a) - len(b), -1, -1):
            c = rem[k + len(b) - 1] * inv % p
            if c:
                quot[k] = c
                for i, y in enumerate(b):
                    rem[k + i] = (rem[k + i] - c * y) % p
        return self._strip(quot), self._strip(rem)

    def exact(self, a, b):
        q, r = self.divmod(a, b)
        if r:
            raise ArithmeticError("inexact polynomial division")
        return q

    def divides(self, a, b):
        return not b if not a else not self.divmod(b, a)[1]

    def is_unit(self, a):
        return len(a) == 1

    def is_canonical(self, a):
        return not a or a[-1] == 1

    def is_reduced(self, entry, pivot):
        return len(entry) < len(pivot)

    def gcd(self, a, b):
        while b:
            a, b = b, self.divmod(a, b)[1]
        if not a:
            return a
        inv = pow(a[-1], -1, self.p)
        return tuple(c * inv % self.p for c in a)

    def dot(self, row, col):
        """Sum of products by packing each polynomial into one integer,
        so that a whole dot product costs a few big-integer products."""
        pairs = [(x, y) for x, y in zip(row, col) if x and y]
        if not pairs:
            return ()
        longest = max(min(len(x), len(y)) for x, y in pairs)
        bound = len(pairs) * longest * (self.p - 1) ** 2
        bits = bound.bit_length() + 1
        total = 0
        for x, y in pairs:
            total += _pack(x, bits) * _pack(y, bits)
        mask = (1 << bits) - 1
        out = []
        while total:
            out.append(total & mask)
            total >>= bits
        return self._strip(out)

    def parse(self, text):
        """Read rigidlin's polynomial literal, e.g. ``3*x^2+x+4``."""
        s = "".join(text.split())
        coeffs: dict[int, int] = {}
        for term in re.findall(r"[+-]?[^+-]+", s):
            sign = -1 if term.startswith("-") else 1
            m = _TERM.match(term.lstrip("+-"))
            if not m or (not m.group(1) and not m.group(2)):
                raise ValueError(f"bad polynomial literal {text!r}")
            c = int(m.group(1)) if m.group(1) else 1
            degree = 0 if not m.group(2) else int(m.group(3) or 1)
            coeffs[degree] = coeffs.get(degree, 0) + sign * c
        out = [0] * (max(coeffs) + 1)
        for degree, c in coeffs.items():
            out[degree] = c
        return self._strip(out)

    def size(self, a):
        """Degree (0 for constants and for zero)."""
        return max(len(a) - 1, 0)


def _pack(poly, bits):
    v = 0
    for c in reversed(poly):
        v = (v << bits) | c
    return v


# -- dense matrices as tuples of row tuples -----------------------------------

def identity(ops, n):
    return tuple(tuple(ops.one if i == j else ops.zero for j in range(n)) for i in range(n))


def matmul(ops, a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(ops.dot(row, col) for col in cols) for row in a)


def matvec(ops, a, v):
    return tuple(ops.dot(row, v) for row in a)


def eliminate(ops, rows):
    """Fraction-free (Bareiss) row echelon: returns (rank, det), det being
    the determinant for a square matrix and None otherwise."""
    m = [list(r) for r in rows]
    height, width = len(m), len(m[0])
    z = ops.zero
    prev = ops.one
    sign = 1
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, height) if m[i][c] != z), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        for i in range(r + 1, height):
            for j in range(c + 1, width):
                num = ops.sub(ops.mul(m[i][j], m[r][c]), ops.mul(m[i][c], m[r][j]))
                m[i][j] = ops.exact(num, prev)
            m[i][c] = z
        prev = m[r][c]
        r += 1
        if r == height:
            break
    if height != width:
        return r, None
    if r < height:
        return r, z
    return r, prev if sign > 0 else ops.neg(prev)


def det(ops, rows):
    return eliminate(ops, rows)[1]


def _unit_multiple(ops, value, reference):
    """Whether value == u * reference for a unit u (reference nonzero)."""
    if reference == ops.zero:
        return False
    q, r = ops.divmod(value, reference)
    return r == ops.zero and ops.is_unit(q)


# -- normal forms -----------------------------------------------------------

def check_det(got, det_a):
    return [] if got == det_a else [f"det: got {got!r}, independent value {det_a!r}"]


def check_hnf(ops, a, h, u, det_a):
    """U*A = H, U unimodular, H echelon with canonical and reduced pivots.

    A is square and nonsingular, so det(U) = det(H)/det(A) and U is
    unimodular exactly when det(H) is a unit multiple of det(A)."""
    problems = []
    n = len(a)
    if matmul(ops, u, a) != h:
        problems.append("HNF: U*A != H")
    z = ops.zero
    pivots = []
    for i, row in enumerate(h):
        col = next((j for j, x in enumerate(row) if x != z), None)
        if col is None:
            problems.append(f"HNF: zero row {i} in a nonsingular form")
            return problems
        if pivots and col <= pivots[-1]:
            problems.append(f"HNF: row {i} breaks the echelon shape")
            return problems
        pivots.append(col)
        if not ops.is_canonical(row[col]):
            problems.append(f"HNF: pivot {i} is not canonical")
        for k in range(i):
            if not ops.is_reduced(h[k][col], row[col]):
                problems.append(f"HNF: entry ({k},{col}) above pivot {i} is not reduced")
    det_h = ops.one
    for i in range(n):
        det_h = ops.mul(det_h, h[i][pivots[i]])
    if not _unit_multiple(ops, det_h, det_a):
        problems.append("HNF: det(H) is not a unit multiple of det(A), so U is not unimodular")
    return problems


def check_snf(ops, a, d, u, v, det_a):
    """U*A*V = D diagonal with a canonical divisibility chain, the product
    of the d_i a unit multiple of det(A) (so U and V are unimodular), and
    rank(A) equal to the number of nonzero d_i."""
    problems = []
    if matmul(ops, matmul(ops, u, a), v) != d:
        problems.append("SNF: U*A*V != D")
    z = ops.zero
    if any(d[i][j] != z for i in range(len(d)) for j in range(len(d[0])) if i != j):
        problems.append("SNF: D is not diagonal")
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for i, x in enumerate(diag):
        if not ops.is_canonical(x):
            problems.append(f"SNF: d_{i} is not canonical")
        if i + 1 < len(diag) and not ops.divides(x, diag[i + 1]):
            problems.append(f"SNF: d_{i} does not divide d_{i + 1}")
    product = ops.one
    for x in diag:
        product = ops.mul(product, x)
    if not _unit_multiple(ops, product, det_a):
        problems.append("SNF: prod d_i is not a unit multiple of det(A)")
    rank, _ = eliminate(ops, a)
    if rank != sum(1 for x in diag if x != z):
        problems.append("SNF: rank(A) != number of nonzero d_i")
    return problems


def check_kernel(ops, a, basis):
    """A*v = 0, cols - rank(A) vectors, primitive: gcd of maximal minors 1."""
    problems = []
    cols = len(a[0])
    zero_vec = tuple(ops.zero for _ in a)
    if any(matvec(ops, a, v) != zero_vec for v in basis):
        problems.append("kernel: A*v != 0")
    rank, _ = eliminate(ops, a)
    if len(basis) != cols - rank:
        problems.append(f"kernel: {len(basis)} vectors, expected {cols - rank}")
        return problems
    if not basis:
        return problems
    g = ops.zero
    for chosen in itertools.combinations(range(cols), len(basis)):
        g = ops.gcd(g, det(ops, [[v[j] for j in chosen] for v in basis]))
        if ops.is_unit(g):
            return problems
    problems.append("kernel: basis is dependent or not primitive (gcd of maximal minors != 1)")
    return problems


def check_stream(ops, a, vectors, count):
    problems = []
    zero_vec = tuple(ops.zero for _ in a)
    if len(vectors) != count:
        problems.append(f"stream: {len(vectors)} vectors, expected {count}")
    if len(set(vectors)) != len(vectors):
        problems.append("stream: vectors are not pairwise distinct")
    if any(all(x == ops.zero for x in v) for v in vectors):
        problems.append("stream: zero vector emitted")
    if any(matvec(ops, a, v) != zero_vec for v in vectors):
        problems.append("stream: A*v != 0")
    return problems


def check_inverse(ops, u, inv):
    return [] if matmul(ops, inv, u) == identity(ops, len(u)) else ["inverse: inv*U != I"]


def transform_size(ops, *matrices):
    """Largest entry size (digits over Z, degree over Fp[x])."""
    return max(ops.size(x) for m in matrices for row in m for x in row)


# -- suite reports ------------------------------------------------------------

def parse_matrix(ops, text):
    return tuple(tuple(ops.parse(cell) for cell in row.split(",")) for row in text.split(";"))


def _sigma(n, k):
    return k + n if k <= n else k - n


_TOKEN = re.compile(r"^(e|rl|rs)\(([^()]*)\)(\^-1)?$")


def evaluate_word(ops, text, kind, n):
    """Product of the generators of a word, from their definitions: e(i,j,r)
    is I + r E_ij; rl(i,a) is I + a E_{i,sigma i}; rs(i,j,a) is
    I + a E_ij - a' E_{sigma j, sigma i}, with a' = epsilon*a when exactly
    one of i, j lies in the first block (epsilon = -1 symplectic, +1
    orthogonal) and a' = a otherwise.  ``^-1`` negates the parameter."""
    size = n if kind == "en" else 2 * n
    eps = ops.neg(ops.one) if kind == "esp" else ops.one
    acc = identity(ops, size)
    for piece in filter(None, text.split(";")):
        m = _TOKEN.match("".join(piece.split()))
        if not m:
            raise ValueError(f"bad word token {piece!r}")
        tag, args = m.group(1), m.group(2).split(",")
        a = ops.parse(args[-1])
        if m.group(3):
            a = ops.neg(a)
        g = [list(row) for row in identity(ops, size)]
        i = int(args[0])
        if tag == "e":
            g[i - 1][int(args[1]) - 1] = a
        elif tag == "rl":
            g[i - 1][_sigma(n, i) - 1] = a
        else:
            j = int(args[1])
            mirrored = ops.mul(eps, a) if (i <= n) != (j <= n) else a
            g[i - 1][j - 1] = a
            g[_sigma(n, j) - 1][_sigma(n, i) - 1] = ops.neg(mirrored)
        acc = matmul(ops, acc, tuple(map(tuple, g)))
    return acc


def gram(ops, kind, n):
    lower = ops.neg(ops.one) if kind == "symplectic" else ops.one
    grid = [[ops.zero] * (2 * n) for _ in range(2 * n)]
    for k in range(n):
        grid[k][n + k] = ops.one
        grid[n + k][k] = lower
    return tuple(map(tuple, grid))


def _preserves(ops, m, j):
    return matmul(ops, matmul(ops, tuple(zip(*m)), j), m) == j


def _fixes_image(ops, t, g):
    image = tuple(row[0] for row in g)  # g * e1
    return matvec(ops, t, image) == image


def _is_shear(ops, t):
    return tuple(row[0] for row in t) == tuple(ops.one if i == 0 else ops.zero for i in range(len(t)))


def check_report(ops, report, suite, params, expected_trials):
    """A report passes with the requested trial count and parameters, and
    every witness kept in its samples satisfies its defining identity."""
    problems = []
    if report["verdict"] != "pass" or report["failures"]:
        problems.append(f"{suite}: verdict {report['verdict']} with {len(report['failures'])} failures")
    if report["ring"] != ops.name:
        problems.append(f"{suite}: ring {report['ring']} != {ops.name}")
    if expected_trials is not None and report["trials"] != expected_trials:
        problems.append(f"{suite}: {report['trials']} trials, requested {expected_trials}")
    for key, value in params.items():
        if report["params"].get(key) != value:
            problems.append(f"{suite}: parameter {key} is {report['params'].get(key)!r}, passed {value!r}")
    try:
        problems += _check_samples(ops, suite, params, report)
    except (ValueError, IndexError, KeyError) as exc:
        problems.append(f"{suite}: unreadable sample ({exc})")
    return problems


def _check_samples(ops, suite, params, report):
    problems = []
    for sample in report["samples"]:
        if suite == "lemma-ke":
            words = [evaluate_word(ops, w, "en", params["n"]) for w in sample["conjugators"]]
            for text in sample["witnesses"]:
                t = parse_matrix(ops, text)
                if not _is_shear(ops, t) or not all(_fixes_image(ops, t, g) for g in words):
                    problems.append("lemma-ke: witness fails T*(g e1) == g e1")
        elif suite == "lemma-new":
            t = parse_matrix(ops, sample["witness"])
            q = parse_matrix(ops, sample["conjugator"])
            t2 = parse_matrix(ops, sample["conjugate"])
            if matmul(ops, q, t2) != matmul(ops, t, q) or not _is_shear(ops, t2):
                problems.append("lemma-new: conjugate fails q*T' == T*q")
        elif suite == "transvections":
            kind, n_text = sample["context"].split()[:2]
            n = int(n_text.split("=")[1])
            if not _preserves(ops, parse_matrix(ops, sample["tau"]), gram(ops, kind, n)):
                problems.append("transvections: tau fails M^T*J*M == J")
        elif suite == "t-a-witnesses":
            w = parse_matrix(ops, sample["witness"])
            kind, n = next((k, n) for k, n in params["configs"] if 2 * n == len(w))
            g = evaluate_word(ops, sample["g"], "esp" if kind == "symplectic" else "eo", n)
            if not _fixes_image(ops, w, g):
                problems.append("t-a-witnesses: witness fails T*(g e1) == g e1")
            if not _preserves(ops, w, gram(ops, kind, n)) or not _preserves(ops, g, gram(ops, kind, n)):
                problems.append("t-a-witnesses: M^T*J*M != J")
        elif suite == "forms-generators":
            if sample["checked"] != report["trials"]:
                problems.append("forms-generators: sample count disagrees with trials")
    return problems
