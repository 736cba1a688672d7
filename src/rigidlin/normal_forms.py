"""Hermite and Smith normal forms, kernel modules and solution streams.

The normal forms run over the Euclidean rings (Z, Zi, Fp[x]).  Every
entry point asks ``_euclidean_elimination`` for the ring to eliminate
in, which is ``matrix._elimination_ring`` of the input's ring, and
refuses a ring whose elimination ring is not Euclidean (Z[x]).  Over a
residue ring Z/m that ring is Z: the forms are the integer forms of the
lifted matrix reduced mod m, with each Hermite pivot and each Smith
diagonal entry normalised to its gcd with m; kernels over Z/m lift the
system augmented with the modulus relations.  Row operations go through
the ring's ``axpy`` kernel, one call per row.
There is one elimination engine, in two passes.  ``_echelon`` brings the
rows to echelon form, pivoting on the entry of smallest nonzero norm
(ties broken by lowest row index) and clearing below it with the
least-remainder quotients of ``ring.quotient``, which over Z leave at
most half the pivot; kernels and row-span membership read this echelon
alone.  The Hermite form then reduces each pivot row by the finished
pivot rows below it, bottom-up, with ``divmod``'s one remainder per
residue class, which keeps H canonical and the transform's entries near
their final size.  The Smith form is built from it by alternating
Hermite passes on the rows and on the columns (Kannan–Bachem).

Kernels are returned as ``KernelModule`` values and expanded into
pairwise-distinct solution streams by walking coefficient tuples in the
ring's documented enumeration order.  Each identity is checked once,
where it is emitted: A v = 0 on every kernel generator, and again on
every vector a solution stream yields, since a stream of combinations
is a separate emission.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .errors import IdentityViolation, UnsupportedRingError
from .matrix import Matrix, _elimination_ring, vec_is_zero
from .rings import Modular, Ring


@dataclass(frozen=True)
class KernelModule:
    """Generators of {x : A x = 0} inside ring^ambient_dim.

    Over a domain the generators are a basis (linearly independent over
    the fraction field); over a residue ring they are a generating set.
    """

    ring: Ring
    ambient_dim: int
    basis: tuple[tuple, ...]


# -- row operations on (matrix, transform) pairs ----------------------------

def _row_scale(ring: Ring, rows: list, target: int, u):
    mul = ring.mul
    rows[target] = [mul(u, x) for x in rows[target]]


def _identity_rows(ring: Ring, n: int) -> list:
    return [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]


def _echelon(ring: Ring, h: list, u: list) -> list:
    """Row echelon form in place: brings h to row-echelon form by unimodular
    row operations and applies each of them to the rows of u.  Each pivot is
    the entry of smallest norm left in its column (lowest row index on
    ties); the entries below it are divided by it with ``ring.quotient``,
    whose remainders have the least norm (over Z at most half the pivot's),
    until they are all zero, and it is scaled to its canonical associate.
    The entries above the pivots are left as they are.  Returns the pivot
    positions [(row, col)], row k holding the k-th pivot."""
    m = len(h)
    z = ring.zero
    axpy, quotient = ring.axpy, ring.quotient
    pivots = []
    for c in range(len(h[0])):
        r = len(pivots)
        if r >= m:
            break
        if all(h[i][c] == z for i in range(r, m)):
            continue
        while True:
            _, pivot = min(
                (ring.norm(h[i][c]), i) for i in range(r, m) if h[i][c] != z
            )
            if pivot != r:
                h[r], h[pivot] = h[pivot], h[r]
                u[r], u[pivot] = u[pivot], u[r]
            clean = True
            tail = h[r][c:]  # the pivot row is zero before column c
            for i in range(r + 1, m):
                if h[i][c] == z:
                    continue
                q = quotient(h[i][c], h[r][c])
                if q != z:
                    h[i][c:] = axpy(h[i][c:], q, tail)
                    u[i] = axpy(u[i], q, u[r])
                if h[i][c] != z:
                    clean = False
            if clean:
                break
        cu = ring.canonical_unit(h[r][c])
        if cu != ring.one:
            _row_scale(ring, h, r, cu)
            _row_scale(ring, u, r, cu)
        pivots.append((r, c))
    return pivots


def _hnf_core(ring: Ring, h: list, u: list) -> tuple[list, list]:
    """Row Hermite form in place: ``_echelon``, then each pivot row, from
    the second-to-last up to the first, is reduced left to right by the
    pivot rows below it, which are already final.  Every row operation is
    applied to the rows of u as well.  Returns (h, u).

    The reduction only combines pivot rows, so the rows of u facing zero
    rows of h are those of the echelon.  As ``divmod`` leaves one
    remainder per residue class, the unit upper-triangular transform that
    reduces the echelon is unique, so (h, u) do not depend on the order of
    the reduction; bottom-up, its multipliers come from reduced entries and
    the rows of u stay near their final size."""
    pivots = _echelon(ring, h, u)
    z = ring.zero
    axpy = ring.axpy
    for k in range(len(pivots) - 2, -1, -1):
        row = h[k]
        for r, c in pivots[k + 1:]:
            if row[c] != z:
                q, _ = ring.divmod(row[c], h[r][c])
                if q != z:
                    row[c:] = axpy(row[c:], q, h[r][c:])
                    u[k] = axpy(u[k], q, u[r])
    return h, u


def _snf_core(ring: Ring, d: list) -> tuple[list, list, list]:
    """Smith form (d, u, v) with u*a*v == d: row Hermite passes on d and on
    its transpose alternate until d is diagonal with a divisibility chain."""
    u, vt = _identity_rows(ring, len(d)), _identity_rows(ring, len(d[0]))
    z, minus_one = ring.zero, ring.neg(ring.one)
    work, transform, other = d, u, vt
    while True:
        _hnf_core(ring, work, transform)
        if all(x == z for i, row in enumerate(work) for j, x in enumerate(row) if i != j):
            diag = [work[k][k] for k in range(min(len(work), len(work[0])))]
            offender = next(((i, j) for i, j in itertools.combinations(range(len(diag)), 2)
                             if diag[i] != z and ring.divmod(diag[j], diag[i])[1] != z), None)
            if offender is None:
                break
            # row i += row j; the next pass, on the transpose, takes their gcd
            i, j = offender
            work[i] = ring.axpy(work[i], minus_one, work[j])
            transform[i] = ring.axpy(transform[i], minus_one, transform[j])
        work = [list(col) for col in zip(*work)]
        transform, other = other, transform
    if transform is vt:
        work = [list(col) for col in zip(*work)]
    return work, u, [list(col) for col in zip(*vt)]


def _euclidean_elimination(ring: Ring, what: str) -> Ring:
    """The Euclidean ring that elimination over ring runs in, which is
    ``_elimination_ring(ring)``, or UnsupportedRingError naming what has
    no computation over ring."""
    work = _elimination_ring(ring)
    if not work.is_euclidean:
        raise UnsupportedRingError(f"no {what} over {ring.descriptor}")
    return work


def _normal_form(a: Matrix, name: str, core) -> tuple[Matrix, ...]:
    """Run core(work, rows) over the elimination ring of a.  Where that is
    a lift, each result is reduced mod m and ``_residue_pivots`` normalises
    the first result together with the second, its left transform."""
    ring = a.ring
    work = _euclidean_elimination(ring, name)
    outs = core(work, [list(row) for row in a.entries])
    if work is not ring:
        m = ring.modulus
        outs = [[[x % m for x in row] for row in out] for out in outs]
        _residue_pivots(ring, outs[0], outs[1])
    return tuple(Matrix._raw(ring, tuple(map(tuple, out))) for out in outs)


def hermite_normal_form(a: Matrix) -> tuple[Matrix, Matrix]:
    """Return (H, U) with U*A = H, det(U) a unit, H in row-echelon form.

    Over the Euclidean rings pivots are normalized to their canonical
    associates (positive over Z, monic over Fp[x], first quadrant over Zi)
    and the entries above each pivot are reduced, which makes H canonical.
    Over Z/m, H is the integer form of the lift reduced mod m, with each
    row's leading entry h replaced by gcd(h, m) and the entries above it
    reduced modulo that gcd.  This is not a Howell form: row-equivalent
    matrices over Z/m can still have different H, and a row whose integer
    pivot is a multiple of m loses that pivot.
    """
    return _normal_form(a, "Hermite form",
                        lambda ring, rows: _hnf_core(ring, rows, _identity_rows(ring, len(rows))))


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (D, U, V) with U*A*V = D diagonal, d_i | d_{i+1}, U, V unimodular.

    D is reached by alternating Hermite passes on the rows and on the
    columns of A; where d_i does not divide a later d_j, row j is added to
    row i and the alternation resumes.  Over Z/m each d_i is then replaced
    by gcd(d_i, m), its canonical associate, so equivalent matrices share D.
    """
    return _normal_form(a, "Smith form", _snf_core)


def _residue_pivots(ring: Modular, h_rows: list, u_rows: list):
    """Normalise in place the leading entries of the rows of h over Z/m,
    applying each row operation to u as well, so U A = H (or U A V = D)
    still holds.

    The leading entry of row r is w gcd(h, m) for a unit w: row r is
    scaled by w^-1, and the entries above the new pivot g are reduced
    modulo g.  On a Smith diagonal this sets each D_ii to gcd(d_i, m).
    """
    m = ring.modulus
    for r, row in enumerate(h_rows):
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            continue
        g = math.gcd(row[c], m)
        step = m // g
        w = next(w for w in range(row[c] // g % step, m, step) if math.gcd(w, m) == 1)
        w_inv = pow(w, -1, m)
        _row_scale(ring, h_rows, r, w_inv)
        _row_scale(ring, u_rows, r, w_inv)
        for i in range(r):
            q = h_rows[i][c] // g
            if q:
                h_rows[i] = ring.axpy(h_rows[i], q, h_rows[r])
                u_rows[i] = ring.axpy(u_rows[i], q, u_rows[r])


def _residue_lift(a: Matrix) -> tuple:
    """The rows of a over Z/m as integers, followed by the rows m e_k: their
    span over Z is the preimage of the row span of a over Z/m."""
    m = a.ring.modulus
    return a.entries + tuple(
        tuple(m if k == i else 0 for k in range(a.cols)) for i in range(a.cols))


def kernel_basis(a: Matrix) -> KernelModule:
    """Generators of the right kernel {x : A x = 0}.

    The rows of the echelon transform of the transpose that face its zero
    rows, those at index rank and beyond, generate the kernel; no Hermite
    reduction is made, since it never touches them.  Euclidean rings:
    those rows are a basis (complete, not just finite index).  Residue
    rings Z/m: the system is lifted to [A | m I] over the integers, and the
    rows are cut to their first A.cols entries and reduced mod m, per the
    augmented-congruence construction; zero and repeated ones are dropped.
    Each generator is checked once, A v = 0 over the ring of A.
    """
    ring = a.ring
    work = _euclidean_elimination(ring, "kernel computation")
    t = a.transpose()
    h = [list(row) for row in (t.entries if work is ring else _residue_lift(t))]
    u = _identity_rows(work, len(h))
    rank = len(_echelon(work, h, u))
    if work is ring:
        rows = map(tuple, u[rank:])
    else:
        rows = (tuple(x % ring.modulus for x in v[: a.cols]) for v in u[rank:])
    basis = tuple(v for v in dict.fromkeys(rows) if not vec_is_zero(ring, v))
    for vec in basis:
        if not vec_is_zero(ring, a.apply(vec)):
            raise IdentityViolation("kernel basis vector failed A v = 0")
    return KernelModule(ring, a.cols, basis)


def coefficient_tuples(ring: Ring, k: int) -> Iterator[tuple]:
    """All k-tuples of ring elements, graded by the largest enumeration
    index appearing in the tuple; lexicographic within a grade.  Finite
    for finite rings."""
    pool: list = []
    source = ring.elements()
    grade = 0
    while True:
        while len(pool) <= grade:
            try:
                pool.append(next(source))
            except StopIteration:
                return
        for ranks in itertools.product(range(grade + 1), repeat=k):
            if grade and max(ranks) != grade:
                continue
            yield tuple(pool[r] for r in ranks)
        grade += 1


def combination_stream(kernel: KernelModule, count: int) -> Iterator[tuple]:
    """Up to ``count`` pairwise-distinct nonzero module elements spanned by
    the kernel generators, in coefficient-enumeration order."""
    if count <= 0 or not kernel.basis:
        return
    ring = kernel.ring
    width = kernel.ambient_dim
    zero = tuple(ring.zero for _ in range(width))
    seen = set()
    for coeffs in coefficient_tuples(ring, len(kernel.basis)):
        vec = zero
        for c, gen in zip(coeffs, kernel.basis):
            if c != ring.zero:
                vec = ring.axpy(vec, ring.neg(c), gen)
        vec = tuple(vec)
        if vec == zero or vec in seen:
            continue
        seen.add(vec)
        yield vec
        if len(seen) >= count:
            return


def solution_stream(a: Matrix, count: int) -> Iterator[tuple]:
    """Pairwise-distinct nonzero solutions of A x = 0, each checked on emission.

    The stream ends early only when the kernel is finite (finite ring or
    trivial kernel)."""
    for vec in combination_stream(kernel_basis(a), count):
        if not vec_is_zero(a.ring, a.apply(vec)):
            raise IdentityViolation("streamed solution failed A v = 0")
        yield vec


def principal_kernel_family(ring: Ring, a, b, count: int) -> Iterator[tuple]:
    """Kernel elements of the 1x2 map (x, y) -> a x + b y over rings where
    a general kernel basis is not computable: the family c * (b, -a),
    streamed from that one generator and each checked on emission.

    For the zero map the whole rank-2 module is streamed instead."""
    ring.check(a)
    ring.check(b)
    if a == ring.zero and b == ring.zero:
        basis = ((ring.one, ring.zero), (ring.zero, ring.one))
    else:
        basis = ((b, ring.neg(a)),)
    for vec in combination_stream(KernelModule(ring, 2, basis), count):
        if ring.add(ring.mul(a, vec[0]), ring.mul(b, vec[1])) != ring.zero:
            raise IdentityViolation("kernel family member failed f(v) = 0")
        yield vec


def in_row_span(ring: Ring, rows, vec: tuple) -> bool:
    """Whether vec is a ring-linear combination of the given row vectors,
    decided by reducing vec by an echelon form of the rows (any echelon
    basis decides membership); over Z/m this is decided over Z, on
    ``_residue_lift`` of the rows."""
    rows = [tuple(r) for r in rows]
    if any(len(r) != len(vec) for r in rows):
        raise ValueError(f"vector length {len(vec)} does not match the rows")
    if not rows:
        return vec_is_zero(ring, vec)
    a = Matrix(ring, rows)
    work = _euclidean_elimination(ring, "Hermite form")
    h = [list(row) for row in (a.entries if work is ring else _residue_lift(a))]
    # the transform is never read: rows of width zero carry it for free
    pivots = _echelon(work, h, [[] for _ in h])
    z = work.zero
    rest = list(vec)
    for r, c in pivots:
        if rest[c] == z:
            continue
        q, rem = work.divmod(rest[c], h[r][c])
        if rem != z:
            return False
        rest = work.axpy(rest, q, h[r])
    return all(x == z for x in rest)
