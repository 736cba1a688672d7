"""Hermite and Smith normal forms, kernel modules and solution streams.

The normal forms run over the Euclidean rings (Z, Zi, Fp[x]).  Every
entry point eliminates in ``matrix._elimination_ring`` of the input's
ring.  The Hermite and Smith forms and row-span membership ask
``_euclidean_elimination`` for it, which refuses a ring whose
elimination ring is not Euclidean (Z[x]).  ``kernel_basis`` refuses no
supported ring: over Z[x] its generators are signed maximal minors.
Over a residue ring Z/m the elimination ring is Z: the forms are the
integer forms of the lifted matrix reduced mod m, with each Hermite
pivot and each Smith diagonal entry normalised to its gcd with m;
kernels over Z/m lift the system augmented with the modulus relations.
Elimination runs on the augmented rows [h | u], the transform u carried
to the right of h, so each row operation is one call of the ring's
``axpy`` kernel on the row.  There is one elimination engine, in two
passes.  ``_echelon`` brings the rows to echelon form, pivoting on the
entry of smallest nonzero norm (ties broken by lowest row index) and
clearing below it with the least-remainder quotients of
``ring.quotient``, which over Z leave at most half the pivot; kernels
and row-span membership read this echelon alone.  The Hermite form then
reduces each pivot row by the finished pivot rows below it, bottom-up,
with ``divmod``'s one remainder per residue class, which keeps H
canonical and the transform's entries near their final size.  The Smith
form is built from it by alternating Hermite passes on the rows and on
the columns (Kannan–Bachem).

Kernels are returned as ``KernelModule`` values and expanded into
pairwise-distinct solution streams by walking coefficient tuples in the
ring's documented enumeration order.  Each identity is checked once,
where it is emitted: A v = 0 on every kernel generator, and again on
every vector a solution stream yields, since a stream of combinations
is a separate emission.  Both checks, and the witness layer's, are
``_annihilator``'s exact predicate, packed over Z.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator

from .errors import IdentityViolation, UnsupportedRingError
from .matrix import Matrix, _augment, _elimination_ring, vec_is_zero
from .rings import Integers, Modular, Ring


@dataclass(frozen=True)
class KernelModule:
    """Generators of {x : A x = 0} inside ring^ambient_dim.

    Over a domain the generators are a basis (linearly independent over
    the fraction field); over a residue ring they are a generating set.
    Over the Euclidean rings and Z/m they span the whole kernel; over
    Z[x] they span a full-rank submodule of it that may be proper.
    """

    ring: Ring
    ambient_dim: int
    basis: tuple[tuple, ...]


# -- row operations on augmented rows [h | u] --------------------------------

def _row_scale(ring: Ring, row: list, w) -> list:
    """The row w*row for a unit w, in one row-kernel call: x - (1 - w)*x = w*x."""
    return ring.axpy(row, ring.sub(ring.one, w), row)


def _echelon(ring: Ring, rows: list, width: int) -> list:
    """Row echelon form in place on the first width columns of the rows; a
    transform block to their right rides along, as each row operation is
    one ``axpy`` on the row from the pivot column on.  Each pivot is the
    entry of smallest norm left in its column (lowest row index on ties);
    the entries below it are divided by it with ``ring.quotient``, whose
    remainders have the least norm (over Z at most half the pivot's), until
    they are all zero, and it is scaled to its canonical associate.  The
    entries above the pivots are left as they are.  Returns the pivot
    positions [(row, col)], row k holding the k-th pivot."""
    m = len(rows)
    z, axpy, quotient = ring.zero, ring.axpy, ring.quotient
    pivots = []
    for c in range(width):
        r = len(pivots)
        if r >= m:
            break
        if all(rows[i][c] == z for i in range(r, m)):
            continue
        while True:
            _, pivot = min((ring.norm(rows[i][c]), i) for i in range(r, m) if rows[i][c] != z)
            if pivot != r:
                rows[r], rows[pivot] = rows[pivot], rows[r]
            clean = True
            tail = rows[r][c:]  # the pivot row is zero before column c
            for i in range(r + 1, m):
                row = rows[i]
                if row[c] == z:
                    continue
                q = quotient(row[c], tail[0])
                if q != z:
                    row[c:] = axpy(row[c:], q, tail)
                if row[c] != z:
                    clean = False
            if clean:
                break
        cu = ring.canonical_unit(rows[r][c])
        if cu != ring.one:
            rows[r][c:] = _row_scale(ring, rows[r][c:], cu)
        pivots.append((r, c))
    return pivots


def _hnf_core(ring: Ring, rows: list, width: int) -> list:
    """Row Hermite form in place on the first width columns of the rows, a
    transform block riding along; returns the rows.  ``_echelon``, then each
    pivot row, from the second-to-last up to the first, is reduced left to
    right by the pivot rows below it, which are already final, one ``axpy``
    per row operation.

    The reduction only combines pivot rows, so the rows facing zero rows of
    h are those of the echelon.  As ``divmod`` leaves one remainder per
    residue class, the unit upper-triangular transform that reduces the
    echelon is unique, whatever the order of the reduction; bottom-up, its
    multipliers come from reduced entries and U stays near its final size."""
    pivots = _echelon(ring, rows, width)
    z, axpy = ring.zero, ring.axpy
    for k in range(len(pivots) - 2, -1, -1):
        row = rows[k]
        for r, c in pivots[k + 1:]:
            if row[c] != z:
                q, _ = ring.divmod(row[c], rows[r][c])
                if q != z:
                    row[c:] = axpy(row[c:], q, rows[r][c:])
    return rows


def _snf_core(ring: Ring, d) -> tuple[list, list]:
    """Smith form as the rows [d | u] and the rows of v, u*a*v == d: row
    Hermite passes on [d | u] and on [d^T | v^T] alternate until d is
    diagonal with a divisibility chain."""
    z, minus_one = ring.zero, ring.neg(ring.one)
    width = len(d[0])
    rows, other, flips = _augment(ring, d), _augment(ring, [()] * width), 0  # [d | u], v^T
    while True:
        _hnf_core(ring, rows, width)
        if all(x == z for i, row in enumerate(rows) for j, x in enumerate(row[:width]) if i != j):
            diag = [rows[k][k] for k in range(min(len(rows), width))]
            offender = next(((i, j) for i, j in itertools.combinations(range(len(diag)), 2)
                             if diag[i] != z and ring.divmod(diag[j], diag[i])[1] != z), None)
            if offender is None:
                break
            # row i += row j; the next pass, on the transpose, takes their gcd
            i, j = offender
            rows[i] = ring.axpy(rows[i], minus_one, rows[j])
        rows, other, width = _flip(rows, other, width)
        flips += 1
    if flips % 2:  # the rows hold [d^T | v^T]
        rows, other, width = _flip(rows, other, width)
    return rows, [list(col) for col in zip(*other)]


def _flip(rows: list, other: list, width: int) -> tuple[list, list, int]:
    """From the rows [d | s] and the rows of t: the rows [d^T | t], the
    rows of s and the width of d^T."""
    flipped = [[row[k] for row in rows] + t for k, t in enumerate(other)]
    return flipped, [row[width:] for row in rows], len(rows)


def _euclidean_elimination(ring: Ring, what: str) -> Ring:
    """The Euclidean ring that elimination over ring runs in, which is
    ``_elimination_ring(ring)``, or UnsupportedRingError naming what has
    no computation over ring."""
    work = _elimination_ring(ring)
    if not work.is_euclidean:
        raise UnsupportedRingError(f"no {what} over {ring.descriptor}")
    return work


def _normal_form(a: Matrix, name: str, core) -> tuple[Matrix, ...]:
    """Run core(work, rows) over the elimination ring of a: it returns the
    rows [form | left transform], then any further results.  Where that is
    a lift, each is reduced mod m and ``_residue_pivots`` normalises the rows."""
    ring = a.ring
    work = _euclidean_elimination(ring, name)
    rows, *rest = core(work, a.entries)
    if work is not ring:
        m = ring.modulus
        rows, *rest = ([[x % m for x in row] for row in out] for out in (rows, *rest))
        _residue_pivots(ring, rows, a.cols)
    outs = [row[:a.cols] for row in rows], [row[a.cols:] for row in rows], *rest
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
                        lambda ring, rows: [_hnf_core(ring, _augment(ring, rows), a.cols)])


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (D, U, V) with U*A*V = D diagonal, d_i | d_{i+1}, U, V unimodular.

    D is reached by alternating Hermite passes on the rows and on the
    columns of A; where d_i does not divide a later d_j, row j is added to
    row i and the alternation resumes.  Over Z/m each d_i is then replaced
    by gcd(d_i, m), its canonical associate, so equivalent matrices share D.
    """
    return _normal_form(a, "Smith form", _snf_core)


def _residue_pivots(ring: Modular, rows: list, width: int):
    """Normalise in place the leading entries of the augmented rows [h | u]
    over Z/m, pivoting on the first width columns; each row operation is
    one ``axpy`` on the whole row, so U A = H (or U A V = D) still holds.

    The leading entry of row r is w gcd(h, m) for a unit w: row r is
    scaled by w^-1, and the entries above the new pivot g are reduced
    modulo g.  On a Smith diagonal this sets each D_ii to gcd(d_i, m).
    """
    m = ring.modulus
    for r, row in enumerate(rows):
        c = next((j for j in range(width) if row[j]), None)
        if c is None:
            continue
        g = math.gcd(row[c], m)
        step = m // g
        w = next(w for w in range(row[c] // g % step, m, step) if math.gcd(w, m) == 1)
        rows[r] = _row_scale(ring, row, pow(w, -1, m))
        for i in range(r):
            q = rows[i][c] // g
            if q:
                rows[i] = ring.axpy(rows[i], q, rows[r])


def _residue_lift(a: Matrix) -> tuple:
    """The rows of a over Z/m as integers, followed by the rows m e_k: their
    span over Z is the preimage of the row span of a over Z/m."""
    m = a.ring.modulus
    return a.entries + tuple(
        tuple(m if k == i else 0 for k in range(a.cols)) for i in range(a.cols))


def kernel_basis(a: Matrix) -> KernelModule:
    """Generators of the right kernel {x : A x = 0}.

    Over the rings whose elimination ring is Euclidean, one echelon pass
    (no Hermite reduction) runs on the rows [A^T | I], pivoting on the
    first A.rows columns; the blocks row[A.rows:] of the rows at index
    rank and beyond face zero rows and generate the kernel, a basis
    (complete, not just finite index).  Over Z/m the rows are [lift | I],
    the lift of the system to [A | m I] over the integers, and each block
    is cut to its first A.cols entries and reduced mod m, per the
    augmented-congruence construction; zero and repeated ones are dropped.
    Over Z[x], which has no echelon, the generators are signed maximal
    minors (``_minor_kernel``): a basis over the fraction field, whose
    span is a full-rank submodule of the kernel that may be proper.  Each
    generator is checked once, A v = 0 over the ring of A, by
    ``_annihilator``.
    """
    ring = a.ring
    work = _elimination_ring(ring)
    if work.is_euclidean:
        t = a.transpose()
        rows = _augment(work, t.entries if work is ring else _residue_lift(t))
        rank = len(_echelon(work, rows, a.rows))
        gens = (tuple(row[a.rows:]) for row in rows[rank:])
        if work is not ring:
            gens = (tuple(x % ring.modulus for x in v[: a.cols]) for v in gens)
    else:
        gens = _minor_kernel(a)
    basis = tuple(v for v in dict.fromkeys(gens) if not vec_is_zero(ring, v))
    annihilates = _annihilator(a)
    for vec in basis:
        if not annihilates(vec):
            raise IdentityViolation("kernel basis vector failed A v = 0")
    return KernelModule(ring, a.cols, basis)


def _annihilator(a: Matrix):
    """The exact predicate "A v = 0" on vectors of length A.cols (a
    ValueError on any other length), for checking a run of vectors.

    Over every ring but Z it is ``vec_is_zero(ring, a.apply(v))``, and so
    it is over Z when A has one row, as ``apply`` is then one sum of
    products already.  Otherwise the first three vectors are checked by
    ``apply`` too: packing costs about two to three such checks, so a
    short run, such as a kernel basis of up to three generators, packs
    nothing, and a long one pays for the packing before it starts.  From
    the fourth vector on, the columns of A are packed once (Kronecker
    substitution) into P_j = sum_i A_ij 2^(s i), and the check is one sum,
    sum_j v_j P_j = sum_i (A v)_i 2^(s i) == 0.  With R the largest row
    1-norm of A, |(A v)_i| <= |v|_inf R; the slot width s is that bound's
    bit length plus 2, rounded up to a multiple of 32 so that one packing
    serves a whole stream, and the columns are packed again only when a
    vector needs wider slots.

    Exact: the packed sum has the balanced base-2^s digits d_i = (A v)_i,
    |d_i| < 2^(s-1), and such digits are unique.  If some digit is nonzero,
    the highest, at k, gives a term of size at least 2^(s k), while the
    terms below it sum in size to at most (2^(s-1) - 1)(2^(s k) - 1) /
    (2^s - 1) < 2^(s k); so the packed sum is 0 exactly when A v = 0.
    """
    ring = a.ring
    if not isinstance(ring, Integers) or a.rows == 1:
        return lambda vec: vec_is_zero(ring, a.apply(vec))
    checked = bound = slot = 0
    columns: list = []

    def annihilates(vec) -> bool:
        nonlocal checked, bound, slot, columns
        checked += 1
        if checked <= 3:
            return vec_is_zero(ring, a.apply(vec))
        if len(vec) != a.cols:
            raise ValueError("vector length mismatch")
        if not slot:
            bound = max(sum(map(abs, row)) for row in a.entries)
        need = (max(map(abs, vec)) * bound).bit_length() + 2
        if need > slot:
            slot = -(-need // 32) * 32
            columns = _packed_columns(a.entries, slot)
        return sum(map(operator.mul, vec, columns)) == 0

    return annihilates


def _packed_columns(rows, slot: int) -> list:
    """Each column of the integer rows as the one integer sum_i x_i 2^(slot i)."""
    shifts = range(0, slot * len(rows), slot)
    return [sum(map(operator.lshift, col, shifts)) for col in zip(*rows)]


def _minor(a: Matrix, rows: list, cols: list):
    """The minor of a on the given rows and columns; 1 when there are none."""
    if not rows:
        return a.ring.one
    return Matrix._raw(a.ring, tuple(tuple(a.entries[i][j] for j in cols) for i in rows)).det()


def _minor_kernel(a: Matrix) -> Iterator[tuple]:
    """Kernel generators over a domain without an echelon, one per column f
    outside a nonsingular maximal minor.  Rows are kept greedily while some
    new column gives them a nonzero minor, which ends with r = rank rows R
    and columns C.  The generator of f has, at each column c of the sorted
    S = C + {f}, the minor of R on S - {c}, signed (-1)^(position of c in
    S): by Laplace expansion its product with any row of R is a minor with
    a repeated row, and the other rows are combinations of R over the
    fraction field.  A 1x2 map (a, b) with a != 0 gives (b, -a)."""
    z = a.ring.zero
    rows, cols = [], []
    for i in range(a.rows):
        j = next((j for j in range(a.cols) if j not in cols
                  and _minor(a, rows + [i], cols + [j]) != z), None)
        if j is not None:
            rows.append(i)
            cols.append(j)
    for f in sorted(set(range(a.cols)).difference(cols)):
        s = sorted(cols + [f])
        vec = [z] * a.cols
        for k, c in enumerate(s):
            m = _minor(a, rows, [x for x in s if x != c])
            vec[c] = a.ring.neg(m) if k % 2 else m
        yield tuple(vec)


def _graded_ranks(grade: int, k: int) -> Iterator[tuple]:
    """The k-tuples of ranks at most grade whose largest is grade, in
    lexicographic order: after a first rank below grade the rest must
    reach it, after a first rank of grade the rest is free."""
    if k == 1:
        return iter([(grade,)])
    below = ((first,) + rest for first in range(grade) for rest in _graded_ranks(grade, k - 1))
    top = ((grade,) + rest for rest in itertools.product(range(grade + 1), repeat=k - 1))
    return itertools.chain(below, top)


def coefficient_tuples(ring: Ring, k: int) -> Iterator[tuple]:
    """All k-tuples of ring elements, k >= 1, graded by the largest
    enumeration index appearing in the tuple; lexicographic within a
    grade.  Each grade g emits only its (g+1)^k - g^k tuples.  Finite for
    finite rings."""
    pool: list = []
    source = ring.elements()
    grade = 0
    while True:
        while len(pool) <= grade:
            try:
                pool.append(next(source))
            except StopIteration:
                return
        for ranks in _graded_ranks(grade, k):
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

    Each vector is checked once by ``_annihilator``.  The stream ends
    early only when the kernel is finite (finite ring or trivial kernel)."""
    annihilates = _annihilator(a)
    for vec in combination_stream(kernel_basis(a), count):
        if not annihilates(vec):
            raise IdentityViolation("streamed solution failed A v = 0")
        yield vec


def in_row_span(ring: Ring, rows, vec: tuple) -> bool:
    """Whether vec is a ring-linear combination of the given row vectors,
    decided by reducing vec by an echelon form of the rows, with no
    transform block (any echelon basis decides membership); over Z/m this
    is decided over Z, on ``_residue_lift`` of the rows."""
    for x in vec:
        ring.check(x)
    rows = [tuple(r) for r in rows]
    if any(len(r) != len(vec) for r in rows):
        raise ValueError(f"vector length {len(vec)} does not match the rows")
    if not rows:
        return vec_is_zero(ring, vec)
    a = Matrix(ring, rows)
    work = _euclidean_elimination(ring, "Hermite form")
    h = [list(row) for row in (a.entries if work is ring else _residue_lift(a))]
    pivots = _echelon(work, h, len(vec))
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
