"""Dense exact matrices over a coefficient ring.

Matrices are immutable; every operation returns a fresh matrix.  Products
go through the ring's row kernel ``dots``: ``A @ B`` is one call per row
of A over the columns of B, and ``A.apply(v)`` one call over the rows of
A, so over ``Z`` each entry is a native sum of products.

The text format used by the CLI separates rows with ``;`` and entries
with ``,``, each entry in the owning ring's literal grammar.
"""

from __future__ import annotations

from .errors import NotInvertibleError, ParseError
from .rings import Integers, Modular, Ring


class Matrix:
    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: Ring, entries):
        grid = tuple(tuple(row) for row in entries)
        if not grid or not grid[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("ragged rows")
        for row in grid:
            for e in row:
                ring.check(e)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _raw(cls, ring: Ring, grid: tuple) -> "Matrix":
        # entries already canonical (results of ring operations); skip checks
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", len(grid[0]))
        object.__setattr__(self, "entries", grid)
        return self

    @classmethod
    def _placed(cls, ring: Ring, rows: int, cols: int, entries: dict, diagonal=None) -> "Matrix":
        # the entries {(i, j): x}, 0-based and canonical, placed over zero or
        # over diagonal * I; unchecked, like _raw
        grid = [[ring.zero] * cols for _ in range(rows)]
        if diagonal is not None:
            for i in range(min(rows, cols)):
                grid[i][i] = diagonal
        for (i, j), x in entries.items():
            grid[i][j] = x
        return cls._raw(ring, tuple(map(tuple, grid)))

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Matrix":
        if n < 1:
            raise ValueError("size must be positive")
        return cls._placed(ring, n, n, {}, ring.one)

    @classmethod
    def zeros(cls, ring: Ring, rows: int, cols: int) -> "Matrix":
        if rows < 1 or cols < 1:
            raise ValueError("dimensions must be positive")
        return cls._placed(ring, rows, cols, {})

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring.descriptor, self.entries))

    def __repr__(self):
        return f"<matrix {self.rows}x{self.cols} over {self.ring.descriptor}: {format_matrix(self)}>"

    def _check_same_ring(self, other: "Matrix"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring.descriptor} vs {other.ring.descriptor}")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_same_ring(other)
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        dots = self.ring.dots
        columns = tuple(zip(*other.entries))
        return Matrix._raw(self.ring, tuple([dots(row, columns) for row in self.entries]))

    def __neg__(self) -> "Matrix":
        neg = self.ring.neg
        return Matrix._raw(self.ring, tuple(tuple(neg(x) for x in row) for row in self.entries))

    def transpose(self) -> "Matrix":
        return Matrix._raw(self.ring, tuple(zip(*self.entries)))

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def apply(self, vec: tuple) -> tuple:
        """Matrix-vector product A*v for a length-cols vector."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return self.ring.dots(vec, self.entries)  # the supported rings commute

    def submatrix(self, drop_row: int, drop_col: int) -> "Matrix":
        grid = tuple(
            tuple(e for j, e in enumerate(row) if j != drop_col)
            for i, row in enumerate(self.entries)
            if i != drop_row
        )
        return Matrix._raw(self.ring, grid)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        z, o = self.ring.zero, self.ring.one
        return all(
            e == (o if i == j else z)
            for i, row in enumerate(self.entries)
            for j, e in enumerate(row)
        )

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- determinants -------------------------------------------------------
    def det(self):
        """Exact determinant.

        Uses fraction-free (Bareiss) elimination over integral domains.
        Residue rings are handled by lifting the entries to the integers
        and reducing the result, which avoids pivoting on zero divisors.
        """
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        ring = self.ring
        work = _elimination_ring(ring)
        _, det = _bareiss(work, [list(row) for row in self.entries], gauss_jordan=False)
        return det if work is ring else det % ring.modulus

    def det_cofactor(self):
        """Independent determinant oracle by first-row cofactor expansion."""
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        ring = self.ring
        if self.rows == 1:
            return self.entries[0][0]
        acc = ring.zero
        for j, e in enumerate(self.entries[0]):
            if e == ring.zero:
                continue
            minor = self.submatrix(0, j).det_cofactor()
            term = ring.mul(e, minor)
            acc = ring.add(acc, ring.neg(term) if j % 2 else term)
        return acc

    def inverse(self) -> "Matrix":
        """Inverse by one fraction-free Gauss-Jordan pass on ``[A | I]``.

        The pass leaves ``[d*I | d*A^-1]`` with d its last pivot (the
        determinant up to sign), so the right block times the unit inverse
        of d is the inverse.  Residue rings are lifted to the integers as
        in ``det``.
        """
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        ring = self.ring
        work = _elimination_ring(ring)
        n = self.rows
        m = _augment(work, self.entries)
        d, det = _bareiss(work, m, gauss_jordan=True)
        if work is not ring:
            d, det = d % ring.modulus, det % ring.modulus
        d_inv = ring.unit_inverse(d)
        if d_inv is None:
            raise NotInvertibleError(ring.format(det))
        mul = ring.mul  # over Z/m, mul also reduces the lifted entries
        inv = Matrix._raw(ring, tuple(tuple(mul(d_inv, x) for x in row[n:]) for row in m))
        if not (inv @ self).is_identity():
            raise ArithmeticError("Gauss-Jordan inverse failed its recheck")
        return inv


def _augment(ring: Ring, rows) -> list:
    """The rows [a_i | e_i] of [A | I]."""
    n, one, z = len(rows), ring.one, ring.zero
    return [list(row) + [one if i == j else z for j in range(n)] for i, row in enumerate(rows)]


def _elimination_ring(ring: Ring) -> Ring:
    """The ring elimination runs in: Z for Z/m, else the ring itself.  The
    one place that decides the Z/m lift; the callers reduce results mod m
    when the ring returned is not theirs."""
    if isinstance(ring, Modular):
        return Integers()
    if not ring.is_domain:
        raise ValueError(f"determinant not supported over {ring.descriptor}")
    return ring


def _bareiss(ring: Ring, m: list, gauss_jordan: bool) -> tuple:
    """Fraction-free elimination (Bareiss 1968) of the rows ``m`` in place,
    pivoting in the leading square block; return ``(d, det)``.

    Each step updates the rows below the pivot, or with ``gauss_jordan``
    every other row, which leaves the block as ``d*I``.  d is the last
    pivot and det the block's determinant, ``-d`` after an odd number of
    row swaps; both are zero for a singular block.
    """
    n = len(m)
    width = len(m[0])
    z = ring.zero
    sub, mul, exact_div = ring.sub, ring.mul, ring.exact_div
    sign = 1
    prev = ring.one
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k] != z), None)
        if pivot_row is None:
            return z, z
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        mk = m[k]
        pivot = mk[k]
        for i in range(0 if gauss_jordan else k + 1, n):
            if i == k:
                continue
            mi = m[i]
            a = mi[k]
            if a == z:  # the m[i][k] * m[k][j] terms vanish
                for j in range(k + 1, width):
                    mi[j] = exact_div(mul(mi[j], pivot), prev)
            else:
                for j in range(k + 1, width):
                    mi[j] = exact_div(sub(mul(mi[j], pivot), mul(a, mk[j])), prev)
                mi[k] = z
        prev = pivot
    return prev, (prev if sign > 0 else ring.neg(prev))


def parse_matrix(ring: Ring, text: str) -> Matrix:
    rows = []
    for row_text in text.strip().split(";"):
        cells = row_text.split(",")
        if not any(cell.strip() for cell in cells):
            raise ParseError(f"empty matrix row in {text!r}")
        rows.append([ring.parse(cell) for cell in cells])
    if len({len(r) for r in rows}) != 1:
        raise ParseError("rows of unequal length")
    return Matrix(ring, rows)


def format_matrix(m: Matrix) -> str:
    fmt = m.ring.format
    return ";".join(",".join(fmt(e) for e in row) for row in m.entries)


# -- vectors ---------------------------------------------------------------

def unit_vector(ring: Ring, n: int, index: int) -> tuple:
    """Standard basis vector (0-based index)."""
    return tuple(ring.one if i == index else ring.zero for i in range(n))


def vec_neg(ring: Ring, u: tuple) -> tuple:
    return tuple(ring.neg(x) for x in u)


def vec_dot(ring: Ring, u: tuple, v: tuple):
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return ring.dots(u, (v,))[0]


def vec_combination(ring: Ring, coeffs, vectors, width: int) -> tuple:
    """The sum of c_i v_i over length-width vectors, as one ``dots`` of the
    coefficients against the coordinates."""
    return ring.dots(coeffs, zip(*vectors)) if vectors else (ring.zero,) * width


def vec_is_zero(ring: Ring, u: tuple) -> bool:
    return all(x == ring.zero for x in u)


def format_vector(ring: Ring, v: tuple) -> str:
    return ",".join(ring.format(x) for x in v)
