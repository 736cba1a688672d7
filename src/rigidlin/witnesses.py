"""Verified witness families inside stabilizer intersections.

Three constructions, each emission checked (``IdentityViolation`` on a
failure, never sampled):

* first-row shears ``(1, f; 0, I)``, held as functionals f streamed from
  the context's kernel module.  A stabilizer element q = (1, x; 0, A) acts
  on that module linearly, f -> f*A, so ``conjugate_module`` checks
  closure under q once, on the module's few generators;
* Eichler transvections on isotropic pairs in the complement of a finite
  set of vectors under a split bilinear form, rank-two row updates of the
  identity checked once, M^T * gram * M == gram;
* upper block-unipotent matrices ``(I, A; 0, I)``, held as the n x n block
  A with A^T = -eps A, the symmetry class the form admits, fixing a
  prescribed image vector.

Pairing rows v^T * gram come from ``BilinearForm.covector``, never from a
product with the Gram matrix.  Every kernel comes from ``kernel_basis``:
over Z[x] the streams walk a full-rank submodule of the kernel that may
be proper, elsewhere the whole kernel.
Each conjugator is checked once, where it enters (``StabilizerContext``,
``conjugate_module``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .errors import IdentityViolation, NotInvertibleError
from .groups import BilinearForm, preserves_form
from .matrix import Matrix, unit_vector, vec_is_zero, vec_neg
from .normal_forms import KernelModule, _annihilator, combination_stream, kernel_basis
from .rings import Ring


class StabilizerContext:
    """A tuple of conjugating matrices with their first-column images.

    The identity conjugator is implicit: the constraint vectors are e1
    followed by the first columns of the conjugators.  Each conjugator is
    checked once, here (ring, size >= 2, form, unit determinant).  Kept
    once built: ``kernel``, the module the shears stream from, and
    ``annihilates``, the A v = 0 predicate on the projected images.
    """

    def __init__(self, ring: Ring, size: int, conjugators=(), form: BilinearForm | None = None):
        if size < 2:
            raise ValueError("shears need size at least 2")
        self.ring = ring
        self.size = size
        self.form = form
        self.conjugators = tuple(conjugators)
        if form is not None and form.size != size:
            raise ValueError("form rank does not match the context size")
        for g in self.conjugators:
            if g.ring != ring:
                raise ValueError("conjugator ring mismatch")
            if g.rows != size or g.cols != size:
                raise ValueError("conjugator size mismatch")
            if form is not None and not preserves_form(g, form):
                raise ValueError("conjugator does not preserve the form")
            d = g.det()
            if ring.unit_inverse(d) is None:
                raise NotInvertibleError(ring.format(d))
        self.first_column_images = tuple(g.column(0) for g in self.conjugators)
        # e1 (the implicit identity conjugator) followed by the images
        self.constraint_vectors = (unit_vector(ring, size, 0),) + self.first_column_images
        # the images without their first coordinate, which a shear must annihilate
        self.projected_images = tuple(img[1:] for img in self.first_column_images)

    @cached_property
    def kernel(self) -> KernelModule:
        # the functionals annihilating every projected image; all when there are none
        dim = self.size - 1
        if self.projected_images:
            return kernel_basis(Matrix._raw(self.ring, self.projected_images))
        return KernelModule(self.ring, dim, Matrix.identity(self.ring, dim).entries)

    @cached_property
    def annihilates(self):
        # against one zero row when there are no images
        images = self.projected_images or ((self.ring.zero,) * (self.size - 1),)
        return _annihilator(Matrix._raw(self.ring, images))


@dataclass(frozen=True)
class ShearWitness:
    """The shear (1, f; 0, I), held as f; ``matrix`` builds it on demand."""

    ring: Ring
    functional: tuple

    @property
    def matrix(self) -> Matrix:
        ring, f = self.ring, self.functional
        size = len(f) + 1
        return Matrix._placed(ring, size, size, {(0, 1 + j): c for j, c in enumerate(f)}, ring.one)


@dataclass(frozen=True)
class BlockWitness:
    """The block unipotent (I, A; 0, I), held as A; ``matrix`` builds it on demand."""

    block: Matrix

    @property
    def matrix(self) -> Matrix:
        a, n = self.block, self.block.rows
        placed = {(i, n + j): x for i, row in enumerate(a.entries) for j, x in enumerate(row)}
        return Matrix._placed(a.ring, 2 * n, 2 * n, placed, a.ring.one)


def stabilizer_check(m: Matrix) -> bool:
    """Whether M fixes the first standard basis vector (first column e1)."""
    if not m.is_square():
        raise ValueError("stabilizer check needs a square matrix")
    return m.column(0) == unit_vector(m.ring, m.rows, 0)


def build_shear(ring: Ring, n: int, functional) -> ShearWitness:
    """First-row shear for a functional on the last n-1 coordinates."""
    functional = tuple(functional)
    if n < 2:
        raise ValueError("shears need size at least 2")
    if len(functional) != n - 1:
        raise ValueError(f"functional length {len(functional)} != {n - 1}")
    for c in functional:
        ring.check(c)
    return ShearWitness(ring, functional)


def intersection_witnesses(ctx: StabilizerContext, count: int) -> Iterator[ShearWitness]:
    """Shears lying in the stabilizer of e1 and in every conjugated copy,
    streamed from ``ctx.kernel`` (read on the first ``next``).  Each is
    checked by ``ctx.annihilates`` before it is yielded: T fixes g e1
    exactly when f annihilates the tail of g e1.  The stream is infinite
    over an infinite ring whenever there are at most size - 2 conjugators.
    """
    for functional in combination_stream(ctx.kernel, count):
        if not ctx.annihilates(functional):
            raise IdentityViolation("shear escaped a conjugated stabilizer")
        yield ShearWitness(ctx.ring, functional)


def _check_conjugator(ctx: StabilizerContext, q: Matrix):
    # ValueError unless q is a stabilizer element of the context
    if q.rows != ctx.size or q.cols != ctx.size or q.ring != ctx.ring:
        raise ValueError("conjugator does not match the context")
    if not stabilizer_check(q):
        raise ValueError("conjugator is not a stabilizer element (first column != e1)")
    if ctx.ring.unit_inverse(q.det()) is None:
        raise ValueError("conjugator is not invertible")
    for img in ctx.first_column_images:
        if q.apply(img) != img:
            raise ValueError("conjugator does not fix the conjugated images")


def conjugate_module(ctx: StabilizerContext, q: Matrix) -> KernelModule:
    """``ctx.kernel`` conjugated by a stabilizer element q = (1, x; 0, A):
    the module generated by g*A for each generator g, the functionals of
    the shears q^-1 * T * q.

    q is checked where it enters: matching ring and size, first column e1,
    unit determinant, and fixing every image (``ValueError`` otherwise).
    Checking each g*A by ``ctx.annihilates`` checks closure for the whole
    module: f -> f*A is linear, so it maps combinations of the generators
    to the same combinations of the g*A.  It is also injective (det A is
    a unit), so ``combination_stream`` walks the conjugates of the
    module's stream in the same order.
    """
    _check_conjugator(ctx, q)
    ring, basis = ctx.ring, ctx.kernel.basis
    # coordinate j of every g*A is one dots with column j of A
    columns = zip(*(row[1:] for row in q.entries[1:]))
    conjugated = tuple(zip(*(ring.dots(col, basis) for col in columns)))
    for functional in conjugated:
        if not ctx.annihilates(functional):
            raise IdentityViolation("conjugated functional does not annihilate an image")
    return KernelModule(ring, ctx.kernel.ambient_dim, conjugated)


def complement_module(form: BilinearForm, vectors) -> KernelModule:
    """The module of v pairing to zero with every given vector.

    Computed as the kernel of the stacked pairing rows: ``kernel_basis``
    checks <v, gen> = 0 for every generator, and <gen, v> = eps <v, gen>.
    Over Z[x] the generators span a full-rank submodule of it that may be
    proper.
    """
    ring = form.ring
    size = form.size
    rows = [form.covector(tuple(v)) for v in vectors]  # row i = v_i^T * gram
    if not rows:
        basis = tuple(unit_vector(ring, size, i) for i in range(size))
        return KernelModule(ring, size, basis)
    return kernel_basis(Matrix(ring, rows))


def _require_isotropic(form: BilinearForm, u: tuple, v: tuple):
    ring = form.ring
    if form.pairing(u, v) != ring.zero:
        raise ValueError("transvection needs <u, v> = 0")
    if form.kind == "orthogonal":
        if form.pairing(u, u) != ring.zero or form.pairing(v, v) != ring.zero:
            raise ValueError("transvection needs isotropic u and v")


def _identity_minus(form: BilinearForm, terms, what: str) -> Matrix:
    """I - sum of col * row over the (col, row) terms, one ``axpy`` per term
    on each identity row whose col entry is nonzero; checked once."""
    ring = form.ring
    rows = []
    for i, row in enumerate(Matrix.identity(ring, form.size).entries):
        for col, covector in terms:
            if col[i] != ring.zero:
                row = ring.axpy(row, col[i], covector)
        rows.append(tuple(row))
    m = Matrix._raw(ring, tuple(rows))
    if not preserves_form(m, form):
        raise IdentityViolation(f"{what} failed form preservation")
    return m


def transvection(form: BilinearForm, u, v) -> Matrix:
    """The map x -> x + eps*u<v, x> - v<u, x> on an isotropic pair.

    Row i of its matrix is e_i - (-eps*u_i)*v^ - v_i*u^, a rank-two row
    update with v^ = ``form.covector(v)``.  M^T * gram * M == gram is checked
    at emission: the ``transvections`` suite's conjugation identities hold
    for any coefficients on an isotropic pool, so only this check catches
    a wrong sign in either term.
    """
    ring = form.ring
    u, v = tuple(u), tuple(v)
    for x in u + v:
        ring.check(x)
    _require_isotropic(form, u, v)
    neg_eps_u = vec_neg(ring, u) if form.epsilon == 1 else u
    return _identity_minus(form, ((neg_eps_u, form.covector(v)), (v, form.covector(u))),
                           "transvection")


def transvection_short(form: BilinearForm, v, r) -> Matrix:
    """The map x -> x - r*v<v, x> on the symplectic side, row i being
    e_i - (r*v_i)*v^ and checked as in ``transvection``; identity on the
    orthogonal side."""
    ring = form.ring
    v = tuple(v)
    for x in v + (r,):
        ring.check(x)
    if form.pairing(v, v) != ring.zero:
        raise ValueError("short transvection needs isotropic v")
    if form.epsilon == 1:
        return Matrix.identity(ring, form.size)
    scaled = tuple(ring.mul(r, c) for c in v)
    return _identity_minus(form, ((scaled, form.covector(v)),), "short transvection")


def _symmetry_parameters(form: BilinearForm) -> list[tuple[int, int]]:
    # free positions (i, j), 0-based, i <= j, of a block with A^T = -eps A:
    # symmetric (free diagonal) for eps = -1, alternating for eps = +1
    n = form.n
    off = 1 if form.epsilon == 1 else 0
    return [(i, j) for i in range(n) for j in range(i + off, n)]


def _block_from_parameters(form: BilinearForm, params: tuple) -> Matrix:
    ring = form.ring
    placed = {}
    for (i, j), value in zip(_symmetry_parameters(form), params):
        placed[i, j] = value
        if i != j:
            placed[j, i] = value if form.epsilon == -1 else ring.neg(value)
    return Matrix._placed(ring, form.n, form.n, placed)


def block_unipotent_witnesses(form: BilinearForm, g: Matrix, count: int) -> Iterator[BlockWitness]:
    """Witnesses (I, A; 0, I) fixing g e1, over the symmetry class the form
    admits: symmetric A (free diagonal) on the symplectic side, alternating
    A (zero diagonal) on the orthogonal side.

    Writing g e1 = (x, y), the witness fixes g e1 exactly when A y = 0,
    and preserves the form exactly when A^T = -eps A; the stream walks the
    kernel of the parameter-to-(A y) map and checks both identities on
    each emitted block, O(n^2) each, without building the 2n x 2n matrix.
    """
    ring = form.ring
    n = form.n
    if form.kind == "orthogonal" and n < 3:
        warnings.warn("orthogonal block witnesses are intended for half-rank >= 3", stacklevel=2)
    if not preserves_form(g, form):
        raise ValueError("g does not preserve the form")
    y = g.column(0)[n:]
    positions = _symmetry_parameters(form)
    if not positions:
        return
    # column k of the constraint matrix is (basis block k) * y
    columns = [_block_from_parameters(form, unit_vector(ring, len(positions), k)).apply(y)
               for k in range(len(positions))]
    kernel = kernel_basis(Matrix._raw(ring, tuple(zip(*columns))))
    for params in combination_stream(kernel, count):
        block = _block_from_parameters(form, params)
        if not vec_is_zero(ring, block.apply(y)):
            raise IdentityViolation("block witness moved g e1")
        if block.transpose() != (block if form.epsilon == -1 else -block):
            raise IdentityViolation("block witness failed form preservation")
        yield BlockWitness(block)
