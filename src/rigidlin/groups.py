"""Generators of the elementary, elementary symplectic and elementary
orthogonal groups, the invariant bilinear forms, generator words, and the
rank-stabilization embedding.

Index conventions follow the usual 1-based matrix notation.  In the
doubled setting of size 2n the involution ``sigma`` swaps k and k+n; a
"long root" generator touches the single position (i, sigma i) and exists
only on the symplectic side, while a "short root" generator touches the
pair (i, j) and (sigma j, sigma i) with a mirrored parameter.

Group membership is carried constructively: elements are generator words
and matrices are checked only against the invariants (determinant, form
preservation), never against an abstract membership predicate.  A word is
evaluated by column operations on the identity, one ``Ring.axpy`` per
off-diagonal entry of each generator, without building the generators'
matrices.  The forms act through ``BilinearForm.covector``, a signed swap
of the two blocks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ParseError
from .matrix import Matrix, vec_dot, vec_neg
from .rings import Ring

WORD_KINDS = ("en", "esp", "eo")


def sigma_index(n: int, k: int) -> int:
    """The involution on 1..2n swapping the two blocks: k <-> k+n."""
    if not 1 <= k <= 2 * n:
        raise ValueError(f"index {k} out of range 1..{2 * n}")
    return k + n if k <= n else k - n


def elementary_matrix(ring: Ring, n: int, i: int, j: int, r) -> Matrix:
    """Identity plus r in the (i, j) position (1-based), i != j."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices ({i}, {j}) out of range 1..{n}")
    if i == j:
        raise ValueError("off-diagonal position required (i != j)")
    ring.check(r)
    return Matrix._placed(ring, n, n, {(i - 1, j - 1): r}, ring.one)


def unitary_generator(ring: Ring, n: int, epsilon: int, i: int, j: int, a) -> Matrix:
    """Generator of the elementary symplectic (epsilon = -1) or elementary
    orthogonal (epsilon = +1) group of size 2n.

    With s = sigma_index: the long root (j = s(i)) is identity plus a in
    position (i, s(i)) and is admissible only for epsilon = -1.  The short
    root is identity plus a in (i, j) and minus a' in (s(j), s(i)), where
    a' = a when both or neither index is in the first block, and a' = a
    scaled by epsilon when exactly one is.
    """
    if epsilon not in (-1, 1):
        raise ValueError("epsilon must be +1 or -1")
    size = 2 * n
    if not (1 <= i <= size and 1 <= j <= size):
        raise ValueError(f"indices ({i}, {j}) out of range 1..{size}")
    if i == j:
        raise ValueError("off-diagonal position required (i != j)")
    ring.check(a)
    si = sigma_index(n, i)
    sj = sigma_index(n, j)
    if j == si and epsilon != -1:
        raise ValueError("the (i, sigma i) generator exists only in the symplectic group")
    placed = {(i - 1, j - 1): a}
    if j != si:
        mirrored = a if epsilon == 1 or (i <= n) == (j <= n) else ring.neg(a)
        placed[sj - 1, si - 1] = ring.neg(mirrored)
    return Matrix._placed(ring, size, size, placed, ring.one)


@dataclass(frozen=True)
class BilinearForm:
    """A split bilinear form of rank 2n, gram = [[0, I], [epsilon I, 0]]:
    epsilon = -1 for kind "symplectic", +1 for kind "orthogonal".  The gram
    is a signed permutation; the form acts through ``covector``."""

    kind: str
    n: int
    gram: Matrix
    epsilon: int

    @property
    def ring(self) -> Ring:
        return self.gram.ring

    @property
    def size(self) -> int:
        return 2 * self.n

    def covector(self, v: tuple) -> tuple:
        """The row v^T * gram = (eps * v[n:], v[:n]), without a product."""
        if len(v) != self.size:
            raise ValueError(f"vector length {len(v)} does not match form rank {self.size}")
        n = self.n
        head = tuple(v[n:]) if self.epsilon == 1 else vec_neg(self.ring, v[n:])
        return head + tuple(v[:n])

    def pairing(self, x: tuple, y: tuple):
        return vec_dot(self.ring, self.covector(x), y)


def form_matrix(ring: Ring, n: int, kind: str) -> BilinearForm:
    if n < 1:
        raise ValueError("half-rank must be positive")
    if kind not in ("symplectic", "orthogonal"):
        raise ValueError(f"unknown form kind {kind!r}")
    lower = ring.neg(ring.one) if kind == "symplectic" else ring.one
    gram = Matrix._placed(ring, 2 * n, 2 * n, {**{(k, n + k): ring.one for k in range(n)},
                                               **{(n + k, k): lower for k in range(n)}})
    return BilinearForm(kind, n, gram, -1 if kind == "symplectic" else 1)


def preserves_form(m: Matrix, form: BilinearForm) -> bool:
    """Exact check of M^T * gram * M == gram; M^T * gram is read off by covectors."""
    if m.rows != form.size or m.cols != form.size:
        raise ValueError(f"matrix size {m.rows}x{m.cols} does not match form rank {form.size}")
    if m.ring is not form.ring and m.ring != form.ring:
        raise ValueError("ring mismatch between matrix and form")
    mt_gram = Matrix._raw(m.ring, tuple(map(form.covector, zip(*m.entries))))
    return mt_gram @ m == form.gram


# -- generator words ---------------------------------------------------------

@dataclass(frozen=True)
class WordToken:
    """One tagged generator: ``e``(i, j, r), ``rl``(i, a) or ``rs``(i, j, a),
    with an optional inverse exponent."""

    tag: str
    i: int
    j: int | None
    param: object
    exponent: int = 1


@dataclass(frozen=True)
class GeneratorWord:
    ring: Ring
    kind: str  # "en" | "esp" | "eo"
    n: int  # matrix size for en; half-rank for esp/eo
    tokens: tuple[WordToken, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in WORD_KINDS:
            raise ValueError(f"unknown group kind {self.kind!r}")
        for tok in self.tokens:
            self._validate(tok)

    def _validate(self, tok: WordToken):
        if tok.exponent not in (1, -1):
            raise ValueError("token exponent must be +1 or -1")
        if self.kind == "en":
            if tok.tag != "e":
                raise ValueError(f"token {tok.tag!r} is not a linear-group generator")
            if not (1 <= tok.i <= self.n and 1 <= tok.j <= self.n) or tok.i == tok.j:
                raise ValueError(f"bad indices ({tok.i}, {tok.j}) for size {self.n}")
        else:
            size = 2 * self.n
            if tok.tag == "rl":
                if self.kind != "esp":
                    raise ValueError("long-root generators exist only in the symplectic group")
                if not 1 <= tok.i <= size:
                    raise ValueError(f"bad index {tok.i} for size {size}")
            elif tok.tag == "rs":
                if not (1 <= tok.i <= size and 1 <= tok.j <= size):
                    raise ValueError(f"bad indices ({tok.i}, {tok.j}) for size {size}")
                if tok.i == tok.j or tok.j == sigma_index(self.n, tok.i):
                    raise ValueError("short-root indices must satisfy j not in {i, sigma i}")
            else:
                raise ValueError(f"token {tok.tag!r} is not a unitary generator")
        self.ring.check(tok.param)

    @property
    def matrix_size(self) -> int:
        return self.n if self.kind == "en" else 2 * self.n

    @property
    def epsilon(self) -> int:
        return {"esp": -1, "eo": 1}.get(self.kind, 0)

    def evaluate(self) -> Matrix:
        """The product of the tokens, left to right, by column operations on
        the identity: right multiplication by I + r*E_ij adds r times column
        i to column j, and a short root's mirrored entry -a' (a' as in
        ``unitary_generator``) adds -a' times column sigma j to column
        sigma i, a disjoint pair.  The tokens were checked at construction."""
        ring, n, eps = self.ring, self.n, self.epsilon
        cols = list(Matrix.identity(ring, self.matrix_size).entries)  # symmetric: rows are columns
        for tok in self.tokens:
            a = tok.param if tok.exponent == 1 else ring.neg(tok.param)
            i = tok.i - 1
            j = sigma_index(n, tok.i) - 1 if tok.tag == "rl" else tok.j - 1
            cols[j] = ring.axpy(cols[j], ring.neg(a), cols[i])
            if tok.tag == "rs":
                mirrored = a if eps == 1 or (tok.i <= n) == (tok.j <= n) else ring.neg(a)
                si, sj = sigma_index(n, tok.i) - 1, sigma_index(n, tok.j) - 1
                cols[si] = ring.axpy(cols[si], mirrored, cols[sj])
        return Matrix._raw(ring, tuple(zip(*cols)))

    def inverse(self) -> "GeneratorWord":
        flipped = tuple(
            WordToken(t.tag, t.i, t.j, t.param, -t.exponent) for t in reversed(self.tokens)
        )
        return GeneratorWord(self.ring, self.kind, self.n, flipped)


_TOKEN_RE = re.compile(r"^(e|rl|rs)\(([^()]*)\)(\^-1)?$")


def parse_word(ring: Ring, kind: str, n: int, text: str) -> GeneratorWord:
    """Parse the word grammar: semicolon-separated ``e(i,j,r)``, ``rl(i,a)``,
    ``rs(i,j,a)`` tokens, each optionally followed by ``^-1``."""
    tokens = []
    body = text.strip()
    if body:
        for piece in body.split(";"):
            m = _TOKEN_RE.match("".join(piece.split()))
            if not m:
                raise ParseError(f"malformed word token: {piece!r}")
            tag, args_text, inv = m.group(1), m.group(2), m.group(3)
            args = args_text.split(",")
            expected = 2 if tag == "rl" else 3
            if len(args) != expected:
                raise ParseError(f"token {tag!r} takes {expected} arguments: {piece!r}")
            try:
                i = int(args[0])
                j = int(args[1]) if tag != "rl" else None
            except ValueError as exc:
                raise ParseError(f"bad index in token {piece!r}") from exc
            param = ring.parse(args[-1])
            tokens.append(WordToken(tag, i, j, param, -1 if inv else 1))
    try:
        return GeneratorWord(ring, kind, n, tuple(tokens))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_word(word: GeneratorWord) -> str:
    fmt = word.ring.format
    pieces = []
    for tok in word.tokens:
        if tok.tag == "rl":
            body = f"rl({tok.i},{fmt(tok.param)})"
        else:
            body = f"{tok.tag}({tok.i},{tok.j},{fmt(tok.param)})"
        pieces.append(body + ("^-1" if tok.exponent == -1 else ""))
    return ";".join(pieces)


def embed_stabilize(a: Matrix) -> Matrix:
    """Embed a 2n x 2n matrix into size 2n+2, fixing one new hyperbolic pair.

    Writing A in n x n blocks [[alpha, beta], [gamma, delta]], the image
    keeps the blocks and inserts a fixed coordinate in front of each block
    row: old index k moves to k + 1 + (k >= n), and the new coordinates 0
    and n + 1 are fixed.  So a form-preserving A of half-rank n maps to a
    form-preserving matrix of half-rank n+1.
    """
    if a.rows != a.cols or a.rows % 2 != 0:
        raise ValueError("embedding needs a square matrix of even size")
    n = a.rows // 2
    moved = [k + 1 + (k >= n) for k in range(2 * n)]
    return Matrix._placed(a.ring, 2 * n + 2, 2 * n + 2,
                          {(moved[r], moved[c]): x
                           for r, row in enumerate(a.entries) for c, x in enumerate(row)},
                          a.ring.one)
