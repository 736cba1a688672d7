"""Generators of the elementary, elementary symplectic and elementary
orthogonal groups, the invariant bilinear forms, generator words, and the
rank-stabilization embedding.

Index conventions follow the usual 1-based matrix notation.  In the
doubled setting of size 2n the involution ``sigma`` swaps k and k+n; a
"long root" generator touches the single position (i, sigma i) and exists
only on the symplectic side, while a "short root" generator touches the
pair (i, j) and (sigma j, sigma i) with a mirrored parameter.

One table, ``_entries``, holds these rules: which generators each group
has and which entries each adds to the identity.  The dense generators
place its entries; a ``GeneratorWord`` checks each token through it once,
at construction, and keeps the entries, so ``evaluate`` only applies them
as column operations on the identity, one ``Ring.axpy`` per entry.
``WORD_KINDS`` maps each word kind to the form its group preserves.

Group membership is carried constructively: elements are generator words
and matrices are checked only against the invariants (determinant, form
preservation), never against an abstract membership predicate.  The forms
act through ``BilinearForm.covector``, a signed swap of the two blocks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ParseError
from .matrix import Matrix, vec_dot, vec_neg
from .rings import Ring

# Each word kind: the form kind its group preserves and that form's epsilon
# (gram [[0, I], [epsilon I, 0]]); the linear group "en" preserves none.
WORD_KINDS = {"en": (None, 0), "esp": ("symplectic", -1), "eo": ("orthogonal", 1)}
FORM_KINDS = {form: (word, eps) for word, (form, eps) in WORD_KINDS.items() if form}


def sigma_index(n: int, k: int) -> int:
    """The involution on 1..2n swapping the two blocks: k <-> k+n."""
    if not 1 <= k <= 2 * n:
        raise ValueError(f"index {k} out of range 1..{2 * n}")
    return k + n if k <= n else k - n


def _entries(ring: Ring, epsilon: int, n: int, tag: str, i: int, j: int | None, a,
             exponent: int = 1) -> dict:
    """The off-diagonal entries {(row, col): x}, 0-based, that the generator
    ``tag``(i, j, a), or its inverse for exponent -1, adds to the identity
    in the group of this epsilon (0 for E_n, -1 for ESp_2n, +1 for
    EO(n,n)); ValueError if the group has no such generator.  j is None
    exactly for ``rl``, whose column is fixed by i.

    ``e``(i, j, r) puts r at (i, j) of an n x n matrix.  In size 2n, with
    s = sigma_index, the long root ``rl``(i, a) puts a at (i, s(i)) and
    exists only in the symplectic group; the short root ``rs``(i, j, a),
    j not in {i, s(i)}, puts a at (i, j) and -a' at (s(j), s(i)), where
    a' = a when both or neither index is in the first block, and a' = a
    scaled by epsilon when exactly one is.  Each generator's inverse is
    the generator of -a.
    """
    if exponent not in (1, -1):
        raise ValueError("token exponent must be +1 or -1")
    if tag not in (("rl", "rs") if epsilon else ("e",)):
        group = "unitary" if epsilon else "linear-group"
        raise ValueError(f"token {tag!r} is not a {group} generator")
    if tag == "rl" and j is not None:
        raise ValueError(f"token 'rl' takes no index j, got {j}")
    if tag != "rl" and j is None:
        raise ValueError(f"token {tag!r} needs an index j")
    size = 2 * n if epsilon else n
    if tag == "rl":
        if epsilon != -1:
            raise ValueError("long-root generators exist only in the symplectic group")
        j = sigma_index(n, i)
    elif not (1 <= i <= size and 1 <= j <= size):
        raise ValueError(f"indices ({i}, {j}) out of range 1..{size}")
    elif i == j:
        raise ValueError("off-diagonal position required (i != j)")
    a = ring.check(a) if exponent == 1 else ring.neg(ring.check(a))
    if tag != "rs":
        return {(i - 1, j - 1): a}
    si, sj = sigma_index(n, i), sigma_index(n, j)
    if j == si:
        raise ValueError("short-root indices must satisfy j not in {i, sigma i}")
    mirrored = a if epsilon == -1 and (i <= n) != (j <= n) else ring.neg(a)  # -a'
    return {(i - 1, j - 1): a, (sj - 1, si - 1): mirrored}


def elementary_matrix(ring: Ring, n: int, i: int, j: int, r) -> Matrix:
    """Identity plus r in the (i, j) position (1-based), i != j."""
    return Matrix._placed(ring, n, n, _entries(ring, 0, n, "e", i, j, r), ring.one)


def unitary_generator(ring: Ring, n: int, epsilon: int, i: int, j: int, a) -> Matrix:
    """Generator of the elementary symplectic (epsilon = -1) or elementary
    orthogonal (epsilon = +1) group of size 2n: the long root ``rl``(i, a)
    when j = sigma_index(n, i), else the short root ``rs``(i, j, a), with
    the entries of ``_entries``."""
    if epsilon not in (-1, 1):
        raise ValueError("epsilon must be +1 or -1")
    if 1 <= i <= 2 * n and j == sigma_index(n, i):
        tag, j = "rl", None
    else:
        tag = "rs"
    return Matrix._placed(ring, 2 * n, 2 * n, _entries(ring, epsilon, n, tag, i, j, a), ring.one)


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
    if kind not in FORM_KINDS:
        raise ValueError(f"unknown form kind {kind!r}")
    epsilon = FORM_KINDS[kind][1]
    lower = ring.neg(ring.one) if epsilon == -1 else ring.one
    gram = Matrix._placed(ring, 2 * n, 2 * n, {**{(k, n + k): ring.one for k in range(n)},
                                               **{(n + k, k): lower for k in range(n)}})
    return BilinearForm(kind, n, gram, epsilon)


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
    # ((row, col), q) for each entry x of each token, q = -x: the entries
    # of the token's inverse
    _ops: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Check each token once, through ``_entries``, and keep its entries."""
        if self.kind not in WORD_KINDS:
            raise ValueError(f"unknown group kind {self.kind!r}")
        ring, eps, n, ops = self.ring, self.epsilon, self.n, []
        for t in self.tokens:
            ops.extend(_entries(ring, eps, n, t.tag, t.i, t.j, t.param, -t.exponent).items())
        object.__setattr__(self, "_ops", tuple(ops))

    @property
    def matrix_size(self) -> int:
        return 2 * self.n if self.epsilon else self.n

    @property
    def epsilon(self) -> int:
        return WORD_KINDS[self.kind][1]

    def evaluate(self) -> Matrix:
        """The product of the tokens, left to right, by column operations on
        the identity: right multiplication by I + x*E_rc adds x times column
        r to column c, i.e. ``axpy`` with q = -x.  A short root's two entries
        lie in disjoint columns and rows, so they apply one after the other."""
        ring = self.ring
        cols = list(Matrix.identity(ring, self.matrix_size).entries)  # symmetric: rows are columns
        for (r, c), q in self._ops:
            cols[c] = ring.axpy(cols[c], q, cols[r])
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
