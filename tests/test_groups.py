import random
import re

import pytest

from rigidlin import (
    GeneratorWord,
    Integers,
    Matrix,
    Modular,
    ParseError,
    WordToken,
    elementary_matrix,
    embed_stabilize,
    form_matrix,
    format_matrix,
    format_word,
    parse_matrix,
    parse_word,
    preserves_form,
    ring_from_text,
    sigma_index,
    unitary_generator,
)
from rigidlin.suites import random_elementary_word, random_unitary_word

Z = Integers()


def _assert_word_gives(kind, n, token, expected):
    """The one-token word gives the hand-written matrix, and its ^-1 token
    the inverse: an independent pin of the word path."""
    m = parse_matrix(Z, expected)
    assert parse_word(Z, kind, n, token).evaluate() == m
    assert (parse_word(Z, kind, n, token + "^-1").evaluate() @ m).is_identity()


def test_elementary_examples():
    r = 7
    assert elementary_matrix(Z, 2, 1, 2, r) == parse_matrix(Z, f"1,{r};0,1")
    assert elementary_matrix(Z, 3, 1, 2, 0) == Matrix.identity(Z, 3)
    assert elementary_matrix(Z, 3, 3, 1, 2) == parse_matrix(Z, "1,0,0;0,1,0;2,0,1")
    _assert_word_gives("en", 2, f"e(1,2,{r})", f"1,{r};0,1")
    _assert_word_gives("en", 3, "e(1,2,0)", "1,0,0;0,1,0;0,0,1")
    _assert_word_gives("en", 3, "e(3,1,2)", "1,0,0;0,1,0;2,0,1")
    with pytest.raises(ValueError):
        elementary_matrix(Z, 3, 2, 2, 1)
    with pytest.raises(ValueError):
        elementary_matrix(Z, 3, 0, 2, 1)


def test_sigma_involution():
    for n in range(1, 9):
        for k in range(1, 2 * n + 1):
            assert sigma_index(n, sigma_index(n, k)) == k
    assert sigma_index(2, 1) == 3 and sigma_index(2, 3) == 1
    with pytest.raises(ValueError):
        sigma_index(2, 5)


def test_long_root_generator():
    # n=2, i=1, j=sigma(1)=3: identity plus a at (1, 3); symplectic only
    a = 5
    assert unitary_generator(Z, 2, -1, 1, 3, a) == parse_matrix(
        Z, f"1,0,{a},0;0,1,0,0;0,0,1,0;0,0,0,1")
    _assert_word_gives("esp", 2, f"rl(1,{a})", f"1,0,{a},0;0,1,0,0;0,0,1,0;0,0,0,1")
    with pytest.raises(ValueError):
        unitary_generator(Z, 2, +1, 1, 3, a)


def test_short_root_zero_parameter():
    assert unitary_generator(Z, 2, +1, 1, 4, 0) == Matrix.identity(Z, 4)


@pytest.mark.parametrize("i,j,eps,expected", [
    # all four mirrored-parameter cases at n=2, parameter a=5
    (1, 2, +1, "1,5,0,0;0,1,0,0;0,0,1,0;0,0,-5,1"),   # both in first block: a' = a
    (1, 2, -1, "1,5,0,0;0,1,0,0;0,0,1,0;0,0,-5,1"),
    (1, 4, +1, "1,0,0,5;0,1,-5,0;0,0,1,0;0,0,0,1"),   # first block to second: a' = eps*a
    (1, 4, -1, "1,0,0,5;0,1,5,0;0,0,1,0;0,0,0,1"),
    (3, 2, +1, "1,0,0,0;0,1,0,0;0,5,1,0;-5,0,0,1"),   # second block to first: a' = a*eps
    (3, 2, -1, "1,0,0,0;0,1,0,0;0,5,1,0;5,0,0,1"),
    (3, 4, +1, "1,0,0,0;-5,1,0,0;0,0,1,5;0,0,0,1"),   # both in second block: a' = a
    (3, 4, -1, "1,0,0,0;-5,1,0,0;0,0,1,5;0,0,0,1"),
])
def test_short_root_mirror_cases(i, j, eps, expected):
    assert unitary_generator(Z, 2, eps, i, j, 5) == parse_matrix(Z, expected)
    _assert_word_gives("eo" if eps == 1 else "esp", 2, f"rs({i},{j},5)", expected)


def test_short_root_mirror_identity():
    # rho_ij(a) equals rho_{sigma j, sigma i}(-a') for every position
    for n in (2, 3):
        for eps in (-1, 1):
            for i in range(1, 2 * n + 1):
                for j in range(1, 2 * n + 1):
                    if j in (i, sigma_index(n, i)):
                        continue
                    gen = unitary_generator(Z, n, eps, i, j, 3)
                    si, sj = sigma_index(n, i), sigma_index(n, j)
                    mirrored = gen.entries[sj - 1][si - 1]  # this is -a'
                    assert unitary_generator(Z, n, eps, sj, si, mirrored) == gen


def test_form_matrices():
    sym1 = form_matrix(Z, 1, "symplectic")
    assert sym1.gram == parse_matrix(Z, "0,1;-1,0") and sym1.epsilon == -1
    orth1 = form_matrix(Z, 1, "orthogonal")
    assert orth1.gram == parse_matrix(Z, "0,1;1,0") and orth1.epsilon == 1
    sym2 = form_matrix(Z, 2, "symplectic")
    assert sym2.gram == parse_matrix(Z, "0,0,1,0;0,0,0,1;-1,0,0,0;0,-1,0,0")
    assert sym2.pairing((1, 0, 0, 0), (0, 0, 1, 0)) == 1
    assert sym2.pairing((0, 0, 1, 0), (1, 0, 0, 0)) == -1


def test_preserves_form_examples():
    sym = form_matrix(Z, 2, "symplectic")
    orth = form_matrix(Z, 2, "orthogonal")
    assert preserves_form(Matrix.identity(Z, 4), sym)
    for a in (-2, 1, 3):
        assert preserves_form(unitary_generator(Z, 2, -1, 1, 3, a), sym)
    assert not preserves_form(parse_matrix(Z, "1,0,1,0;0,1,0,0;0,0,1,0;0,0,0,1"), orth)
    with pytest.raises(ValueError):
        preserves_form(Matrix.identity(Z, 3), sym)


def _dense_preserves(m, form):
    # reference: both products with the dense gram
    return m.transpose() @ form.gram @ m == form.gram


@pytest.mark.parametrize("ring_text", ["Z", "Z/6", "Zi", "Fp[x]/5", "Z[x]"])
@pytest.mark.parametrize("kind", ["symplectic", "orthogonal"])
def test_covector_and_preserves_form_match_the_dense_gram(ring_text, kind):
    ring = ring_from_text(ring_text)
    rng = random.Random(f"{ring_text}:{kind}")
    pool = ring.take(9)
    word_kind = "esp" if kind == "symplectic" else "eo"
    verdicts = set()
    for n in range(1, 5):
        form = form_matrix(ring, n, kind)
        size = form.size
        for _ in range(4):
            x, y = (tuple(rng.choice(pool) for _ in range(size)) for _ in range(2))
            row = Matrix(ring, [x]) @ form.gram
            assert form.covector(x) == row.entries[0]
            assert form.pairing(x, y) == row.apply(y)[0]
        # the gram itself preserves its form, as does every generator word
        preserving = [form.gram]
        if n > 1:
            preserving += [random_unitary_word(rng, ring, word_kind, n, rng.randint(1, 6)).evaluate()
                           for _ in range(3)]
        elif kind == "symplectic":
            preserving.append(parse_word(ring, "esp", 1, "rl(1,2);rl(2,-1)").evaluate())
        for m in preserving:
            assert preserves_form(m, form) and _dense_preserves(m, form)
            one_off = [list(r) for r in m.entries]
            one_off[0][size - 1] = ring.add(one_off[0][size - 1], ring.one)
            others = [Matrix(ring, one_off),
                      Matrix(ring, [[rng.choice(pool) for _ in range(size)] for _ in range(size)])]
            for other in others:
                verdict = preserves_form(other, form)
                assert verdict == _dense_preserves(other, form), format_matrix(other)
                verdicts.add(verdict)
    assert False in verdicts


def test_generators_preserve_their_forms_exhaustively():
    for n in (2, 3):
        sym = form_matrix(Z, n, "symplectic")
        orth = form_matrix(Z, n, "orthogonal")
        for a in (1, -1, 2):
            for i in range(1, 2 * n + 1):
                si = sigma_index(n, i)
                long_root = unitary_generator(Z, n, -1, i, si, a)
                assert preserves_form(long_root, sym)
                assert not preserves_form(long_root, orth)  # 2a != 0 over Z
                for j in range(1, 2 * n + 1):
                    if j in (i, si):
                        continue
                    assert preserves_form(unitary_generator(Z, n, -1, i, j, a), sym)
                    assert preserves_form(unitary_generator(Z, n, +1, i, j, a), orth)


def test_generator_parameter_additivity():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.choice((2, 3))
        eps = rng.choice((-1, 1))
        i = rng.randrange(1, 2 * n + 1)
        j = rng.randrange(1, 2 * n + 1)
        while j in (i, sigma_index(n, i)):
            j = rng.randrange(1, 2 * n + 1)
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        lhs = unitary_generator(Z, n, eps, i, j, a) @ unitary_generator(Z, n, eps, i, j, b)
        assert lhs == unitary_generator(Z, n, eps, i, j, a + b)


# -- words -------------------------------------------------------------------

def test_empty_word_is_identity():
    word = GeneratorWord(Z, "en", 3, ())
    assert word.evaluate() == Matrix.identity(Z, 3)


def test_word_evaluation_example():
    word = parse_word(Z, "en", 2, "e(1,2,1);e(2,1,-1)")
    assert word.evaluate() == parse_matrix(Z, "0,1;-1,1")


def test_word_inverse_token():
    word = parse_word(Z, "en", 2, "e(1,2,1)^-1")
    assert word.evaluate() == elementary_matrix(Z, 2, 1, 2, -1)
    assert (word.evaluate() @ elementary_matrix(Z, 2, 1, 2, 1)).is_identity()


def _dense_word_reference(word):
    """The product of the tokens' dense generator matrices, left to right."""
    ring, n = word.ring, word.n
    acc = Matrix.identity(ring, word.matrix_size)
    for tok in word.tokens:
        param = tok.param if tok.exponent == 1 else ring.neg(tok.param)
        if tok.tag == "e":
            gen = elementary_matrix(ring, n, tok.i, tok.j, param)
        elif tok.tag == "rl":
            gen = unitary_generator(ring, n, -1, tok.i, sigma_index(n, tok.i), param)
        else:
            gen = unitary_generator(ring, n, word.epsilon, tok.i, tok.j, param)
        acc = acc @ gen
    return acc


@pytest.mark.parametrize("text", ["Z", "Z/6", "Zi", "Fp[x]/5"])
def test_word_evaluation_matches_dense_products(text):
    ring = ring_from_text(text)
    rng = random.Random(f"dense-words:{text}")
    pool = [c for c in ring.take(40) if c != ring.zero]
    seen = set()
    for _ in range(150):
        kind = rng.choice(("en", "esp", "eo"))
        length = rng.randint(0, 8)
        if kind == "en":
            word = random_elementary_word(rng, ring, rng.randint(2, 5), length, pool)
        else:
            word = random_unitary_word(rng, ring, kind, rng.choice((2, 3)), length, pool)
        for tok in word.tokens:
            same_block = tok.j is not None and (tok.i <= word.n) == (tok.j <= word.n)
            seen.add((kind, tok.tag, same_block if tok.tag == "rs" else None, tok.exponent))
        if not word.tokens:
            seen.add((kind, "empty"))
        assert word.evaluate() == _dense_word_reference(word), format_word(word)
    # every kind of token, both mirror cases and both exponents were drawn
    want = {("en", "e", None, e) for e in (1, -1)} | {("esp", "rl", None, e) for e in (1, -1)}
    want |= {(k, "rs", same, e) for k in ("esp", "eo") for same in (True, False) for e in (1, -1)}
    want |= {(k, "empty") for k in ("en", "esp", "eo")}
    assert want <= seen


def test_word_roundtrip_and_validation():
    word = parse_word(Z, "esp", 2, "rl(1,3);rs(1,2,-2)^-1;rs(3,2,1)")
    assert parse_word(Z, "esp", 2, format_word(word)) == word
    with pytest.raises(ParseError):
        parse_word(Z, "en", 2, "e(1,1,3)")  # diagonal position
    with pytest.raises(ParseError):
        parse_word(Z, "eo", 2, "rl(1,3)")  # long root outside the symplectic group
    with pytest.raises(ParseError):
        parse_word(Z, "esp", 2, "rs(1,3,2)")  # j == sigma(i)
    with pytest.raises(ParseError):
        parse_word(Z, "en", 2, "q(1,2,3)")


def test_elementary_words_have_determinant_one():
    rng = random.Random(59)
    for _ in range(50):
        n = rng.randint(2, 4)
        word = random_elementary_word(rng, Z, n, rng.randint(1, 8))
        assert word.evaluate().det() == 1


def test_word_times_reversed_inverted_is_identity():
    rng = random.Random(61)
    for _ in range(100):
        kind = rng.choice(("en", "esp", "eo"))
        if kind == "en":
            word = random_elementary_word(rng, Z, rng.randint(2, 4), rng.randint(1, 8))
        else:
            word = random_unitary_word(rng, Z, kind, rng.choice((2, 3)), rng.randint(1, 8))
        assert (word.evaluate() @ word.inverse().evaluate()).is_identity()


def test_unitary_words_preserve_their_form():
    rng = random.Random(67)
    for _ in range(40):
        kind = rng.choice(("esp", "eo"))
        n = rng.choice((2, 3))
        form = form_matrix(Z, n, "symplectic" if kind == "esp" else "orthogonal")
        word = random_unitary_word(rng, Z, kind, n, rng.randint(1, 6))
        assert preserves_form(word.evaluate(), form)


# -- stabilization embedding --------------------------------------------------

def test_embed_identity():
    assert embed_stabilize(Matrix.identity(Z, 2)) == Matrix.identity(Z, 4)


def test_embed_block_placement():
    a = parse_matrix(Z, "1,2;3,4")  # blocks alpha=1, beta=2, gamma=3, delta=4 at n=1
    assert embed_stabilize(a) == parse_matrix(Z, "1,0,0,0;0,1,0,2;0,0,1,0;0,3,0,4")


def test_embed_preserves_symplectic_form():
    rng = random.Random(71)
    bigger_form = form_matrix(Z, 3, "symplectic")
    for _ in range(25):
        word = random_unitary_word(rng, Z, "esp", 2, rng.randint(1, 6))
        assert preserves_form(embed_stabilize(word.evaluate()), bigger_form)
    with pytest.raises(ValueError):
        embed_stabilize(parse_matrix(Z, "1,0,0;0,1,0;0,0,1"))


def test_token_validation():
    with pytest.raises(ValueError):
        GeneratorWord(Z, "en", 2, (WordToken("e", 1, 2, 1, 2),))  # bad exponent
    with pytest.raises(ValueError):
        GeneratorWord(Z, "bad", 2, ())


SYMPLECTIC_2 = form_matrix(Z, 2, "symplectic")


@pytest.mark.parametrize("call, error, fragment", [
    pytest.param(lambda: unitary_generator(Z, 2, 0, 1, 2, 1), ValueError,
                 "epsilon must be +1 or -1", id="generator-epsilon"),
    pytest.param(lambda: unitary_generator(Z, 2, 1, 0, 2, 1), ValueError,
                 "indices (0, 2) out of range 1..4", id="generator-index-low"),
    pytest.param(lambda: unitary_generator(Z, 2, -1, 1, 5, 1), ValueError,
                 "indices (1, 5) out of range 1..4", id="generator-index-high"),
    pytest.param(lambda: unitary_generator(Z, 2, -1, 2, 2, 1), ValueError,
                 "off-diagonal position required", id="generator-diagonal"),
    pytest.param(lambda: SYMPLECTIC_2.covector((1, 0, 0)), ValueError,
                 "vector length 3 does not match form rank 4", id="covector-length"),
    pytest.param(lambda: form_matrix(Z, 0, "symplectic"), ValueError,
                 "half-rank must be positive", id="form-half-rank"),
    pytest.param(lambda: form_matrix(Z, 2, "unitary"), ValueError,
                 "unknown form kind 'unitary'", id="form-kind"),
    pytest.param(lambda: preserves_form(Matrix.identity(Modular(5), 4), SYMPLECTIC_2),
                 ValueError, "ring mismatch between matrix and form", id="preserves-ring"),
    pytest.param(lambda: GeneratorWord(Z, "en", 2, (WordToken("rs", 1, 2, 1),)), ValueError,
                 "token 'rs' is not a linear-group generator", id="token-not-linear"),
    pytest.param(lambda: GeneratorWord(Z, "esp", 2, (WordToken("rl", 5, None, 1),)), ValueError,
                 "index 5 out of range 1..4", id="token-long-root-index"),
    pytest.param(lambda: GeneratorWord(Z, "eo", 2, (WordToken("rs", 1, 5, 1),)), ValueError,
                 "indices (1, 5) out of range 1..4", id="token-short-root-indices"),
    pytest.param(lambda: GeneratorWord(Z, "esp", 2, (WordToken("e", 1, 2, 1),)), ValueError,
                 "token 'e' is not a unitary generator", id="token-not-unitary"),
    pytest.param(lambda: parse_word(Z, "esp", 2, "rl(1,2,3)"), ParseError,
                 "token 'rl' takes 2 arguments", id="parse-argument-count-rl"),
    pytest.param(lambda: parse_word(Z, "en", 2, "e(1,2)"), ParseError,
                 "token 'e' takes 3 arguments", id="parse-argument-count-e"),
    pytest.param(lambda: parse_word(Z, "en", 2, "e(a,2,1)"), ParseError,
                 "bad index in token 'e(a,2,1)'", id="parse-index"),
])
def test_bad_inputs_are_refused(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()


@pytest.mark.parametrize("dense, kind, n, token, message", [
    (lambda: elementary_matrix(Z, 3, 0, 2, 1), "en", 3, WordToken("e", 0, 2, 1),
     "indices (0, 2) out of range 1..3"),
    (lambda: elementary_matrix(Z, 3, 2, 4, 1), "en", 3, WordToken("e", 2, 4, 1),
     "indices (2, 4) out of range 1..3"),
    (lambda: elementary_matrix(Z, 3, 2, 2, 1), "en", 3, WordToken("e", 2, 2, 1),
     "off-diagonal position required (i != j)"),
    (lambda: elementary_matrix(Z, 3, 1, 2, 1.5), "en", 3, WordToken("e", 1, 2, 1.5),
     "1.5 is not an element of Z"),
    (lambda: unitary_generator(Z, 2, 1, 1, 5, 1), "eo", 2, WordToken("rs", 1, 5, 1),
     "indices (1, 5) out of range 1..4"),
    (lambda: unitary_generator(Z, 2, -1, 0, 2, 1), "esp", 2, WordToken("rs", 0, 2, 1),
     "indices (0, 2) out of range 1..4"),
    (lambda: unitary_generator(Z, 2, -1, 2, 2, 1), "esp", 2, WordToken("rs", 2, 2, 1),
     "off-diagonal position required (i != j)"),
    (lambda: unitary_generator(Z, 2, 1, 1, 3, 1), "eo", 2, WordToken("rl", 1, None, 1),
     "long-root generators exist only in the symplectic group"),
    (lambda: unitary_generator(Z, 2, 1, 1, 2, 1.5), "eo", 2, WordToken("rs", 1, 2, 1.5),
     "1.5 is not an element of Z"),
    (lambda: unitary_generator(Z, 2, -1, 4, 2, 1.5), "esp", 2, WordToken("rl", 4, None, 1.5),
     "1.5 is not an element of Z"),
], ids=["e-low", "e-high", "e-diagonal", "e-param", "rs-high", "rs-low", "rs-diagonal",
        "rl-orthogonal", "rs-param", "rl-param"])
def test_dense_generators_and_word_tokens_refuse_alike(dense, kind, n, token, message):
    with pytest.raises(ValueError) as by_dense:
        dense()
    with pytest.raises(ValueError) as by_word:
        GeneratorWord(Z, kind, n, (token,))
    assert str(by_dense.value) == str(by_word.value) == message


@pytest.mark.parametrize("kind, n, token, message", [
    ("esp", 2, WordToken("rl", 1, 99, 1), "token 'rl' takes no index j, got 99"),
    ("esp", 2, WordToken("rl", 1, 3, 1), "token 'rl' takes no index j, got 3"),
    ("en", 3, WordToken("e", 1, None, 1), "token 'e' needs an index j"),
    ("eo", 2, WordToken("rs", 1, None, 1), "token 'rs' needs an index j"),
], ids=["rl-with-j", "rl-with-its-own-j", "e-without-j", "rs-without-j"])
def test_word_tokens_refuse_a_wrong_arity(kind, n, token, message):
    with pytest.raises(ValueError) as refused:
        GeneratorWord(Z, kind, n, (token,))
    assert str(refused.value) == message
