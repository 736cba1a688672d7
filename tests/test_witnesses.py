import itertools
import random
import re
import warnings

import pytest

import rigidlin.witnesses
from rigidlin import (
    BlockWitness,
    GaussianIntegers,
    IdentityViolation,
    Integers,
    Matrix,
    Modular,
    NotInvertibleError,
    PrimeFieldPolynomials,
    ShearWitness,
    StabilizerContext,
    block_unipotent_witnesses,
    build_shear,
    complement_module,
    conjugate_module,
    elementary_matrix,
    form_matrix,
    in_row_span,
    intersection_witnesses,
    kernel_basis,
    parse_matrix,
    parse_word,
    preserves_form,
    stabilizer_check,
    transvection,
    transvection_short,
    unit_vector,
    unitary_generator,
)
from rigidlin.normal_forms import KernelModule, combination_stream
from rigidlin.suites import (
    _random_stabilizer_conjugator,
    random_elementary_word,
    random_unitary_word,
)

Z = Integers()


def test_stabilizer_check():
    assert stabilizer_check(Matrix.identity(Z, 3))
    assert stabilizer_check(elementary_matrix(Z, 3, 1, 2, 7))  # first column untouched
    assert not stabilizer_check(elementary_matrix(Z, 3, 2, 1, 1))  # e1 -> e1 + e2


def test_build_shear():
    assert build_shear(Z, 3, (0, 0)).matrix == Matrix.identity(Z, 3)
    c = 9
    assert build_shear(Z, 3, (0, c)).matrix == elementary_matrix(Z, 3, 1, 3, c)
    f, g = (1, -2), (3, 5)
    lhs = build_shear(Z, 3, f).matrix @ build_shear(Z, 3, g).matrix
    assert lhs == build_shear(Z, 3, (4, 3)).matrix  # functionals add
    with pytest.raises(ValueError):
        build_shear(Z, 3, (1,))


def test_intersection_witnesses_pinned_example():
    # one conjugator moving e1 to e1 + e2: image tail (1, 0), so the
    # annihilator is the (0, c) family and the witnesses are the (1,3) shears
    ctx = StabilizerContext(Z, 3, (elementary_matrix(Z, 3, 2, 1, 1),))
    assert ctx.projected_images == ((1, 0),)
    found = list(itertools.islice(intersection_witnesses(ctx, 4), 4))
    assert [w.matrix for w in found] == [
        elementary_matrix(Z, 3, 1, 3, c) for c in (1, -1, 2, -2)
    ]
    g = ctx.conjugators[0]
    g_inv = g.inverse()
    e1 = unit_vector(Z, 3, 0)
    for w in found:
        assert g_inv.apply(w.matrix.apply(g.apply(e1))) == e1


def test_intersection_witness_functionals_examples():
    # one image with tail (1, 0): the functionals are the (0, c) family
    ctx = StabilizerContext(Z, 3, (elementary_matrix(Z, 3, 2, 1, 1),))
    assert [w.functional for w in intersection_witnesses(ctx, 2)] == [(0, 1), (0, -1)]
    # no images: shell order on coefficient pairs, (0,1), (1,0), (1,1), then height two
    unconstrained = [w.functional for w in intersection_witnesses(StabilizerContext(Z, 3), 4)]
    assert unconstrained == [(0, 1), (1, 0), (1, 1), (0, -1)]
    # tails (1, 0, 0) and (0, 1, 0)
    two = StabilizerContext(Z, 4, (elementary_matrix(Z, 4, 2, 1, 1),
                                   elementary_matrix(Z, 4, 3, 1, 1)))
    family = [w.functional for w in intersection_witnesses(two, 4)]
    assert family == [(0, 0, 1), (0, 0, -1), (0, 0, 2), (0, 0, -2)]


def test_intersection_witnesses_annihilate_random_images():
    rng = random.Random(47)
    for _ in range(20):
        words = [random_elementary_word(rng, Z, 5, 4) for _ in range(2)]
        ctx = StabilizerContext(Z, 5, tuple(w.evaluate() for w in words))
        for w in intersection_witnesses(ctx, 10):
            for u in ctx.projected_images:
                assert sum(x * y for x, y in zip(w.functional, u)) == 0


def test_intersection_witnesses_unconstrained():
    ctx = StabilizerContext(Z, 3, (Matrix.identity(Z, 3),))
    found = list(itertools.islice(intersection_witnesses(ctx, 6), 6))
    assert len({w.matrix for w in found}) == 6  # every shear qualifies


def test_intersection_witnesses_finite_ring():
    m5 = Modular(5)
    rng = random.Random(73)
    word = random_elementary_word(rng, m5, 3, 4)
    ctx = StabilizerContext(m5, 3, (word.evaluate(),))
    found = list(intersection_witnesses(ctx, 10_000))
    assert 0 < len(found) < 25  # finite stream, exhausted
    e1 = unit_vector(m5, 3, 0)
    for w in found:
        for g in ctx.conjugators:
            assert g.inverse().apply(w.matrix.apply(g.apply(e1))) == e1


def test_conjugate_by_identity_and_row_shears():
    ctx = StabilizerContext(Z, 4, ())
    # the identity, and a pure row shear (lower block identity), leave
    # every functional alone
    for q in (Matrix.identity(Z, 4), build_shear(Z, 4, (7, -1, 0)).matrix):
        assert conjugate_module(ctx, q) == ctx.kernel


def test_conjugate_by_block_embedding():
    # q = 1 (+) A rotates each functional by A
    q = parse_matrix(Z, "1,0,0;0,0,1;0,-1,0")  # A = (0, 1; -1, 0)
    ctx = StabilizerContext(Z, 3, ())
    module = conjugate_module(ctx, q)
    assert module.basis == ((0, 1), (-1, 0))
    # every shear with entries up to 5 in size, paired with its conjugate
    conjugates = dict(zip(combination_stream(ctx.kernel, 120), combination_stream(module, 120)))
    assert conjugates[2, 5] == (-5, 2)  # (2,5) @ [[0,1],[-1,0]]
    q_inverse = q.inverse()
    for f, conjugate in conjugates.items():
        assert ShearWitness(Z, conjugate).matrix == q_inverse @ ShearWitness(Z, f).matrix @ q


def test_conjugate_respects_context_constraints():
    ctx = StabilizerContext(Z, 3, (elementary_matrix(Z, 3, 2, 1, 1),))
    # a conjugator that moves the image is rejected as input error
    with pytest.raises(ValueError):
        conjugate_module(ctx, parse_matrix(Z, "1,0,0;0,0,1;0,-1,0"))
    # one that fixes it is accepted and the new functionals annihilate it
    good = parse_matrix(Z, "1,0,4;0,1,7;0,0,1")
    for functional in combination_stream(conjugate_module(ctx, good), 5):
        assert sum(x * u for x, u in zip(functional, (1, 0))) == 0


def test_conjugate_rejects_non_stabilizer():
    ctx = StabilizerContext(Z, 3, ())
    with pytest.raises(ValueError):
        conjugate_module(ctx, elementary_matrix(Z, 3, 2, 1, 1))
    with pytest.raises(ValueError):
        conjugate_module(ctx, parse_matrix(Z, "1,0,0;0,2,0;0,0,1"))  # det 2


@pytest.mark.parametrize("q, message", [
    (Matrix.identity(Z, 4), "does not match the context"),
    (Matrix.identity(Modular(5), 3), "does not match the context"),
    (elementary_matrix(Z, 3, 2, 1, 1), "is not a stabilizer element (first column != e1)"),
    (parse_matrix(Z, "1,0,0;0,1,0;0,0,2"), "is not invertible"),  # det 2, fixes the image
    (parse_matrix(Z, "1,0,0;0,0,1;0,-1,0"), "does not fix the conjugated images"),  # det 1
], ids=["size", "ring", "first-column", "det", "image"])
def test_conjugate_module_refuses_a_bad_conjugator(q, message):
    # one conjugator moving e1 to the image (1, 1, 0)
    ctx = StabilizerContext(Z, 3, (elementary_matrix(Z, 3, 2, 1, 1),))
    with pytest.raises(ValueError, match=f"^conjugator {re.escape(message)}$"):
        conjugate_module(ctx, q)


def test_conjugator_is_checked_where_it_enters():
    # the kernel's second generator (1, 0) does not annihilate the image
    # tail (1, 0); a bad conjugator is refused before any generator is
    # conjugated, so the refusal is the ValueError, not the violation
    ctx = StabilizerContext(Z, 3, (elementary_matrix(Z, 3, 2, 1, 1),))
    ctx.kernel = KernelModule(Z, 2, ((0, 1), (1, 0)))
    cases = (
        (Matrix.identity(Z, 4), "does not match the context"),  # wrong size
        (elementary_matrix(Z, 3, 2, 1, 1), "not a stabilizer element"),
        (parse_matrix(Z, "1,0,0;0,1,0;0,0,2"), "not invertible"),  # det 2, fixes the image
        (parse_matrix(Z, "1,0,0;0,0,1;0,-1,0"), "does not fix"),  # det 1, moves the image
    )
    for q, message in cases:
        with pytest.raises(ValueError, match=message):
            conjugate_module(ctx, q)


def test_conjugate_module_spans_the_conjugated_witnesses():
    # one image tail (1, 0, 0): the module is generated by (0, 1, 0) and (0, 0, 1)
    ctx = StabilizerContext(Z, 4, (elementary_matrix(Z, 4, 2, 1, 1),))
    q = parse_matrix(Z, "1,0,3,-1;0,1,2,5;0,0,2,1;0,0,1,1")  # A = (1, 2, 5; 0, 2, 1; 0, 1, 1)
    module = conjugate_module(ctx, q)
    assert module == KernelModule(Z, 3, ((0, 2, 1), (0, 1, 1)))
    q_inverse = q.inverse()
    conjugates = [(q_inverse @ w.matrix @ q).entries[0][1:] for w in intersection_witnesses(ctx, 8)]
    assert all(in_row_span(Z, module.basis, f) for f in conjugates)
    assert all(in_row_span(Z, conjugates, g) for g in module.basis)


def test_conjugate_module_checks_every_generator():
    # a module whose second generator does not annihilate the image tail
    # (1, 0, 0): its first conjugate passes, its second must not
    ctx = StabilizerContext(Z, 4, (elementary_matrix(Z, 4, 2, 1, 1),))
    ctx.kernel = KernelModule(Z, 3, ((0, 1, 0), (1, 0, 1)))
    q = parse_matrix(Z, "1,0,3,-1;0,1,2,5;0,0,2,1;0,0,1,1")
    with pytest.raises(IdentityViolation, match="does not annihilate an image"):
        conjugate_module(ctx, q)


def test_conjugating_a_shear_outside_the_intersection_is_a_violation():
    # f = (1, 0) does not annihilate the image tail (1, 0), so no conjugate
    # of its shear is a member: a module holding it as a generator, beside
    # the member (0, 1), is refused whichever side of it the outsider sits
    ctx = StabilizerContext(Z, 3, (elementary_matrix(Z, 3, 2, 1, 1),))
    for basis in (((0, 1), (1, 0)), ((1, 0), (0, 1))):
        ctx.kernel = KernelModule(Z, 2, basis)
        for q in (Matrix.identity(Z, 3), parse_matrix(Z, "1,0,5;0,1,3;0,0,1")):
            with pytest.raises(IdentityViolation, match="does not annihilate an image"):
                conjugate_module(ctx, q)


def _pool(ring):
    return [ring.parse(str(c)) for c in (-2, -1, 0, 1, 2)]


_RINGS = {"Z": Z, "Z/7": Modular(7), "Zi": GaussianIntegers(), "Fp[x]/5": PrimeFieldPolynomials(5)}


def test_conjugate_matches_the_dense_product():
    # T' = q^-1 T q on random stabilizer elements fixing the context images:
    # the conjugated module streams each T' where the kernel streams T
    rng = random.Random(89)
    for ring in _RINGS.values():
        pool = _pool(ring)
        for n in (3, 4, 5):
            word = random_elementary_word(rng, ring, n, 4)
            ctx = StabilizerContext(ring, n, (word.evaluate(),))
            functionals = list(combination_stream(ctx.kernel, 3))
            for _ in range(4):
                q = _random_stabilizer_conjugator(rng, ring, n, functionals, pool)
                shears = list(combination_stream(ctx.kernel, 6))
                conjugates = list(combination_stream(conjugate_module(ctx, q), 6))
                assert len(conjugates) == len(shears)
                q_inverse = q.inverse()
                for f, conjugate in zip(shears, conjugates):
                    expected = q_inverse @ ShearWitness(ring, f).matrix @ q
                    assert ShearWitness(ring, conjugate).matrix == expected


def _identity_plus_outer(ring, col, row):
    """I + col * row, entry by entry."""
    return Matrix(ring, [[ring.add(ring.one if i == j else ring.zero, ring.mul(c, r))
                          for j, r in enumerate(row)] for i, c in enumerate(col)])


def _dense_stabilizer_conjugator(rng, ring, n, functionals):
    """The conjugator as built by dense products, block @ (I + w psi), with
    the same draws in the same order."""
    dim = n - 1
    pool = _pool(ring)

    def combo():
        out = [ring.zero] * dim
        for f in functionals:
            c = rng.choice(pool)
            if c != ring.zero:
                out = ring.axpy(out, ring.neg(c), f)
        return tuple(out)

    x_part = combo()
    block = Matrix.identity(ring, dim)
    for _ in range(rng.randint(0, 2)):
        psi = combo()
        if all(c == ring.zero for c in psi):
            continue
        w_kernel = kernel_basis(Matrix(ring, [list(psi)]))
        if not w_kernel.basis:
            continue
        w = [ring.zero] * dim
        for gen in w_kernel.basis:
            c = rng.choice(pool)
            if c != ring.zero:
                w = ring.axpy(w, ring.neg(c), gen)
        block = block @ _identity_plus_outer(ring, w, psi)
    top = (ring.one,) + x_part
    return Matrix._raw(ring, (top,) + tuple((ring.zero,) + row for row in block.entries))


@pytest.mark.parametrize("name", list(_RINGS))
def test_random_conjugator_matches_the_dense_reference(name):
    ring = _RINGS[name]
    pool = _pool(ring)
    rng = random.Random(97)
    nontrivial = 0
    for n in (3, 4, 5):
        ctx = StabilizerContext(ring, n, (random_elementary_word(rng, ring, n, 4).evaluate(),))
        functionals = [w.functional for w in itertools.islice(intersection_witnesses(ctx, 3), 3)]
        for trial in range(8):
            ours, reference = random.Random(f"{n}:{trial}"), random.Random(f"{n}:{trial}")
            q = _random_stabilizer_conjugator(ours, ring, n, functionals, pool)
            assert q == _dense_stabilizer_conjugator(reference, ring, n, functionals)
            assert ours.getstate() == reference.getstate()  # the same draws
            nontrivial += q.entries[1:] != Matrix.identity(ring, n).entries[1:]
    assert nontrivial  # some lower block is not the identity


def test_complement_module_examples():
    sym = form_matrix(Z, 2, "symplectic")
    e = [unit_vector(Z, 4, k) for k in range(4)]
    c = complement_module(sym, [e[0]])
    assert len(c.basis) == 3
    for v in (e[0], e[1], e[3]):  # pairing with e1 reads the third coordinate
        assert in_row_span(Z, c.basis, v)
    assert not in_row_span(Z, c.basis, e[2])
    full = complement_module(sym, [])
    assert len(full.basis) == 4
    two = complement_module(sym, [e[0], e[1]])
    assert len(two.basis) == 2
    for v in two.basis:
        assert v[2] == 0 and v[3] == 0


def test_transvection_trivial_cases():
    sym = form_matrix(Z, 2, "symplectic")
    zero = (0, 0, 0, 0)
    e2 = unit_vector(Z, 4, 1)
    assert transvection(sym, zero, e2) == Matrix.identity(Z, 4)
    assert transvection(sym, e2, zero) == Matrix.identity(Z, 4)


def test_transvection_short_pinned():
    sym = form_matrix(Z, 2, "symplectic")
    e1 = unit_vector(Z, 4, 0)
    assert transvection_short(sym, e1, 1) == parse_matrix(
        Z, "1,0,-1,0;0,1,0,0;0,0,1,0;0,0,0,1")
    orth = form_matrix(Z, 2, "orthogonal")
    assert transvection_short(orth, e1, 1) == Matrix.identity(Z, 4)


@pytest.mark.parametrize("ring, build, bad", [
    (Z, lambda f: transvection(f, (1.0, 0, 0, 0), (0, 1, 0, 0)), "1.0 is not an element of Z"),
    (Z, lambda f: transvection(f, (1, 0, 0, 0), (0, 1, 0, 0.5)), "0.5 is not an element of Z"),
    (Modular(5), lambda f: transvection(f, (1, 0, 0, 0), (0, 6, 0, 0)),
     "6 is not an element of Z/5"),
    (Z, lambda f: transvection_short(f, (1.5, 0, 0, 0), 1), "1.5 is not an element of Z"),
    (Modular(5), lambda f: transvection_short(f, (0, 0, 0, 5), 1), "5 is not an element of Z/5"),
], ids=["float-u", "float-v", "residue-v", "short-float-v", "short-residue-v"])
def test_transvections_check_each_vector_entry(ring, build, bad):
    for kind in ("symplectic", "orthogonal"):
        with pytest.raises(ValueError, match=re.escape(bad)):
            build(form_matrix(ring, 2, kind))


def test_transvection_isotropy_enforced():
    orth = form_matrix(Z, 2, "orthogonal")
    e1 = unit_vector(Z, 4, 0)
    e3 = unit_vector(Z, 4, 2)  # <e1, e3> = 1 under the split form
    with pytest.raises(ValueError):
        transvection(orth, e1, e3)
    anisotropic = (1, 0, 1, 0)  # <v, v> = 2
    with pytest.raises(ValueError):
        transvection(orth, anisotropic, e1)
    with pytest.raises(ValueError):
        transvection_short(orth, anisotropic, 1)


def test_transvection_preserves_form_and_equivariance():
    rng = random.Random(79)
    for kind, word_kind in (("symplectic", "esp"), ("orthogonal", "eo")):
        form = form_matrix(Z, 2, kind)
        for _ in range(25):
            # isotropic pairs from the totally isotropic first-block span
            u = (rng.randint(-3, 3), rng.randint(-3, 3), 0, 0)
            v = (rng.randint(-3, 3), rng.randint(-3, 3), 0, 0)
            tau = transvection(form, u, v)
            assert preserves_form(tau, form)
            word = random_unitary_word(rng, Z, word_kind, 2, rng.randint(1, 4))
            g = word.evaluate()
            g_inv = word.inverse().evaluate()
            assert g @ tau @ g_inv == transvection(form, g.apply(u), g.apply(v))


def test_transvection_fixed_by_commuting_conjugator():
    # all four vectors drawn from one totally isotropic block: the
    # conjugating transvection fixes u and v, so conjugation is trivial
    form = form_matrix(Z, 3, "orthogonal")
    u = (1, 0, 2, 0, 0, 0)
    v = (0, 1, -1, 0, 0, 0)
    u2 = (2, 1, 0, 0, 0, 0)
    v2 = (0, 3, 1, 0, 0, 0)
    tau = transvection(form, u, v)
    g = transvection(form, u2, v2)
    g_inv = transvection(form, u2, tuple(-c for c in v2))
    assert (g @ g_inv).is_identity()
    assert g @ tau @ g_inv == tau


def _scalar_pairing(form, x, y):
    """<x, y> = x^T * gram * y, entry by entry."""
    ring, gram = form.ring, form.gram.entries
    acc = ring.zero
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            acc = ring.add(acc, ring.mul(ring.mul(xi, gram[i][j]), yj))
    return acc


@pytest.mark.parametrize("ring", [Z, Modular(6), GaussianIntegers(), PrimeFieldPolynomials(5)],
                         ids=["Z", "Z/6", "Zi", "Fp[x]/5"])
def test_transvections_match_the_scalar_reference(ring):
    # column k of tau(u, v) is e_k + eps*u<v, e_k> - v<u, e_k>, and of the
    # short one e_k - r*v<v, e_k>, on isotropic pairs moved off the first
    # block by a random form-preserving word
    pool = _pool(ring)
    rng = random.Random(83)
    nontrivial = 0
    for kind, word_kind in (("symplectic", "esp"), ("orthogonal", "eo")):
        for n in (2, 3):
            form = form_matrix(ring, n, kind)
            size = 2 * n
            for _ in range(6):
                g = random_unitary_word(rng, ring, word_kind, n, rng.randint(1, 3)).evaluate()
                u, v = (g.apply(tuple(rng.choice(pool) for _ in range(n)) + (ring.zero,) * n)
                        for _ in range(2))
                r = rng.choice(pool)
                tau, short = transvection(form, u, v), transvection_short(form, v, r)
                for k in range(size):
                    e_k = unit_vector(ring, size, k)
                    pu, pv = _scalar_pairing(form, u, e_k), _scalar_pairing(form, v, e_k)
                    eps_pv = pv if form.epsilon == 1 else ring.neg(pv)
                    assert tau.column(k) == tuple(
                        ring.sub(ring.add(e, ring.mul(a, eps_pv)), ring.mul(b, pu))
                        for e, a, b in zip(e_k, u, v))
                    assert short.column(k) == (e_k if kind == "orthogonal" else tuple(
                        ring.sub(e, ring.mul(r, ring.mul(b, pv))) for e, b in zip(e_k, v)))
                nontrivial += not tau.is_identity()
    assert nontrivial > 12


def _fixes_constraints(ctx, u, v, r):
    tau = transvection(ctx.form, u, v)
    short = transvection_short(ctx.form, v, r)
    return all(tau.apply(w) == w and short.apply(w) == w for w in ctx.constraint_vectors)


def test_transvection_fixes_constraints():
    sym = form_matrix(Z, 2, "symplectic")
    ctx = StabilizerContext(Z, 4, (), sym)
    assert _fixes_constraints(ctx, (1, 2, 0, 0), (0, 1, 0, 0), 3)
    g = unitary_generator(Z, 2, -1, 3, 1, 1)  # g e1 = e1 + e3
    ctx2 = StabilizerContext(Z, 4, (g,), sym)
    # u, v must pair to zero with e1 and e1 + e3: second-block coordinate
    # directions e2 work
    assert _fixes_constraints(ctx2, (0, 1, 0, 0), (0, 2, 0, 0), 1)
    # a pair outside the complement of e1 moves it
    assert not _fixes_constraints(ctx, (0, 0, 1, 0), (0, 1, 0, 0), 1)


def test_block_witness_word_realization():
    # the ordered product of the upper-block generators equals (I, A; 0, I)
    for kind, word_text, a_text in (
        ("esp", "rl(1,3);rs(1,4,5);rl(2,-2)", "3,5;5,-2"),
        ("eo", "rs(1,4,5)", "0,5;-5,0"),
    ):
        word = parse_word(Z, kind, 2, word_text)
        assert word.evaluate() == BlockWitness(parse_matrix(Z, a_text)).matrix


def test_block_witness_matrix():
    a = parse_matrix(Z, "1,2;3,4")
    assert BlockWitness(a).matrix == parse_matrix(Z, "1,0,1,2;0,1,3,4;0,0,1,0;0,0,0,1")
    assert BlockWitness(parse_matrix(Z, "0")).matrix == Matrix.identity(Z, 2)


def test_block_witnesses_symplectic_pinned():
    sym = form_matrix(Z, 2, "symplectic")
    g = unitary_generator(Z, 2, -1, 3, 1, 1)  # g e1 = e1 + e3, so y = (1, 0)
    found = list(itertools.islice(block_unipotent_witnesses(sym, g, 3), 3))
    image = g.column(0)
    for w in found:
        # first row and column of the symmetric block are forced to zero
        assert w.block.entries[0] == (0, 0) and w.block.entries[1][0] == 0
        assert w.matrix.apply(image) == image
        assert preserves_form(w.matrix, sym)
    assert [w.block.entries[1][1] for w in found] == [1, -1, 2]  # the free diagonal parameter


def test_block_witness_constraint_convention():
    # regression pin: for t = (I, A; 0, I) and w = (x, y), t(w) - w = (A y, 0)
    rng = random.Random(83)
    for kind in ("symplectic", "orthogonal"):
        form = form_matrix(Z, 3, kind)
        for _ in range(10):
            entries = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            if kind == "symplectic":
                for i in range(3):
                    for j in range(i):
                        entries[i][j] = entries[j][i]
            else:
                for i in range(3):
                    entries[i][i] = 0
                    for j in range(i):
                        entries[i][j] = -entries[j][i]
            a = Matrix(Z, entries)
            t = BlockWitness(a).matrix
            assert preserves_form(t, form)
            w = tuple(rng.randint(-5, 5) for _ in range(6))
            moved = t.apply(w)
            delta = tuple(m - x for m, x in zip(moved, w))
            assert delta[:3] == a.apply(w[3:])
            assert delta[3:] == (0, 0, 0)


def test_block_witnesses_identity_conjugator():
    orth = form_matrix(Z, 4, "orthogonal")
    found = list(itertools.islice(block_unipotent_witnesses(orth, Matrix.identity(Z, 8), 20), 20))
    assert len({w.block for w in found}) == 20
    e1 = unit_vector(Z, 8, 0)
    for w in found:
        assert w.matrix.apply(e1) == e1


def test_block_witnesses_reject_bad_g():
    sym = form_matrix(Z, 2, "symplectic")
    not_symplectic = parse_matrix(Z, "1,1,0,0;0,1,0,0;0,0,1,0;0,0,0,1")
    with pytest.raises(ValueError, match="does not preserve the form"):
        list(block_unipotent_witnesses(sym, not_symplectic, 1))
    with pytest.raises(ValueError, match="does not match form rank"):
        list(block_unipotent_witnesses(sym, Matrix.identity(Z, 6), 1))


def test_block_witnesses_orthogonal_small_rank_warns():
    orth = form_matrix(Z, 2, "orthogonal")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        list(itertools.islice(block_unipotent_witnesses(orth, Matrix.identity(Z, 4), 2), 2))
    assert any("half-rank >= 3" in str(w.message) for w in caught)


@pytest.mark.parametrize("kind", ["symplectic", "orthogonal"])
def test_asymmetric_block_is_a_form_violation(monkeypatch, kind):
    # g = I gives y = 0, so the block fixes g e1 and only the symmetry check fails
    upper_only = parse_matrix(Z, "0,1,0,0;0,0,0,0;0,0,0,0;0,0,0,0")
    monkeypatch.setattr(rigidlin.witnesses, "_block_from_parameters",
                        lambda form, params: upper_only)
    form = form_matrix(Z, 4, kind)
    with pytest.raises(IdentityViolation, match="failed form preservation"):
        next(block_unipotent_witnesses(form, Matrix.identity(Z, 8), 1))


def _parameters_off_the_kernel(kernel, count):
    """Kernel parameters with one added to each coordinate."""
    ring = kernel.ring
    for params in combination_stream(kernel, count):
        yield tuple(ring.add(c, ring.one) for c in params)


def test_block_moving_g_e1_is_a_violation(monkeypatch):
    # y = (1, 0) forces A = (0, 0; 0, c); shifted parameters give A y = (1, 1)
    monkeypatch.setattr(rigidlin.witnesses, "combination_stream", _parameters_off_the_kernel)
    sym = form_matrix(Z, 2, "symplectic")
    g = unitary_generator(Z, 2, -1, 3, 1, 1)
    with pytest.raises(IdentityViolation, match="moved g e1"):
        next(block_unipotent_witnesses(sym, g, 1))


def test_symplectic_row_generators_are_heisenberg():
    # mirror pairs fail to commute exactly by the central long root with
    # doubled parameter product; this pins the two-step nilpotent structure
    for a in (1, -1, 2):
        for b in (1, -1, 3):
            lhs = unitary_generator(Z, 2, -1, 1, 2, a) @ unitary_generator(Z, 2, -1, 1, 4, b)
            rhs = (unitary_generator(Z, 2, -1, 1, 4, b)
                   @ unitary_generator(Z, 2, -1, 1, 2, a)
                   @ unitary_generator(Z, 2, -1, 1, 3, 2 * a * b))
            assert lhs == rhs
            assert lhs != rhs @ unitary_generator(Z, 2, -1, 1, 3, 1)  # correction is exact


def test_orthogonal_row_generators_commute():
    for n in (2, 3):
        s1 = 1 + n
        gens = [unitary_generator(Z, n, 1, 1, i, a)
                for i in range(2, 2 * n + 1) if i != s1 for a in (1, 2)]
        for g1, g2 in itertools.combinations(gens, 2):
            assert g1 @ g2 == g2 @ g1


def test_context_validation():
    with pytest.raises(NotInvertibleError):
        StabilizerContext(Z, 3, (parse_matrix(Z, "2,0,0;0,1,0;0,0,1"),))  # det 2
    sym = form_matrix(Z, 2, "symplectic")
    with pytest.raises(ValueError):
        StabilizerContext(Z, 4, (elementary_matrix(Z, 4, 1, 2, 1),), sym)  # breaks the form


ORTHOGONAL_2 = form_matrix(Z, 2, "orthogonal")


@pytest.mark.parametrize("call, error, fragment", [
    pytest.param(lambda: StabilizerContext(Z, 4, (), form_matrix(Z, 3, "symplectic")), ValueError,
                 "form rank does not match the context size", id="context-form-rank"),
    pytest.param(lambda: StabilizerContext(Z, 3, (Matrix.identity(Modular(5), 3),)), ValueError,
                 "conjugator ring mismatch", id="context-ring"),
    pytest.param(lambda: StabilizerContext(Z, 3, (Matrix.identity(Z, 4),)), ValueError,
                 "conjugator size mismatch", id="context-size"),
    pytest.param(lambda: stabilizer_check(parse_matrix(Z, "1,0,0;0,1,0")), ValueError,
                 "stabilizer check needs a square matrix", id="stabilizer-non-square"),
    pytest.param(lambda: build_shear(Z, 1, ()), ValueError,
                 "shears need size at least 2", id="shear-size"),
    pytest.param(lambda: StabilizerContext(Z, 1), ValueError,
                 "shears need size at least 2", id="context-size-1"),
    # <u, v> = 0 in both cases, and <w, w> = 2 for w = (1, 0, 1, 0) or (0, 1, 0, 1)
    pytest.param(lambda: transvection(ORTHOGONAL_2, (1, 0, 1, 0), (0, 1, 0, 0)), ValueError,
                 "transvection needs isotropic u and v", id="transvection-u-not-isotropic"),
    pytest.param(lambda: transvection(ORTHOGONAL_2, (1, 0, 0, 0), (0, 1, 0, 1)), ValueError,
                 "transvection needs isotropic u and v", id="transvection-v-not-isotropic"),
])
def test_bad_inputs_are_refused(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
