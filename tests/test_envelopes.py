"""Karoubi/Blackwell envelope cells, morphisms, copy formula, law
checking, and almost-sure equality transfer."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finmarkov.envelopes as envelopes
import finmarkov.idempotents as idempotents
import finmarkov.kernel as kernel_module
from finmarkov import (
    UNIT,
    CellMismatch,
    EnvelopeCell,
    EnvelopeMorphism,
    Flavor,
    Kernel,
    Kind,
    NotBalanced,
    NotEndo,
    NotHom,
    NotIdempotent,
    ValidationError,
    blackwell_copy,
    cell_tensor,
    classify,
    compose,
    discard_kernel,
    env_ase,
    env_cell,
    env_check_markov_laws,
    env_compose,
    env_discard,
    env_hom,
    env_identity,
    env_split_idempotent,
    env_tensor,
    fin_object,
    function_kernel,
    identity,
    io_relation,
    kernel_equal,
    make_kernel,
    multi_kernel,
    pair,
    random_class_idempotent,
    tensor,
    validate,
)
from finmarkov.golden import (
    balanced_idempotent,
    multi_chain3_idempotent,
    multi_upset_idempotent,
    signed_coassoc_counterexample,
    signed_idempotent,
    static_idempotent,
    static_split,
    strong_idempotent,
)
from finmarkov.kernel import _law_break, _stored_columns, swap_kernel
from finmarkov.rand import random_kernel
from oracles import (
    all_multi_kernels,
    constant_map_witness,
    env_check_markov_laws_by_tensors,
    env_split_idempotent_by_homs,
    env_tensor_by_tensors,
    kernel_refusal,
    random_object,
    raw_cell,
    raw_kernel,
)

F = Fraction


def _blackwell(e):
    return env_cell(e.dom, e, Flavor.BLACKWELL)


# ---------------------------------------------------------------------------
# cell validation
# ---------------------------------------------------------------------------


def test_identity_cell_accepted_both_flavors():
    x = fin_object(("a", "b"))
    for flavor in Flavor:
        cell = env_cell(x, identity(x), flavor)
        assert cell.flavor is flavor


def test_balanced_golden_matrix_accepted():
    cell = _blackwell(balanced_idempotent())
    assert cell.endo is not None


def test_multi_upset_karoubi_only():
    e = multi_upset_idempotent()
    assert env_cell(e.dom, e, Flavor.KAROUBI) is not None
    with pytest.raises(NotBalanced):
        env_cell(e.dom, e, Flavor.BLACKWELL)


def test_blackwell_flavor_given_by_its_value_requires_balance():
    e = signed_idempotent()
    with pytest.raises(NotBalanced):
        env_cell(e.dom, e, "blackwell")
    assert env_cell(e.dom, e, "karoubi").flavor is Flavor.KAROUBI


def test_cell_constructor_converts_its_flavor():
    # the constructor reads a flavor by its value as env_cell does, so a
    # cell built either way is the same cell and Blackwell operations take it
    x = fin_object(("a", "b"))
    cell = EnvelopeCell(x, identity(x), "blackwell")
    assert cell.flavor is Flavor.BLACKWELL
    assert cell == env_cell(x, identity(x), Flavor.BLACKWELL)
    assert blackwell_copy(cell).dst == cell_tensor(cell, env_cell(x, identity(x), "blackwell"))
    for make in (EnvelopeCell, env_cell):
        with pytest.raises(ValueError):
            make(x, identity(x), 42)


def test_non_idempotent_rejected():
    x = fin_object(("a", "b"))
    rot = make_kernel(Kind.STOCH, x, x, [[0, 1], [1, 0]])
    with pytest.raises(NotIdempotent):
        env_cell(x, rot, Flavor.KAROUBI)


def test_cell_endomorphism_off_the_column_law_rejected_both_flavors():
    # 0 ↦ ∅, 1 ↦ {1} is idempotent as a relation but has an empty image;
    # Kernel(...) refuses it, so no cell of either flavor holds it
    x = fin_object(("0", "1"))
    bad = kernel_refusal(Kind.MULTI, x, x, [[False, False], [False, True]])
    assert bad.message == "column 0 has empty image"


def test_the_empty_image_relation_is_refused_by_every_constructor():
    # 0 ↦ ∅, 1 ↦ {1}: env_ase asks nothing of its outer cells, so no public
    # constructor may build this relation
    x = fin_object(("0", "1"))
    for build, args in ((Kernel, (Kind.MULTI, x, x, [[False, False], [False, True]])),
                        (make_kernel, (Kind.MULTI, x, x, [[0, 0], [0, 1]])),
                        (multi_kernel, (x, x, [[], ["1"]]))):
        with pytest.raises(ValidationError, match="^column 0 has empty image$"):
            build(*args)


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------


def test_cell_endo_is_cell_identity():
    e = balanced_idempotent()
    cell = _blackwell(e)
    m = env_hom(cell, cell, e)
    assert kernel_equal(m.kernel, env_identity(cell).kernel)


def test_splitting_inclusion_is_morphism_from_plain_cell():
    e = static_idempotent()
    iota, _ = static_split()
    t = iota.dom
    src = env_cell(t, identity(t), Flavor.BLACKWELL)
    dst = _blackwell(e)
    m = env_hom(src, dst, iota)
    assert kernel_equal(m.kernel, iota)


def test_construction_refuses_a_swap_cell_and_an_unabsorbed_morphism():
    # the swap is an endo but not idempotent, so no cell holds it and no
    # identity of such a cell exists; a kernel that an endpoint idempotent
    # does not absorb is no morphism, so env_ase never compares one
    x = fin_object(("a", "b"))
    swap = function_kernel(x, x, [1, 0], Kind.STOCH)
    for flavor in Flavor:
        with pytest.raises(NotIdempotent, match="^cell endomorphism must be idempotent$"):
            EnvelopeCell(x, swap, flavor)
    e = static_idempotent()
    cell, plain = _blackwell(e), _blackwell(identity(e.dom))
    with pytest.raises(NotHom, match="^source idempotent is not absorbed"):
        EnvelopeMorphism(cell, plain, identity(e.dom))
    with pytest.raises(NotHom, match="^target idempotent is not absorbed"):
        EnvelopeMorphism(plain, cell, identity(e.dom))
    assert EnvelopeMorphism(cell, plain, e) == env_hom(cell, plain, e)


def test_identity_between_different_cells_checked_not_assumed():
    e = balanced_idempotent()
    x = e.dom
    with pytest.raises(NotHom):
        env_hom(_blackwell(e), _blackwell(identity(x)), identity(x))


def test_env_compose_with_identity_and_associativity():
    rng = random.Random(3)
    for _ in range(25):
        x = random_object(rng, 5, "s")
        cell = _blackwell(random_class_idempotent(rng, x).idempotent)
        e = cell.endo
        f = env_hom(cell, cell, compose(e, compose(random_kernel(rng, Kind.STOCH, x, x), e)))
        g = env_hom(cell, cell, compose(e, compose(random_kernel(rng, Kind.STOCH, x, x), e)))
        h = env_hom(cell, cell, compose(e, compose(random_kernel(rng, Kind.STOCH, x, x), e)))
        assert kernel_equal(env_compose(f, env_identity(cell)).kernel, f.kernel)
        assert kernel_equal(env_compose(env_identity(cell), f).kernel, f.kernel)
        lhs = env_compose(h, env_compose(g, f))
        rhs = env_compose(env_compose(h, g), f)
        assert kernel_equal(lhs.kernel, rhs.kernel)


def test_env_compose_cell_mismatch():
    a = _blackwell(strong_idempotent())
    b = _blackwell(balanced_idempotent())
    with pytest.raises(CellMismatch):
        env_compose(env_identity(b), env_identity(a))


def test_env_tensor_of_blackwell_cells_is_blackwell():
    a = _blackwell(strong_idempotent())
    b = _blackwell(balanced_idempotent())
    t = cell_tensor(a, b)
    assert t.flavor is Flavor.BLACKWELL
    assert classify(t.endo).balanced
    m = env_tensor(env_identity(a), env_identity(b))
    assert kernel_equal(m.kernel, tensor(a.endo, b.endo))


def test_nested_tensor_cells_write_no_labels():
    # cell_tensor reads no label and hashes no cell, so the tensor of a
    # tensor cell with another cell leaves the inner tensor objects unwritten
    x = fin_object(("a", "b"))
    c = env_cell(x, identity(x), Flavor.KAROUBI)
    inner = cell_tensor(c, c)
    outer = cell_tensor(inner, c)
    assert outer.endo == tensor(inner.endo, c.endo)
    assert inner.object._labels is None and inner.endo.cod._labels is None
    assert outer.object._labels is None and outer.endo.cod._labels is None


def test_tensor_cell_identities_and_splittings_write_no_labels():
    # no envelope operation hashes a cell it derives, so the tensor of a
    # tensor cell's identity with another identity and the tensor cell's
    # formal splitting leave the tensor object's labels unwritten
    x, y = fin_object(("a", "b")), fin_object(("c",))
    a, b = (env_cell(o, identity(o), Flavor.KAROUBI) for o in (x, y))
    ab = cell_tensor(a, b)
    m = env_tensor(env_identity(ab), env_identity(a))
    proj, incl = env_split_idempotent(ab)
    assert m.src.endo == tensor(ab.endo, a.endo) and proj.dst is incl.src is ab
    assert ab.object._labels is None and ab.endo.cod._labels is None
    assert m.src.object._labels is None


# ---------------------------------------------------------------------------
# copy morphism and the Markov laws
# ---------------------------------------------------------------------------


def test_identity_cell_copy_is_plain_copy():
    from finmarkov import copy_kernel

    x = fin_object(("a", "b"))
    cell = env_cell(x, identity(x), Flavor.BLACKWELL)
    assert kernel_equal(blackwell_copy(cell).kernel, copy_kernel(x))


def test_blackwell_cells_from_golden_examples_pass_all_laws():
    for e in (strong_idempotent(), static_idempotent(), balanced_idempotent()):
        report = env_check_markov_laws(_blackwell(e))
        assert report.all_pass


def test_copy_formula_on_non_balanced_multi_direct_evaluation():
    # Direct exact evaluation: over booleans the copy formula satisfies
    # the comonoid laws even on non-balanced idempotents (checked
    # exhaustively for every multivalued idempotent on up to four
    # elements).  The boolean column law is rigid enough to force
    # coassociativity; the genuine failure lives in the signed model, see
    # the counterexample test below.
    for e in (multi_upset_idempotent(), multi_chain3_idempotent()):
        cell = EnvelopeCell(e.dom, e, Flavor.BLACKWELL)
        report = env_check_markov_laws(cell)
        assert report.coassociative
        assert report.all_pass


def test_copy_formula_fails_coassociativity_on_signed_counterexample():
    # why balance matters: a non-balanced signed idempotent whose induced
    # copy morphism is counital and cocommutative but NOT coassociative
    from finmarkov.golden import signed_coassoc_counterexample

    e = signed_coassoc_counterexample()
    assert kernel_equal(compose(e, e), e)
    assert not classify(e).balanced
    cell = EnvelopeCell(e.dom, e, Flavor.BLACKWELL)
    report = env_check_markov_laws(cell)
    assert report.counit_left and report.counit_right and report.cocommutative
    assert not report.coassociative
    assert not report.all_pass


def test_copy_formula_coassociative_for_every_small_multi_idempotent():
    x = fin_object(("0", "1", "2"))
    for e in all_multi_kernels(x, x):
        if not kernel_equal(compose(e, e), e):
            continue
        cell = EnvelopeCell(x, e, Flavor.BLACKWELL)
        assert env_check_markov_laws(cell).coassociative


def test_discard_naturality_fails_on_an_empty_image():
    # 0 ↦ ∅, 1 ↦ {1} is idempotent but breaks the multivalued column law, so
    # Kernel(...) refuses it.  With r the constant map to 0, discard∘e∘r∘e is
    # the empty relation, while discard∘e reaches the unit from 1: the one
    # law a lawful idempotent cannot break.
    x = fin_object(("0", "1"))
    rows = [[False, False], [False, True]]
    e = raw_kernel(Kind.MULTI, x, x, rows)
    assert kernel_equal(compose(e, e), e)
    cell = raw_cell(x, e, Flavor.KAROUBI)
    assert kernel_refusal(Kind.MULTI, x, x, rows) == validate(e)
    report = env_check_markov_laws_by_tensors(cell)
    assert report.counit_left and report.counit_right
    assert report.coassociative and report.cocommutative
    assert not report.discard_natural and constant_map_witness(cell) == "0"


def test_env_discard_is_the_discard_after_the_idempotent_in_every_kind(monkeypatch):
    # within the column law discard∘e is the discard itself, so no cell
    # composes anything; an endo that is not idempotent makes no cell
    x = fin_object(str(i) for i in range(5))
    rng = random.Random(3)
    cells = [
        _blackwell(random_class_idempotent(rng, x).idempotent),
        env_cell(signed_idempotent().dom, signed_idempotent(), Flavor.KAROUBI),
        env_cell(multi_upset_idempotent().dom, multi_upset_idempotent(), Flavor.KAROUBI),
    ]
    assert [c.endo.kind for c in cells] == [Kind.STOCH, Kind.SIGNED, Kind.MULTI]
    for kind in Kind:
        with pytest.raises(NotIdempotent, match="^cell endomorphism must be idempotent$"):
            EnvelopeCell(x, random_kernel(rng, kind, x, x), Flavor.KAROUBI)
    calls = []
    monkeypatch.setattr(envelopes, "compose", lambda *args: calls.append(args) or compose(*args))
    for cell in cells:
        kind = cell.endo.kind
        m = env_discard(cell)
        assert calls == []
        assert m.src is cell
        assert m.kernel == compose(discard_kernel(cell.object, kind), cell.endo)
        assert m.kernel == discard_kernel(cell.object, kind)
        assert m.dst == EnvelopeCell(UNIT, identity(UNIT, kind), cell.flavor)
        assert env_hom(cell, m.dst, m.kernel) == m
        calls.clear()


def test_env_discard_off_the_column_law_is_not_the_discard():
    # 0 ↦ ∅, 1 ↦ {1}: discard∘e misses 0, and both idempotents still absorb
    # it; Kernel(...) refuses e, so no cell of env_discard, env_hom,
    # env_compose or cell_tensor holds it
    x = fin_object(("0", "1"))
    rows = [[False, False], [False, True]]
    e = raw_kernel(Kind.MULTI, x, x, rows)
    k = compose(discard_kernel(x, Kind.MULTI), e)
    assert k != discard_kernel(x, Kind.MULTI)
    assert kernel_equal(compose(k, e), k)
    assert kernel_refusal(Kind.MULTI, x, x, rows) == validate(e)


def test_copy_requires_blackwell_flavor():
    e = multi_upset_idempotent()
    cell = env_cell(e.dom, e, Flavor.KAROUBI)
    with pytest.raises(NotBalanced):
        blackwell_copy(cell)


def test_random_blackwell_cells_pass_laws():
    rng = random.Random(7)
    for _ in range(20):
        x = random_object(rng, 5, "s")
        e = random_class_idempotent(rng, x).idempotent
        report = env_check_markov_laws(_blackwell(e))
        assert report.all_pass


def test_markov_laws_classify_only_signed_cells(monkeypatch):
    # every stochastic idempotent passes the class test, so is balanced, and
    # a multivalued copy is coassociative: Stoch and Multi cells pass every
    # law without being classified
    rng = random.Random(17)
    stoch = [random_class_idempotent(rng, random_object(rng, 6, "s")).idempotent for _ in range(10)]
    endos = stoch + [io_relation(e) for e in stoch] + [multi_upset_idempotent(), multi_chain3_idempotent()]
    cells = [EnvelopeCell(e.dom, e, flavor) for e in endos for flavor in Flavor]
    signed = EnvelopeCell(signed_idempotent().dom, signed_idempotent(), Flavor.KAROUBI)

    def refused(e):
        raise AssertionError("classified a cell")

    monkeypatch.setattr(envelopes, "classify", refused)
    assert all(env_check_markov_laws(cell).all_pass for cell in cells)
    with pytest.raises(AssertionError, match="classified a cell"):
        env_check_markov_laws(signed)


def test_copy_checks_build_no_tensor_and_env_tensor_composes_nothing(monkeypatch):
    # the signed counterexample is not balanced, so its laws take the
    # composites, which pair; the tensor of two morphisms is absorbed as
    # they are, (f⊗g)∘(e⊗e') = (f∘e)⊗(g∘e'), so env_tensor composes nothing
    built, domains = [], []
    monkeypatch.setattr(envelopes, "tensor", lambda f, g: built.append((f, g)) or tensor(f, g))
    monkeypatch.setattr(envelopes, "compose", lambda g, f: domains.append(f.dom.size) or compose(g, f))
    e = signed_coassoc_counterexample()
    cell = EnvelopeCell(e.dom, e, Flavor.BLACKWELL)
    assert not env_check_markov_laws(cell).coassociative
    env_ase(env_identity(cell), env_identity(cell), env_identity(cell))
    assert domains and built == []
    incl, _ = env_split_idempotent(cell)
    domains.clear()
    m = env_tensor(env_identity(cell), incl)
    assert domains == []
    assert m == env_tensor_by_tensors(env_identity(cell), incl)


def test_unbalanced_settled_laws_build_the_copy_and_one_composite(monkeypatch):
    # on every cell e∘e = e gives both counit laws, and the two
    # coassociativity sides are each other's reversal, so the laws build
    # the copy and ⟨cpy, e⟩∘e; an idempotent on another object makes no
    # cell, and its refusal composes nothing
    composed, paired, discards = [], [], []
    monkeypatch.setattr(envelopes, "compose", lambda g, f: composed.append((g, f)) or compose(g, f))
    monkeypatch.setattr(envelopes, "pair", lambda f, g: paired.append((f, g)) or pair(f, g))
    monkeypatch.setattr(envelopes, "discard_kernel", lambda *a: discards.append(a) or discard_kernel(*a))
    e = signed_coassoc_counterexample()
    cell = env_cell(e.dom, e, Flavor.KAROUBI)
    assert env_check_markov_laws(cell) == envelopes.MarkovLawReport(True, True, False, True, True)
    cpy = compose(pair(e, e), e)
    assert paired == [(e, e), (cpy, e)]
    assert len(composed) == 2 and discards == []
    composed.clear(), paired.clear()
    e = signed_idempotent()
    with pytest.raises(NotEndo, match="^cell endomorphism must live on the cell's object$"):
        EnvelopeCell(fin_object(("u", "v", "w")), e, Flavor.KAROUBI)
    assert composed == paired == discards == []


def _endo(rng, kind, n, variant):
    """An endomorphism on n elements: 0, a valid kernel; 1, a class
    idempotent; 2, a `raw_kernel` off the column law."""
    x = fin_object(str(i) for i in range(n))
    if variant == 0:
        return random_kernel(rng, kind, x, x)
    if variant == 1:
        e = random_class_idempotent(rng, x).idempotent
        return Kernel(kind, x, x, [[bool(v) for v in row] for row in e.matrix] if kind is Kind.MULTI else e.matrix)
    if kind is Kind.MULTI:
        return raw_kernel(kind, x, x, [[rng.random() < 0.5 for _ in range(n)] for _ in range(n)])
    low = 0 if kind is Kind.STOCH else -3
    return raw_kernel(kind, x, x, [[F(rng.randrange(low, 4), rng.randrange(1, 4)) for _ in range(n)] for _ in range(n)])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(Kind)), st.integers(1, 4), st.integers(0, 2**32), st.integers(0, 2))
def test_coassociativity_sides_are_each_others_reversal(kind, n, seed, variant):
    # each column of cpy = ⟨e,e⟩∘e is symmetric, so ⟨ee, cpy⟩∘e at (a,b,c) is
    # ⟨cpy, ee⟩∘e at (c,b,a), for any endo, idempotent or not
    e = _endo(random.Random(seed), kind, n, variant)
    ee, cpy = compose(e, e), compose(pair(e, e), e)
    lhs, rhs = compose(pair(cpy, ee), e), compose(pair(ee, cpy), e)
    rev = [c * n * n + b * n + a for a, b, c in itertools.product(range(n), repeat=3)]
    assert compose(function_kernel(lhs.cod, rhs.cod, rev, kind), lhs).columns == rhs.columns
    assert envelopes._reversal_fixed(lhs, n) == (lhs.columns == rhs.columns)


def test_markov_laws_compose_nothing_with_a_swap(monkeypatch):
    # cocommutativity holds by construction, so no swap∘copy is built on the
    # settled, non-balanced signed counterexample, which takes the
    # composites; Kernel(...) refuses the idempotents off the column law in
    # Stoch and Multi, so no cell holds them
    left = []
    monkeypatch.setattr(envelopes, "compose", lambda g, f: left.append(g) or compose(g, f))
    x = fin_object(str(i) for i in range(6))
    m = random_class_idempotent(random.Random(6), x).idempotent.matrix
    scaled = raw_kernel(Kind.STOCH, x, x, [[m[i][j] * (i + 1) / (j + 1) for j in range(6)] for i in range(6)])
    empty = raw_kernel(Kind.MULTI, x, x, [[i == j > 0 for j in range(6)] for i in range(6)])
    for e in (scaled, signed_coassoc_counterexample(), empty):
        assert compose(e, e) == e
        left.clear()
        if (bad := validate(e)) is not None:
            assert kernel_refusal(e.kind, e.dom, e.cod, e.matrix) == bad
        else:
            assert env_check_markov_laws(EnvelopeCell(e.dom, e, Flavor.KAROUBI)).cocommutative
            assert left and swap_kernel(e.dom, e.dom, e.kind) not in left
    assert validate(scaled) is not None and validate(empty) is not None


def test_settled_cells_compose_nothing(monkeypatch):
    # a valid Blackwell cell is settled: its laws, the tensor of two cell
    # identities and its formal splitting all follow from e∘e = e
    composed = []
    monkeypatch.setattr(envelopes, "compose", lambda g, f: composed.append((g, f)) or compose(g, f))
    x = fin_object(str(i) for i in range(6))
    cell = _blackwell(random_class_idempotent(random.Random(6), x).idempotent)
    small = _blackwell(strong_idempotent())
    assert env_check_markov_laws(cell).all_pass
    m = env_tensor(env_identity(cell), env_identity(small))
    split = env_split_idempotent(cell)
    assert composed == []
    assert m == env_tensor_by_tensors(env_identity(cell), env_identity(small))
    assert split == env_split_idempotent_by_homs(cell)


def test_each_cell_is_validated_once(monkeypatch):
    # one pass of the envelope-laws queries on a cell classifies its endo
    # when the cell is built, for balance and for the laws; the endo was
    # validated when it was built, no envelope operation checks the column
    # law again, and the endo is classified once
    idempotents._classify_cached.cache_clear()
    x = fin_object(str(i) for i in range(6))
    e = random_class_idempotent(random.Random(6), x).idempotent
    law_checks = []
    monkeypatch.setattr(kernel_module, "_law_break", lambda *args: law_checks.append(args) or _law_break(*args))
    monkeypatch.setattr(kernel_module, "_stored_columns",
                        lambda *args: law_checks.append(args) or _stored_columns(*args))
    cell = env_cell(x, e, Flavor.BLACKWELL)
    ident = env_identity(cell)
    for _ in range(2):
        assert env_check_markov_laws(cell).all_pass
        env_tensor(ident, ident)
        env_split_idempotent(cell)
        assert env_ase(ident, ident, ident)
    assert law_checks == []
    assert idempotents._classify_cached.cache_info().misses == 1
    # Kernel(...) refuses a doubled identity, so no cell holds it
    y = fin_object(("0", "1"))
    assert kernel_refusal(Kind.STOCH, y, y, [[2, 0], [0, 1]]).message == "column 0 sums to 2"


def test_env_ase_builds_no_copy_and_env_tensor_of_identities_one_tensor(monkeypatch):
    paired, built = [], []
    monkeypatch.setattr(envelopes, "pair", lambda f, g: paired.append((f, g)) or pair(f, g))
    monkeypatch.setattr(envelopes, "tensor", lambda f, g: built.append((f, g)) or tensor(f, g))
    x = fin_object(str(i) for i in range(6))
    cell = _blackwell(random_class_idempotent(random.Random(6), x).idempotent)
    p = env_identity(cell)
    assert env_ase(p, p, p)
    assert len(paired) == 2  # the two joints: with e∘e = e the copy is not built
    small = _blackwell(strong_idempotent())
    m = env_tensor(env_identity(cell), env_identity(small))
    assert len(built) == 1 and m.src is m.dst and m.kernel is m.src.endo
    assert m == env_tensor_by_tensors(env_identity(cell), env_identity(small))


# ---------------------------------------------------------------------------
# idempotent splitting inside the envelope
# ---------------------------------------------------------------------------


def test_formal_splitting_of_cells():
    rng = random.Random(13)
    examples = [strong_idempotent(), static_idempotent(), balanced_idempotent()]
    for _ in range(20):
        x = random_object(rng, 5, "s")
        examples.append(random_class_idempotent(rng, x).idempotent)
    for e in examples:
        proj, incl = env_split_idempotent(_blackwell(e))
        assert kernel_equal(env_compose(proj, incl).kernel, e)


def test_stochastic_karoubi_cells_are_blackwell_cells():
    # every stochastic idempotent is balanced, so the Karoubi cell
    # revalidates at the Blackwell flavor
    rng = random.Random(17)
    for _ in range(50):
        x = random_object(rng, 6, "s")
        e = random_class_idempotent(rng, x).idempotent
        karoubi = env_cell(x, e, Flavor.KAROUBI)
        assert env_cell(karoubi.object, karoubi.endo, Flavor.BLACKWELL) is not None


# ---------------------------------------------------------------------------
# almost-sure equality in the envelope
# ---------------------------------------------------------------------------


def test_env_ase_identical_morphisms():
    e = balanced_idempotent()
    cell = _blackwell(e)
    m = env_identity(cell)
    assert env_ase(m, m, m)


def test_env_ase_agrees_with_base_on_random_triples():
    rng = random.Random(19)
    for _ in range(60):
        x = random_object(rng, 4, "x")
        y = random_object(rng, 4, "y")
        z = random_object(rng, 3, "z")
        ex = random_class_idempotent(rng, x).idempotent
        ey = random_class_idempotent(rng, y).idempotent
        ez = random_class_idempotent(rng, z).idempotent
        ca, cb, cc = _blackwell(ex), _blackwell(ey), _blackwell(ez)
        p = env_hom(ca, cb, compose(ey, compose(random_kernel(rng, Kind.STOCH, x, y), ex)))
        f_raw = compose(ez, compose(random_kernel(rng, Kind.STOCH, y, z), ey))
        f = env_hom(cb, cc, f_raw)
        g = env_hom(cb, cc, compose(ez, compose(random_kernel(rng, Kind.STOCH, y, z), ey)))
        from finmarkov import ase_kernels

        assert env_ase(p, f, g) == ase_kernels(p.kernel, f.kernel, g.kernel)
        assert env_ase(p, f, f)


def test_env_ase_off_endo_region_difference_invisible():
    # e_dst kills a region; envelope morphisms differing only there do
    # not exist as distinct morphisms, but a reference whose pushforward
    # misses part of the middle cell makes distinct morphisms agree
    e = static_idempotent()
    x = e.dom
    cell = _blackwell(e)
    plain = env_cell(x, identity(x), Flavor.BLACKWELL)
    # reference hitting only state 1
    from finmarkov import delta_kernel

    p_raw = compose(e, delta_kernel(x, "1"))
    unit_obj = p_raw.dom
    unit_cell = env_cell(unit_obj, identity(unit_obj, Kind.STOCH), Flavor.BLACKWELL)
    p = env_hom(unit_cell, cell, p_raw)
    f_raw = identity(x)
    g_cols = [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(1), F(0)]]
    g_raw = make_kernel(Kind.STOCH, x, x, [[g_cols[j][i] for j in range(3)] for i in range(3)])
    f = env_hom(cell, plain, compose(f_raw, e))
    g = env_hom(cell, plain, compose(g_raw, e))
    assert env_ase(p, f, g)


def test_causality_instances_lifted_to_envelope():
    # the causality implication, evaluated with envelope almost-sure
    # equality, never fails on random Blackwell chains
    rng = random.Random(23)
    for _ in range(60):
        a = random_object(rng, 3, "a")
        x = random_object(rng, 3, "x")
        y = random_object(rng, 3, "y")
        z = random_object(rng, 3, "z")
        ea = random_class_idempotent(rng, a).idempotent
        ex = random_class_idempotent(rng, x).idempotent
        ey = random_class_idempotent(rng, y).idempotent
        ez = random_class_idempotent(rng, z).idempotent
        ca, cx, cy, cz = (_blackwell(e) for e in (ea, ex, ey, ez))

        def hom(src, dst, raw):
            return env_hom(src, dst, compose(dst.endo, compose(raw, src.endo)))

        f = hom(ca, cx, random_kernel(rng, Kind.STOCH, a, x))
        g = hom(cx, cy, random_kernel(rng, Kind.STOCH, x, y))
        h1 = hom(cy, cz, random_kernel(rng, Kind.STOCH, y, z))
        h2 = hom(cy, cz, random_kernel(rng, Kind.STOCH, y, z))
        antecedent = env_ase(env_compose(g, f), h1, h2)
        consequent = env_ase(f, env_compose(h1, g), env_compose(h2, g))
        assert (not antecedent) or consequent
