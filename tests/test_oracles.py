"""Verdicts the library decides once, against the second procedures in
`oracles`, over every kind each function accepts."""

import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finmarkov import (
    UNIT,
    DomainMismatch,
    EnvelopeCell,
    EnvelopeMorphism,
    FinMarkovError,
    FinObject,
    Flavor,
    Kernel,
    Kind,
    KindMismatch,
    MarkovLawReport,
    NoSplitUpTo,
    NotAConditional,
    NotBalanced,
    NotEndo,
    NotHom,
    NotIdempotent,
    ParamMorphism,
    ShapeMismatch,
    SuppCompCell,
    abs_cont,
    ase_kernels,
    balanced_cross_check,
    blackwell_copy,
    blackwell_split,
    cell_tensor,
    classify,
    compose,
    conditional,
    env_ase,
    env_cell,
    env_check_markov_laws,
    env_hom,
    env_split_idempotent,
    env_tensor,
    equalizer_factor,
    factor_through_support,
    fin_object,
    function_kernel,
    identity,
    io_relation,
    make_kernel,
    pair,
    param_compose,
    param_lift,
    param_tensor,
    perturb_off_support,
    random_class_idempotent,
    refute_abs_cont,
    scomp_abs_cont,
    scomp_hom,
    scomp_support,
    search_split,
    split_support,
    support,
    support_functor_map,
    tensor,
    tensor_object,
    validate,
    ValidationError,
    verify_conditional_unique,
    verify_split,
)
from finmarkov.golden import (
    balanced_idempotent,
    multi_chain3_idempotent,
    multi_upset_idempotent,
    signed_coassoc_counterexample,
    signed_idempotent,
    static_idempotent,
    strong_idempotent,
)
from finmarkov.idempotents import StructureViolation, _deterministic_as
from finmarkov.kernel import _kernel, _reduced, split_tensor_labels, support_indices
from finmarkov.rand import (
    random_column,
    random_deterministic_kernel,
    random_full_support_column,
    random_kernel,
    random_kernel_supported_on,
    random_stoch_column,
)
from oracles import (
    all_multi_kernels,
    ase_by_joint,
    class_decomposition,
    classify_by_columns,
    classify_by_scan,
    comonoid_laws_by_structure,
    conditional_rebuilds,
    conditional_unique_by_tensors,
    constant_map_witness,
    detailed_balance_by_scan,
    deterministic_as_by_equation,
    discard_natural_by_sampling,
    blackwell_copy_by_tensor,
    env_ase_by_copy_formula,
    env_ase_by_tensors,
    env_check_markov_laws_by_pairings,
    env_check_markov_laws_by_tensors,
    env_split_idempotent_by_homs,
    env_tensor_by_tensors,
    formal_split_recomposes,
    hom_by_composing,
    io_relation_by_states,
    pair_by_copy,
    param_compose_by_tensors,
    param_lift_by_unitor,
    param_tensor_by_tensors,
    perturb_off_support_by_rows,
    projection_is_section,
    reconstruct_by_pairing,
    reconstruct_by_tensors,
    recomposes,
    settled_by_composing,
    split_by_every_label,
    tensor_label_by_grammar,
    witness_separates,
    kernel_refusal,
    random_object,
    raw_cell,
    raw_kernel,
    raw_morphism,
)

SEEDS = st.integers(0, 2**32)
ALL_KINDS = st.sampled_from(list(Kind))
# the kinds with supports and absolute continuity
POSITIVE_KINDS = st.sampled_from([Kind.STOCH, Kind.MULTI])


def _with_columns(k, cols):
    """k's kind, domain and codomain with the given dense columns."""
    rows = tuple(tuple(cols[j][i] for j in range(k.dom.size)) for i in range(k.cod.size))
    return Kernel(k.kind, k.dom, k.cod, rows)


def _change_column(f, j):
    """f with column j replaced by a point mass it does not equal."""
    cols = [tuple(row[i] for row in f.matrix) for i in range(f.dom.size)]
    point = tuple(row[0] for row in function_kernel(fin_object(("u",)), f.cod, [0], f.kind).matrix)
    if cols[j] == point:
        point = tuple(row[0] for row in function_kernel(fin_object(("u",)), f.cod, [1], f.kind).matrix)
    cols[j] = point
    return _with_columns(f, cols)


def _supported_on_some(rng, kind, dom, cod):
    """A kernel reaching a random nonempty subset of cod."""
    rows = sorted(rng.sample(range(cod.size), 1 + rng.randrange(cod.size)))
    return random_kernel_supported_on(rng, kind, dom, cod, rows)


def _idempotent(rng, kind, x, balanced=True):
    """A random idempotent of the given kind on x: balanced ones from a
    random class structure, others as its tensor with a golden
    non-balanced idempotent.  Every stochastic idempotent is balanced."""
    e = random_class_idempotent(rng, x).idempotent
    if kind is Kind.MULTI:
        e = io_relation(e)
    elif kind is Kind.SIGNED:
        e = Kernel(Kind.SIGNED, e.dom, e.cod, e.matrix)
    if balanced or kind is Kind.STOCH:
        return e
    other = multi_upset_idempotent() if kind is Kind.MULTI else signed_idempotent()
    return tensor(other, e)


def _object(rng, prefix):
    """A random object of size 0 to 3, or the unit."""
    return UNIT if rng.random() < 0.2 else random_object(rng, 3, prefix, min_size=0)


def _any_kernel(rng, kind, dom, cod):
    """A valid random kernel when one exists, otherwise or at random a
    `raw_kernel` off the column law: exact entries need not sum to one, so
    a column's numerators may share a factor with its denominator, and a
    multivalued image may be empty."""
    if cod.size and rng.random() < 0.5:
        return random_kernel(rng, kind, dom, cod)
    if kind is Kind.MULTI:
        return raw_kernel(kind, dom, cod, [[rng.random() < 0.5 for _ in dom.labels] for _ in cod.labels])
    low = 0 if kind is Kind.STOCH else -4
    return raw_kernel(kind, dom, cod, [
        [Fraction(rng.randrange(low, 5), rng.randrange(1, 7)) for _ in dom.labels] for _ in cod.labels
    ])


def _param(rng, kind, w, a):
    x = random_object(rng, 3, "x")
    return ParamMorphism(w, a, x, random_kernel(rng, kind, tensor_object(w, a), x))


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(ALL_KINDS, SEEDS)
def test_pair_is_tensor_then_copy(kind, seed):
    rng = random.Random(seed)
    a = _object(rng, "a")
    f = _any_kernel(rng, kind, a, _object(rng, "x"))
    g = _any_kernel(rng, kind, a, _object(rng, "y"))
    assert pair(f, g) == pair_by_copy(f, g)


def test_products_and_restrictions_of_lawful_columns_are_reduced():
    # a lawful column's numerators sum to its denominator, so gcd(den,
    # *nums) = 1, and so it is for the product of two such columns and for
    # a column without its zero rows: `tensor`, `pair` and the supports
    # store them unreduced, and each is canonical
    for seed in range(60):
        rng = random.Random(seed)
        kind = (Kind.STOCH, Kind.SIGNED)[seed % 2]
        a, x, y = (random_object(rng, 4, p) for p in "axy")
        f, g = random_kernel(rng, kind, a, x), random_kernel(rng, kind, a, y)
        built = [tensor(f, g), tensor(g, random_kernel(rng, kind, y, x)), pair(f, g)]
        if kind is Kind.STOCH:
            p = _supported_on_some(rng, kind, a, x)
            built += [support(p).factorization, split_support(p).factorization]
            det = random_deterministic_kernel(rng, kind, x, y)
            built.append(equalizer_factor(p, det, det)[2])
        for k in built:
            assert all(math.gcd(den, *[num for _, num in cells]) == 1 for den, cells in k.columns)
            assert k == _kernel(kind, k.dom, k.cod, tuple(_reduced(den, list(cells)) for den, cells in k.columns))


def test_pair_refuses_mixed_kinds_and_domains():
    a, b, x = fin_object(("a0", "a1")), fin_object(("b0",)), fin_object(("x0", "x1"))
    rng = random.Random(0)
    with pytest.raises(KindMismatch):
        pair(random_kernel(rng, Kind.STOCH, a, x), random_kernel(rng, Kind.MULTI, a, x))
    with pytest.raises(DomainMismatch):
        pair(random_kernel(rng, Kind.STOCH, a, x), random_kernel(rng, Kind.STOCH, b, x))


# labels with commas, parentheses, backslashes, the unit's "•", non-ASCII and the empty string
LABELS = st.text(alphabet="(),\\•éa", max_size=4)


@st.composite
def _label_grids(draw):
    """Labels of a tensor grid, written with or without escapes, some of
    them replaced, or any labels."""
    if draw(st.booleans()):
        return draw(st.lists(LABELS, max_size=8, unique=True))
    left = draw(st.lists(LABELS, min_size=1, max_size=4, unique=True))
    right = draw(st.lists(LABELS, min_size=1, max_size=4, unique=True))
    write = (lambda a, b: f"({a},{b})") if draw(st.booleans()) else tensor_label_by_grammar
    labels = [write(a, b) for a in left for b in right]
    for pos, label in draw(st.lists(st.tuples(st.integers(0, 15), LABELS), max_size=2)):
        labels[pos % len(labels)] = label
    return labels


def _or_error_type(fn, *args):
    """What ``fn(*args)`` returns, or the type of the library error it raises."""
    try:
        return fn(*args)
    except FinMarkovError as err:
        return type(err)


@settings(max_examples=1000, deadline=None)
@given(_label_grids(), st.integers(-1, 5), st.booleans())
def test_split_tensor_labels_agrees_with_parsing_every_label(labels, left_size, grid_size):
    assume(len(set(labels)) == len(labels))
    obj = FinObject(tuple(labels))
    if grid_size:
        left_size = max(1, round(len(labels) ** 0.5))
    assert _or_error_type(split_tensor_labels, obj, left_size) == _or_error_type(split_by_every_label, obj, left_size)


# ---------------------------------------------------------------------------
# asrel
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(ALL_KINDS, SEEDS, st.integers(0, 2))
def test_ase_agrees_with_the_literal_joint(kind, seed, variant):
    rng = random.Random(seed)
    w = random_object(rng, 3, "w")
    a = random_object(rng, 3, "a", min_size=0)
    x = random_object(rng, 4, "x")
    y = random_object(rng, 3, "y", min_size=2)
    p = random_kernel(rng, kind, a, x)
    f = random_kernel(rng, kind, tensor_object(w, x), y)
    if variant == 0:
        g = perturb_off_support(f, p, seed)
    elif variant == 1:
        g = _change_column(f, rng.randrange(f.dom.size))
    else:
        g = random_kernel(rng, kind, f.dom, y)
    assert ase_kernels(p, f, g, w.size) == ase_by_joint(p, f, g, w.size)


@settings(max_examples=150, deadline=None)
@given(POSITIVE_KINDS, SEEDS)
def test_refuting_witness_separates(kind, seed):
    rng = random.Random(seed)
    x = random_object(rng, 5, "x")
    q = _supported_on_some(rng, kind, random_object(rng, 3, "b"), x)
    p = random_kernel(rng, kind, random_object(rng, 3, "a"), x)
    witness = refute_abs_cont(q, p)
    assert (witness is None) == abs_cont(q, p)
    assert witness is None or witness_separates(q, p, witness)


@settings(max_examples=150, deadline=None)
@given(ALL_KINDS, SEEDS)
def test_perturbation_is_almost_surely_equal(kind, seed):
    rng = random.Random(seed)
    w = random_object(rng, 3, "w")
    x = random_object(rng, 4, "x")
    p = _supported_on_some(rng, kind, random_object(rng, 3, "a"), x)
    f = random_kernel(rng, kind, tensor_object(w, x), random_object(rng, 3, "y", min_size=2))
    g = perturb_off_support(f, p, seed)
    assert ase_by_joint(p, f, g, w.size)
    assert (g == f) == (len(support_indices(p)) == x.size)


def _with_the_draws(f, p, seed):
    """f with each column that p cannot reach replaced by the column that
    `perturb_off_support` draws there for ``seed``, so it must fall back
    on rotating the first draw."""
    reached = set(support_indices(p))
    rng = random.Random(seed)
    cols = [tuple(row[j] for row in f.matrix) for j in range(f.dom.size)]
    for j in range(f.dom.size):
        if j % p.cod.size not in reached:
            cols[j] = random_column(rng, f.kind, f.cod.size)
    return _with_columns(f, cols)


@settings(max_examples=300, deadline=None)
@given(ALL_KINDS, SEEDS, st.booleans())
def test_perturbation_matches_the_dense_rows(kind, seed, drawn):
    rng = random.Random(seed)
    w = random_object(rng, 2, "w")
    x = random_object(rng, 3, "x")
    p = _supported_on_some(rng, kind, random_object(rng, 3, "a"), x)
    f = random_kernel(rng, kind, tensor_object(w, x), random_object(rng, 3, "y"))
    if drawn:
        f = _with_the_draws(f, p, seed)
    g, want = perturb_off_support(f, p, seed), perturb_off_support_by_rows(f, p, seed)
    assert g == want and g.matrix == want.matrix


def test_perturbation_matches_the_dense_rows_on_both_fallbacks():
    # f's off-support column is the seed's own draw: a draw that is not
    # constant is rotated, a constant one becomes the point mass δ_0
    x, y = fin_object(("x0", "x1")), fin_object(("y0", "y1"))
    seen = set()
    for kind in Kind:
        p = function_kernel(UNIT, x, [0], kind)
        for seed in range(60):
            f = _with_the_draws(random_kernel(random.Random(seed), kind, x, y), p, seed)
            g = perturb_off_support(f, p, seed)
            assert g == perturb_off_support_by_rows(f, p, seed)
            (a0, a1), (b0, b1) = f.matrix
            constant = a1 == b1
            assert g.matrix == (((a0, kind.one), (b0, kind.zero)) if constant else ((a0, b1), (b0, a1)))
            seen.add((kind, constant))
    assert seen == {(kind, constant) for kind in Kind for constant in (False, True)}


# ---------------------------------------------------------------------------
# functors
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_io_relation_agrees_with_deterministic_states(seed):
    rng = random.Random(seed)
    p = random_kernel(rng, Kind.STOCH, random_object(rng, 4, "a", min_size=0), random_object(rng, 4, "x"))
    rel = io_relation(p)
    assert rel == io_relation_by_states(p)
    assert validate(rel) is None


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_conditional_rebuilds_the_joint(seed):
    rng = random.Random(seed)
    x, y = random_object(rng, 3, "x"), random_object(rng, 3, "y")
    joint = random_kernel(rng, Kind.STOCH, random_object(rng, 3, "a", min_size=0), tensor_object(x, y))
    assert conditional_rebuilds(joint, conditional(joint, x.size), x.size)


def _dense_columns(k):
    return [[row[j] for row in k.matrix] for j in range(k.dom.size)]


def _altered(col, kind):
    """A dense column that differs from ``col``: its complement over
    Multi, otherwise twice it, or a one in the first row if it is zero."""
    if kind is Kind.MULTI:
        return [not v for v in col]
    return [2 * v for v in col] if any(col) else [Fraction(1)] + col[1:]


def _true_conditional(rng, joint, x, y):
    """Dense columns over X⊗A of a conditional of ``joint``: each block
    over its mass, and a random column where the mass is zero; with the
    indices of the columns on and off the comparison base's support."""
    kind, ny = joint.kind, y.size
    cols, on, off = [], [], []
    for i in range(x.size):
        for col in _dense_columns(joint):
            block = col[i * ny : (i + 1) * ny]
            mass = any(block) if kind is Kind.MULTI else sum(block)
            (on if mass else off).append(len(cols))
            if not mass:
                cols.append(random_column(rng, kind, ny))
            else:
                cols.append(block if kind is Kind.MULTI else [v / mass for v in block])
    return cols, on, off


def _candidate(rng, variant, joint, true, dom, cod):
    """A candidate conditional on ``dom`` → ``cod``: the true conditional,
    it tampered on or off the base's support, a random kernel, or a
    random kernel of another kind."""
    kind = joint.kind
    cols, on, off = true
    if variant == "random":
        return _any_kernel(rng, kind, dom, cod)
    if variant == "kind":
        return random_kernel(rng, rng.choice([k for k in Kind if k is not kind]), dom, cod)
    cols = list(cols)
    where = {"on": on, "off": off}.get(variant)
    if where:
        j = rng.choice(where)
        cols[j] = _altered(cols[j], kind)
    return raw_kernel(kind, dom, cod, [[col[i] for col in cols] for i in range(cod.size)])


CANDIDATES = st.sampled_from(["true", "on", "off", "random", "kind"])


@settings(max_examples=400, deadline=None)
@given(ALL_KINDS, SEEDS, CANDIDATES, CANDIDATES, st.sampled_from(["right", "domain", "labels", "unparallel"]),
       st.sampled_from(["given", "inferred", "wrong"]))
def test_conditional_uniqueness_agrees_with_the_literal_route(kind, seed, v1, v2, frame, split):
    rng = random.Random(seed)
    a = random_object(rng, 3, "a", min_size=0)
    x, y = random_object(rng, 3, "x"), random_object(rng, 3, "y")
    xy = tensor_object(x, y)
    # a joint off the column law can have a signed block of mass zero
    joint = _supported_on_some(rng, kind, a, xy) if rng.random() < 0.7 else _any_kernel(rng, kind, a, xy)
    true = _true_conditional(rng, joint, x, y)
    dom, cod = tensor_object(x, a), y
    if frame == "domain":
        dom = tensor_object(x, fin_object(f"b{i}" for i in range(a.size)))
    elif frame == "labels":
        cod = fin_object(f"z{i}" for i in range(y.size))
    c1 = _candidate(rng, v1, joint, true, dom, cod)
    if frame == "unparallel":
        cod = fin_object(f"z{i}" for i in range(y.size))
    c2 = _candidate(rng, v2, joint, true, dom, cod)
    split = {"given": x.size, "inferred": None, "wrong": x.size + 1}[split]
    verdict = _or_error_type(verify_conditional_unique, joint, c1, c2, split)
    assert verdict == _or_error_type(conditional_unique_by_tensors, joint, c1, c2, split)
    if v1 == v2 == "true" and frame == "right" and split == x.size:
        # only a signed block of mass zero that is not empty has no conditional
        assert verdict in (True, NotAConditional)


@settings(max_examples=150, deadline=None)
@given(ALL_KINDS, SEEDS)
def test_reconstruct_matches_its_tensor_composite(kind, seed):
    rng = random.Random(seed)
    x, y = random_object(rng, 3, "x"), random_object(rng, 3, "y")
    a = random_object(rng, 3, "a", min_size=0)
    joint = random_kernel(rng, kind, a, tensor_object(x, y))
    cond = random_kernel(rng, kind, tensor_object(x, a), y)
    assert reconstruct_by_pairing(joint, cond, x.size) == reconstruct_by_tensors(joint, cond, x.size)


@settings(max_examples=150, deadline=None)
@given(ALL_KINDS, SEEDS)
def test_param_compose_matches_its_tensor_composite(kind, seed):
    rng = random.Random(seed)
    w, a = random_object(rng, 3, "w"), random_object(rng, 3, "a", min_size=0)
    f = _param(rng, kind, w, a)
    g = _param(rng, kind, w, f.x)
    assert param_compose(g, f) == param_compose_by_tensors(g, f)


@settings(max_examples=150, deadline=None)
@given(ALL_KINDS, SEEDS)
def test_param_lift_matches_its_unitor_composite(kind, seed):
    rng = random.Random(seed)
    w, a = random_object(rng, 3, "w", min_size=0), random_object(rng, 3, "a", min_size=0)
    f = _any_kernel(rng, kind, a, random_object(rng, 3, "x", min_size=0))
    assert param_lift(f, w) == param_lift_by_unitor(f, w)


@settings(max_examples=150, deadline=None)
@given(ALL_KINDS, SEEDS)
def test_param_tensor_matches_its_tensor_composite(kind, seed):
    rng = random.Random(seed)
    w = random_object(rng, 3, "w")
    f = _param(rng, kind, w, random_object(rng, 3, "a", min_size=0))
    g = _param(rng, kind, w, random_object(rng, 3, "b", min_size=0))
    assert param_tensor(f, g) == param_tensor_by_tensors(f, g)


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(ALL_KINDS, st.sampled_from(list(Flavor)), SEEDS, st.booleans(), st.booleans())
def test_cell_tensor_cells_pass_env_cell(kind, flavor, seed, balanced_a, balanced_b):
    # cell_tensor trusts its factors; rerunning env_cell and classify on
    # the tensor must accept it as the same cell
    rng = random.Random(seed)
    a, b = (
        env_cell(e.dom, e, flavor)
        for e in (
            _idempotent(rng, kind, random_object(rng, 2, c), balanced or flavor is Flavor.BLACKWELL)
            for c, balanced in (("s", balanced_a), ("t", balanced_b))
        )
    )
    cell = cell_tensor(a, b)
    report = classify(cell.endo)
    assert report.idempotent
    assert report.balanced or flavor is Flavor.KAROUBI
    assert env_cell(cell.object, cell.endo, flavor) == cell


@settings(max_examples=100, deadline=None)
@given(ALL_KINDS, SEEDS, st.integers(0, 2))
def test_env_ase_agrees_with_the_literal_joint(kind, seed, variant):
    rng = random.Random(seed)
    ca, cb, cc = (
        env_cell(e.dom, e, Flavor.BLACKWELL)
        for e in (_idempotent(rng, kind, random_object(rng, 3, c)) for c in "axy")
    )

    def hom(src, dst, raw):
        return env_hom(src, dst, compose(dst.endo, compose(raw, src.endo)))

    # p may miss whole classes of the middle cell, where f and g are free
    p = hom(ca, cb, _supported_on_some(rng, kind, ca.object, cb.object))
    f = hom(cb, cc, random_kernel(rng, kind, cb.object, cc.object))
    if variant == 0:
        g = f
    elif variant == 1:
        g = hom(cb, cc, perturb_off_support(f.kernel, p.kernel, seed))
    else:
        g = hom(cb, cc, random_kernel(rng, kind, cb.object, cc.object))
    assert env_ase(p, f, g) == ase_by_joint(p.kernel, f.kernel, g.kernel)


@settings(max_examples=100, deadline=None)
@given(ALL_KINDS, st.sampled_from(list(Flavor)), SEEDS, st.booleans())
def test_formal_splitting_recomposes(kind, flavor, seed, balanced):
    rng = random.Random(seed)
    e = _idempotent(rng, kind, random_object(rng, 4, "s"), balanced or flavor is Flavor.BLACKWELL)
    cell = env_cell(e.dom, e, flavor)
    assert formal_split_recomposes(cell, *env_split_idempotent(cell))


def _multi_idempotents_with_empty_images(max_n):
    """Every idempotent relation on n ≤ max_n elements with an empty image,
    as a `raw_kernel`: none satisfies the multivalued column law."""
    out = []
    for n in range(1, max_n + 1):
        x = fin_object(str(i) for i in range(n))
        for cols in itertools.product(range(2**n), repeat=n):
            e = raw_kernel(Kind.MULTI, x, x, [[bool(c >> i & 1) for c in cols] for i in range(n)])
            if 0 in cols and compose(e, e) == e:
                out.append(e)
    return out


MULTI_OFF_LAW = _multi_idempotents_with_empty_images(3)


def _off_law_idempotent(rng, kind, variant):
    """An idempotent built with `raw_kernel` that may break its kind's
    column law.  Multi: a relation with an empty image, variant 0 the empty
    relation.  Stoch and Signed: a valid idempotent e, for variant 0
    conjugated by a diagonal scaling s (e(y|x)·s_y/s_x, idempotent with new
    column sums), for 1 its complement id − e (columns sum to zero), for 2
    the scaled complement, for 3 a signed idempotent given e's kind (off
    the law over Stoch only)."""
    if kind is Kind.MULTI:
        e = rng.choice(MULTI_OFF_LAW)
        if variant == 0:
            return raw_kernel(kind, e.dom, e.cod, [[False] * e.dom.size] * e.cod.size)
        return e
    x = random_object(rng, 4, "s")
    e = _idempotent(rng, Kind.SIGNED if variant == 3 else kind, x, rng.random() < 0.5)
    m, n = e.matrix, e.dom.size
    if variant in (1, 2):
        m = [[int(i == j) - m[i][j] for j in range(n)] for i in range(n)]
    if variant in (0, 2):
        s = [Fraction(rng.randrange(1, 5), rng.randrange(1, 5)) for _ in range(n)]
        if kind is Kind.SIGNED:
            s = [v * rng.choice((1, -1)) for v in s]
        m = [[m[i][j] * s[i] / s[j] for j in range(n)] for i in range(n)]
    return raw_kernel(kind, e.dom, e.cod, m)


@settings(max_examples=150, deadline=None)
@given(ALL_KINDS, st.sampled_from(list(Flavor)), SEEDS, st.booleans())
def test_comonoid_laws_on_valid_idempotents(kind, flavor, seed, balanced):
    rng = random.Random(seed)
    e = _idempotent(rng, kind, random_object(rng, 4, "s"), balanced or flavor is Flavor.BLACKWELL)
    cell = env_cell(e.dom, e, flavor)
    report = env_check_markov_laws(cell)
    assert (report.counit_left, report.counit_right, report.coassociative) == comonoid_laws_by_structure(cell)
    assert report.discard_natural
    assert discard_natural_by_sampling(cell, seed)


def _outcome(fn, *args):
    """What a call returns, or the type and message of the library error
    it raises."""
    try:
        return fn(*args)
    except FinMarkovError as exc:
        return type(exc), str(exc)


def _law_error(e):
    """What ``Kernel(...)`` raises on e when e is an endomorphism off its
    kind's column law, else None.  Such an endo is a `raw_kernel`: no
    operation meets it on kernels built from rows."""
    if e.dom != e.cod or validate(e) is None:
        return None
    return ValidationError, kernel_refusal(e.kind, e.dom, e.cod, e.matrix).message


def _cell(x, e, flavor):
    """The cell (x, e): a `raw_cell` when e is off its kind's column law,
    else what ``EnvelopeCell(...)`` returns or refuses, as `_outcome` gives
    it.  The constructor accepts exactly the cells `settled_by_composing`
    accepts, and refuses the others with NotEndo when e does not live on x,
    else with NotIdempotent."""
    if _law_error(e):
        return raw_cell(x, e, flavor)
    got = _outcome(EnvelopeCell, x, e, flavor)
    if settled_by_composing(x, e):
        assert got == raw_cell(x, e, flavor)
    elif e.dom != x or e.cod != x:
        assert got == (NotEndo, "cell endomorphism must live on the cell's object")
    else:
        assert got == (NotIdempotent, "cell endomorphism must be idempotent")
    return got


def _hom(src, dst, k):
    """What ``EnvelopeMorphism(src, dst, k)`` returns or refuses, as
    `_outcome` gives it, which must be `hom_by_composing`'s."""
    got = _outcome(EnvelopeMorphism, src, dst, k)
    assert got == _outcome(hom_by_composing, src, dst, k)
    return got


def _refused(*built):
    """Whether a constructor refused any of the given `_cell` or `_hom` outcomes."""
    return any(isinstance(v, tuple) for v in built)


def _off_law(*built):
    """Whether a cell's endo or a morphism's kernel among the given cells
    and morphisms is off its kind's column law, a `raw_kernel`."""
    kernels = []
    for v in built:
        kernels += [v.endo] if isinstance(v, EnvelopeCell) else [v.kernel, v.src.endo, v.dst.endo]
    return any(validate(k) is not None for k in kernels)


def _classifies(fn, oracle, *args):
    """Assert that fn's outcome on the cells or morphisms args is the
    oracle's, except past the shape and flavor checks when a kernel among
    them is one ``Kernel(...)`` refuses, which no operation meets."""
    want = _outcome(oracle, *args)
    if _off_law(*args) and not (isinstance(want, tuple) and want[0] in (ShapeMismatch, NotBalanced)):
        return
    assert _outcome(fn, *args) == want


@settings(max_examples=300, deadline=None)
@given(ALL_KINDS, SEEDS, st.integers(0, 3))
def test_comonoid_laws_off_the_column_law(kind, seed, variant):
    # Kernel(...) refuses these endos, so no cell holds them; in a
    # `raw_cell`, the oracles still agree with each other on them
    e = _off_law_idempotent(random.Random(seed), kind, variant)
    assume(validate(e) is not None)
    assert compose(e, e) == e
    cell = _cell(e.dom, e, Flavor.KAROUBI)
    assert _law_error(e) == (ValidationError, validate(e).message)
    report = env_check_markov_laws_by_tensors(cell)
    assert (report.counit_left, report.counit_right, report.coassociative) == comonoid_laws_by_structure(cell)
    witness = constant_map_witness(cell)
    if report.discard_natural:
        assert witness is None
        assert discard_natural_by_sampling(cell, seed)
    else:
        assert witness is not None


def test_discard_naturality_off_the_column_law_reaches_both_verdicts():
    # only off the law can discard naturality fail, and there Kernel(...) refuses the endo
    for kind in Kind:
        verdicts = set()
        for seed in range(40):
            e = _off_law_idempotent(random.Random(seed), kind, seed % 4)
            if validate(e) is not None:
                cell = _cell(e.dom, e, Flavor.KAROUBI)
                assert _law_error(e) == (ValidationError, validate(e).message)
                verdicts.add(constant_map_witness(cell) is None)
        assert verdicts == {True, False}, kind


def _cell_endomorphism(rng, kind, variant):
    """Variant 0-3: an off-law idempotent as `_off_law_idempotent` builds
    it; 4: a valid idempotent, balanced or not; 5: any kernel, which
    ``EnvelopeCell(...)`` refuses unless it is idempotent."""
    if variant < 4:
        return _off_law_idempotent(rng, kind, variant)
    x = random_object(rng, 4, "s")
    if variant == 4:
        return _idempotent(rng, kind, x, rng.random() < 0.5)
    return _any_kernel(rng, kind, x, x)


@settings(max_examples=300, deadline=None)
@given(ALL_KINDS, SEEDS, st.integers(0, 5))
def test_markov_laws_pair_like_their_tensor_composites(kind, seed, variant):
    # with copy = ⟨e,e⟩∘e, (a⊗b)∘copy = ⟨a∘e, b∘e⟩∘e for any kernels
    e = _cell_endomorphism(random.Random(seed), kind, variant)
    cell = _cell(e.dom, e, Flavor.KAROUBI)
    if not _refused(cell):
        _classifies(env_check_markov_laws, env_check_markov_laws_by_tensors, cell)


@settings(max_examples=200, deadline=None)
@given(ALL_KINDS, SEEDS, st.integers(0, 5), st.integers(0, 2))
def test_env_ase_pairs_like_its_tensor_composites(kind, seed, variant, other):
    # valid cells and morphisms (variant 4), or kernels around a middle
    # cell off the column law or on any endomorphism, which the
    # constructors refuse unless they keep the envelope laws
    rng = random.Random(seed)
    if variant == 4:
        e = _idempotent(rng, kind, random_object(rng, 4, "s"))
        mid = env_cell(e.dom, e, Flavor.BLACKWELL)
    else:
        e = _cell_endomorphism(rng, kind, variant)
        mid = _cell(e.dom, e, Flavor.BLACKWELL)
        if _refused(mid):
            return
    a, y = random_object(rng, 3, "a"), random_object(rng, 3, "y")
    src, dst = (EnvelopeCell(o, identity(o, kind), Flavor.BLACKWELL) for o in (a, y))

    def hom(s, d, raw):
        if variant == 4:
            raw = compose(d.endo, compose(raw, s.endo))
        return _hom(s, d, raw)

    p = hom(src, mid, _supported_on_some(rng, kind, a, mid.object))
    f = hom(mid, dst, random_kernel(rng, kind, mid.object, y))
    if _refused(p, f):
        return
    if other == 0:
        g = f
    elif other == 1:
        g = hom(mid, dst, perturb_off_support(f.kernel, p.kernel, seed))
    else:
        g = hom(mid, dst, _any_kernel(rng, kind, mid.object, y))
    if not _refused(g):
        _classifies(env_ase, env_ase_by_tensors, p, f, g)


def _absorption_cell(rng, kind, flavor, variant):
    """0: a cell `env_cell` accepts; through `_cell`, 1: on an idempotent
    off the column law, 2: on any endomorphism, 3: on a valid idempotent
    that lives on another object than the cell's, 4: on a kernel between
    two different objects."""
    x = random_object(rng, 2, "s")
    if variant == 0:
        e = _idempotent(rng, kind, x, flavor is Flavor.BLACKWELL or rng.random() < 0.5)
        return env_cell(e.dom, e, flavor)
    if variant == 1:
        e = _off_law_idempotent(rng, kind, rng.randrange(4))
    elif variant == 2:
        e = _any_kernel(rng, kind, x, x)
    elif variant == 3:
        return _cell(random_object(rng, 2, "t"), _idempotent(rng, kind, x), flavor)
    else:
        e = _any_kernel(rng, kind, x, random_object(rng, 2, "t"))
    return _cell(e.dom, e, flavor)


def _absorption_morphism(rng, kind, src, dst):
    """`_hom` of a kernel both endomorphisms absorb, d∘r∘e, when their
    objects allow it; otherwise or at random of any kernel between the
    endomorphisms' or the cells' objects, now and then of another kind; or
    of the source cell's identity.  Where the kernel r is refused as not
    absorbed, `_hom` of d∘r∘e takes its place."""
    variant = rng.randrange(4)
    if variant == 3:
        return _hom(src, src, src.endo)
    dom, cod = (src.object, dst.object) if variant == 2 else (src.endo.cod, dst.endo.dom)
    if variant and rng.random() < 0.1:
        kind = rng.choice(list(Kind))
    raw = _any_kernel(rng, kind, dom, cod)
    if variant == 0:
        raw = compose(dst.endo, compose(raw, src.endo))
    got = _hom(src, dst, raw)
    if _refused(got) and got[0] is NotHom:
        return _hom(src, dst, compose(dst.endo, compose(raw, src.endo)))
    return got


def _absorption_cells(rng, kind, flavor, k):
    """k cells, mostly valid, now and then of the other flavor.  Where
    ``EnvelopeCell(...)`` refuses one, as `_cell` checks, the identity cell
    on a new object takes its place."""
    cells = []
    for _ in range(k):
        fl = rng.choice(list(Flavor)) if rng.random() < 0.1 else flavor
        cell = _absorption_cell(rng, kind, fl, rng.choice((0, 0, 0, 1, 2, 3, 4)))
        if _refused(cell):
            x = random_object(rng, 2, "u")
            cell = EnvelopeCell(x, identity(x, kind), fl)
        cells.append(cell)
    return cells


@settings(max_examples=300, deadline=None)
@given(ALL_KINDS, st.sampled_from(list(Flavor)), SEEDS)
def test_env_tensor_absorbs_like_the_whole_composites(kind, flavor, seed):
    # (f⊗g)∘(e₁⊗e₂) = (f∘e₁)⊗(g∘e₂), and the same on the target side
    rng = random.Random(seed)
    s1, d1, s2, d2 = _absorption_cells(rng, kind, flavor, 4)
    f = _absorption_morphism(rng, kind, s1, d1)
    g = _absorption_morphism(rng, kind, s2, d2)
    # Kernel(...) refuses a kernel off the column law, so no cell or morphism of env_tensor holds one
    if not _refused(f, g) and not _off_law(f, g):
        assert _outcome(env_tensor, f, g) == _outcome(env_tensor_by_tensors, f, g)


@settings(max_examples=200, deadline=None)
@given(ALL_KINDS, st.sampled_from(list(Flavor)), SEEDS, st.integers(0, 4))
def test_copy_laws_ase_and_split_absorb_like_the_whole_composites(kind, flavor, seed, variant):
    # e∘e = e absorbs the copy and the splitting, as the whole composites show
    rng = random.Random(seed)
    cell = _absorption_cell(rng, kind, flavor, variant)
    if _refused(cell):
        return
    _classifies(blackwell_copy, blackwell_copy_by_tensor, cell)
    _classifies(env_check_markov_laws, env_check_markov_laws_by_tensors, cell)
    _classifies(env_split_idempotent, env_split_idempotent_by_homs, cell)
    a, y = _absorption_cells(rng, kind, flavor, 2)
    p = _absorption_morphism(rng, kind, a, cell)
    f, g = (_absorption_morphism(rng, kind, cell, y) for _ in range(2))
    if rng.random() < 0.5:
        g = f
    if not _refused(p, f, g):
        _classifies(env_ase, env_ase_by_copy_formula, p, f, g)


def _small_endomorphisms():
    """Every relation on n ≤ 3 elements and every signed matrix on n ≤ 2
    with entries in {−1, 0, 1, 2}, as a `raw_kernel`."""
    for n in range(1, 4):
        x = fin_object(str(i) for i in range(n))
        for cols in itertools.product(range(2**n), repeat=n):
            yield raw_kernel(Kind.MULTI, x, x, [[bool(c >> i & 1) for c in cols] for i in range(n)])
    for n in range(1, 3):
        x = fin_object(str(i) for i in range(n))
        for entries in itertools.product((-1, 0, 1, 2), repeat=n * n):
            yield raw_kernel(Kind.SIGNED, x, x, [entries[i * n:(i + 1) * n] for i in range(n)])


def test_copy_laws_and_split_absorb_like_the_whole_composites_on_small_endomorphisms():
    # off the column law Kernel(...) raises ValidationError; within it
    # EnvelopeCell(...) refuses each endo that is not idempotent, such as
    # the swap on two elements, whose copy formula e⊗e absorbs but e does
    # not, and every other cell's copy is absorbed on both sides
    failures = set()
    for e in _small_endomorphisms():
        cell = _cell(e.dom, e, Flavor.BLACKWELL)
        if _refused(cell):
            failures.add((e.kind, cell[0].__name__, cell[1].split()[0]))
            continue
        _classifies(blackwell_copy, blackwell_copy_by_tensor, cell)
        _classifies(env_check_markov_laws, env_check_markov_laws_by_tensors, cell)
        _classifies(env_split_idempotent, env_split_idempotent_by_homs, cell)
        copy = _law_error(e) or _outcome(blackwell_copy, cell)
        if isinstance(copy, tuple):
            failures.add((e.kind, copy[0].__name__, copy[1].split()[0]))
    assert failures == {
        (Kind.MULTI, "NotIdempotent", "cell"), (Kind.SIGNED, "NotIdempotent", "cell"),
        (Kind.MULTI, "ValidationError", "column"), (Kind.SIGNED, "ValidationError", "column"),
    }


def test_settled_cell_is_an_idempotent_within_the_column_law_on_small_endomorphisms():
    other = fin_object(("z",))
    for e in _small_endomorphisms():
        for x in (e.dom, other):
            cell = _cell(x, e, Flavor.KAROUBI)
            assert _law_error(e) or (not _refused(cell)) == settled_by_composing(x, e)


def _any_cell(rng, kind, flavor, variant):
    """The cells of the absorption tests (variants 0-4) and of the law
    tests (5-10), each as `_cell` gives it."""
    if variant < 5:
        return _absorption_cell(rng, kind, flavor, variant)
    e = _cell_endomorphism(rng, kind, variant - 5)
    return _cell(e.dom, e, flavor)


@settings(max_examples=300, deadline=None)
@given(ALL_KINDS, st.sampled_from(list(Flavor)), SEEDS, st.integers(0, 10))
def test_settled_cell_is_an_idempotent_within_the_column_law(kind, flavor, seed, variant):
    # `_cell` checks EnvelopeCell(...) against `settled_by_composing`
    cell = _any_cell(random.Random(seed), kind, flavor, variant)
    assert _refused(cell) or _law_error(cell.endo) or settled_by_composing(cell.object, cell.endo)


@settings(max_examples=300, deadline=None)
@given(ALL_KINDS, st.sampled_from(list(Flavor)), SEEDS, st.integers(0, 10))
def test_discard_naturality_holds_on_every_cell_the_laws_decide(kind, flavor, seed, variant):
    # a cell the laws decide has an endo within the column law, so
    # discard∘e = discard and no constant map breaks the law; Kernel(...)
    # refuses any other endo, so no cell holds it
    cell = _any_cell(random.Random(seed), kind, flavor, variant)
    if _refused(cell) or _law_error(cell.endo):
        return
    report = _outcome(env_check_markov_laws, cell)
    if isinstance(report, MarkovLawReport):
        assert report.discard_natural
        assert constant_map_witness(cell) is None


GOLDEN_IDEMPOTENTS = {
    Kind.STOCH: (strong_idempotent, static_idempotent, balanced_idempotent),
    Kind.SIGNED: (signed_idempotent, signed_coassoc_counterexample),
    Kind.MULTI: (multi_upset_idempotent, multi_chain3_idempotent),
}


def _conjugate(rng, e):
    """P∘e∘P⁻¹ for a random permutation P, and over Signed with P∘T for a
    shear T that adds t·(u_a − u_b) to column c.  T keeps every column sum,
    so T, T⁻¹ and the conjugate lie within the signed column law, where a
    permutation with a sign −1 in it would break the column sums."""
    x, n = e.dom, e.dom.size
    order = rng.sample(range(n), n)
    p = function_kernel(x, x, order, e.kind)
    p_inv = function_kernel(x, x, [order.index(i) for i in range(n)], e.kind)
    if e.kind is Kind.SIGNED and n > 1:
        a, b = rng.sample(range(n), 2)
        c, t = rng.randrange(n), rng.choice((Fraction(-2), Fraction(-1, 2), Fraction(1, 2), Fraction(3)))
        u = [int(i == a) - int(i == b) for i in range(n)]
        shear = [[Fraction(int(i == j)) + t * u[i] * (j == c) for j in range(n)] for i in range(n)]
        inverse = [[Fraction(int(i == j)) - t * u[i] * (j == c) / (1 + t * u[c]) for j in range(n)] for i in range(n)]
        shear, inverse = (make_kernel(Kind.SIGNED, x, x, m) for m in (shear, inverse))
        assert compose(shear, inverse) == identity(x, Kind.SIGNED)
        p, p_inv = compose(p, shear), compose(inverse, p_inv)
    return compose(p, compose(e, p_inv))


def _law_cell(rng, kind, flavor, variant):
    """A cell on at most four elements, as `_cell` gives it.  From
    `env_cell` and then given the flavor, which the laws do not read (a
    Blackwell cell refuses a non-balanced e): 0, a class idempotent; 1, a
    golden idempotent, the signed counterexample among them; 2, a class
    idempotent conjugated by `_conjugate`.  Refused with NotEndo: 3, a
    class idempotent on another object than the cell's; and, unless it is
    idempotent, with NotIdempotent: 4, a valid kernel."""
    x = random_object(rng, 4, "s")
    if variant == 4:
        return _cell(x, random_kernel(rng, kind, x, x), flavor)
    e = rng.choice(GOLDEN_IDEMPOTENTS[kind])() if variant == 1 else _idempotent(rng, kind, x)
    if variant == 2:
        e = _conjugate(rng, e)
    if variant == 3:
        return _cell(random_object(rng, 4, "t"), e, flavor)
    return replace(env_cell(e.dom, e, Flavor.KAROUBI), flavor=flavor)


@settings(max_examples=400, deadline=None)
@given(ALL_KINDS, st.sampled_from(list(Flavor)), SEEDS, st.integers(0, 4))
def test_markov_laws_agree_with_the_tensor_and_pairing_composites(kind, flavor, seed, variant):
    # the laws read the counit laws off e∘e = e and coassociativity off
    # one side and its reversal; every cell gets the report of the
    # literal composites
    cell = _law_cell(random.Random(seed), kind, flavor, variant)
    if _refused(cell):
        return
    report = _outcome(env_check_markov_laws, cell)
    assert report == _outcome(env_check_markov_laws_by_tensors, cell)
    assert report == _outcome(env_check_markov_laws_by_pairings, cell)


def test_markov_law_cells_reach_every_path():
    # the cells take the shortcut or the reversal, and the reversal decides
    # both ways; the other endos are refused either way
    seen = set()
    for kind, variant, seed in itertools.product(Kind, range(5), range(12)):
        cell = _law_cell(random.Random(seed), kind, Flavor.KAROUBI, variant)
        if _refused(cell):
            seen.add(cell[0])
            continue
        balanced = kind is Kind.MULTI or classify(cell.endo).balanced
        seen.add((balanced, env_check_markov_laws(cell).coassociative))
    assert seen >= {(True, True), (False, True), (False, False), NotEndo, NotIdempotent}


def test_env_tensor_of_unabsorbed_factors_with_an_absorbed_tensor():
    # on −id neither factor absorbs its cell's endomorphism, (−id)∘(−id) =
    # id, but (−id)⊗(−id) = id does, so the literal check passes; −id is off
    # the signed column law and not idempotent, so Kernel(...) and
    # EnvelopeCell(...) refuse it, and only a `raw_cell` holds it
    x = fin_object(("a", "b"))
    neg = raw_kernel(Kind.SIGNED, x, x, [[-1, 0], [0, -1]])
    assert compose(neg, neg) != neg
    assert _law_error(neg) == (ValidationError, validate(neg).message)
    assert _outcome(EnvelopeCell, x, neg, Flavor.KAROUBI) == (NotIdempotent, "cell endomorphism must be idempotent")
    cell = raw_cell(x, neg, Flavor.KAROUBI)
    f = raw_morphism(cell, cell, neg)
    assert env_tensor_by_tensors(f, f).kernel == identity(tensor_object(x, x), Kind.SIGNED)


def test_env_tensor_refuses_factors_that_differ_only_by_a_comma_split():
    # ("a") ⊗ ("b,c") and ("a,b") ⊗ ("c") are the distinct objects
    # ("(a,b\\,c)") and ("(a\\,b,c)"), so a kernel on the first is no
    # morphism from cells on the second, and the oracle refuses the tensor
    # of two such kernels between the tensor cells alike
    a, bc, ab, c, y = (fin_object((label,)) for label in ("a", "b,c", "a,b", "c", "y"))
    assert tensor_object(a, bc) != tensor_object(ab, c)
    assert tensor_object(a, bc).labels == ("(a,b\\,c)",) and tensor_object(ab, c).labels == ("(a\\,b,c)",)
    ab_cell, c_cell, y_cell = (EnvelopeCell(o, identity(o), Flavor.KAROUBI) for o in (ab, c, y))
    fk, gk = function_kernel(a, y, [0], Kind.STOCH), function_kernel(bc, y, [0], Kind.STOCH)
    for src, k in ((ab_cell, fk), (c_cell, gk)):
        assert _hom(src, y_cell, k) == (ShapeMismatch, "kernel does not connect the given cells")
    f, g = raw_morphism(ab_cell, y_cell, fk), raw_morphism(c_cell, y_cell, gk)
    assert _outcome(env_tensor_by_tensors, f, g) == (ShapeMismatch, "kernel does not connect the given cells")


# ---------------------------------------------------------------------------
# idempotents
# ---------------------------------------------------------------------------


def _report(fn, e):
    """Flags and witnesses in insertion order, or the error type and message."""
    try:
        r = fn(e)
    except (StructureViolation, ValidationError) as exc:
        return type(exc).__name__, str(exc)
    return r.flags(), list(r.witnesses.items())


def _lawful_report(e):
    """classify's report, asserted to be the scan's, within the column law;
    off it, the error type and message with which ``Kernel(...)`` refuses e."""
    if validate(e) is not None:
        return "ValidationError", kernel_refusal(e.kind, e.dom, e.cod, e.matrix).message
    got = _report(classify, e)
    assert got == _report(classify_by_scan, e)
    return got


@settings(max_examples=300, deadline=None)
@given(ALL_KINDS, SEEDS, st.integers(0, 5))
def test_classify_matches_the_scan(kind, seed, variant):
    # valid idempotents, idempotents off the column law and any kernels
    _lawful_report(_cell_endomorphism(random.Random(seed), kind, variant))


def test_classify_matches_the_scan_on_every_small_multi_endomorphism_with_empty_images():
    # the block condition decides balance; empty images break the column law
    idempotents = raised = 0
    for n in range(5):
        x = fin_object(str(i) for i in range(n))
        for cols in itertools.product(range(2**n), repeat=n):
            got = _lawful_report(_kernel(Kind.MULTI, x, x, cols))
            if got[0] == "ValidationError":
                raised += 1
            elif got[0]["idempotent"]:
                idempotents += 1
    # 1192 idempotents on n = 1 to 4 and the one on n = 0; raised: the
    # (2ⁿ)ⁿ − (2ⁿ − 1)ⁿ relations with an empty image, 1 + 7 + 169 + 14911
    assert (idempotents, raised) == (1193, 15088)


def test_multi_class_test_matches_both_oracles_on_small_endomorphisms_and_idempotents(monkeypatch):
    # every lawful endomorphism with n ≤ 3 and every idempotent with n ≤ 4,
    # the latter found without finmarkov: e(x) is the OR of the columns it
    # reaches; the class path is taken on exactly the balanced idempotents
    import finmarkov.idempotents as idem

    passed = []
    class_failures = idem._class_failures
    monkeypatch.setattr(idem, "_class_failures",
                        lambda kind, cols: (r := class_failures(kind, cols)) and (passed.append(cols) or r))
    idem._classify_cached.cache_clear()
    balanced, idempotents = [], 0
    try:
        for n in range(1, 5):
            x = fin_object(str(i) for i in range(n))
            for cols in itertools.product(range(1, 2**n), repeat=n):
                idempotent = all(sum(1 << y for y in range(n) if any(col >> w & 1 and cols[w] >> y & 1
                                                                      for w in range(n))) == col for col in cols)
                if n == 4 and not idempotent:
                    continue
                e = _kernel(Kind.MULTI, x, x, cols)
                got = _report(classify, e)
                assert got == _report(classify_by_scan, e) == _report(classify_by_columns, e)
                assert got[0]["idempotent"] == idempotent
                idempotents += idempotent
                if got[0]["balanced"]:
                    balanced.append(cols)
    finally:
        idem._classify_cached.cache_clear()
    assert idempotents == 1192
    assert passed == balanced and len(balanced) == 172


def test_classify_takes_the_stochastic_balance_shortcut_only_within_the_column_law():
    # off the law Kernel(...) refuses a kernel, so none reaches a shortcut:
    # by the scan, columns (0, 0) and (1, 1) are idempotent and not
    # balanced, and the zero kernel breaks an invariant of the taxonomy
    x = fin_object(("0", "1"))
    e = raw_kernel(Kind.STOCH, x, x, [[0, 1], [0, 1]])
    report = classify_by_scan(e)
    assert report.idempotent and not report.balanced
    assert _lawful_report(e) == ("ValidationError", "column 0 sums to 0")
    zero = raw_kernel(Kind.STOCH, x, x, [[0, 0], [0, 0]])
    assert _lawful_report(zero) == ("ValidationError", "column 0 sums to 0")
    with pytest.raises(StructureViolation, match="a static and strong idempotent must be deterministic"):
        classify_by_scan(zero)


def test_classify_inserts_witnesses_in_scan_order():
    rng = random.Random(731)
    drawn = random_class_idempotent(rng, random_object(rng, 7, "s")).idempotent
    cases = [
        (drawn, ["strong", "static", "deterministic"]),
        (balanced_idempotent(), ["static", "strong", "deterministic"]),
        (signed_idempotent(), ["strong", "balanced", "static", "deterministic"]),
        (signed_coassoc_counterexample(), ["static", "balanced", "strong", "deterministic"]),
        (multi_upset_idempotent(), ["strong", "balanced", "static", "deterministic"]),
        (multi_chain3_idempotent(), ["strong", "balanced", "static", "deterministic"]),
    ]
    for e, order in cases:
        assert list(classify(e).witnesses) == order
        assert _report(classify, e) == _report(classify_by_scan, e)


def test_classify_builds_no_fraction():
    import finmarkov.idempotents as idem

    kernels = [balanced_idempotent(), signed_idempotent(), multi_upset_idempotent()]
    raw = Fraction.__dict__["__new__"]
    made = []

    def counting(cls, *args, **kwargs):
        made.append(args)
        return raw.__func__(cls, *args, **kwargs)

    idem._classify_cached.cache_clear()
    Fraction.__new__ = staticmethod(counting)
    try:
        reports = [classify(e) for e in kernels]
    finally:
        Fraction.__new__ = raw
    assert made == []
    assert [r.balanced for r in reports] == [True, False, False]
    # off the law Kernel(...)'s message prints a column sum as a Fraction
    x = fin_object(("0", "1"))
    assert kernel_refusal(Kind.STOCH, x, x, [[0, 1], [0, 1]]).message == "column 0 sums to 0"


def _detailed_balance(e):
    """Detailed balance by `balanced_cross_check`, asserted equal to the
    dense formula's on an idempotent within the column law, or None: off
    the law, where ``Kernel(...)`` refuses e with `validate`'s message, and
    on a non-idempotent."""
    if validate(e) is not None:
        kernel_refusal(e.kind, e.dom, e.cod, e.matrix)
        return None
    if not classify(e).idempotent:
        return None
    verdict = balanced_cross_check(e).detailed_balance
    assert verdict == detailed_balance_by_scan(e)
    return verdict


@settings(max_examples=300, deadline=None)
@given(ALL_KINDS, SEEDS, st.integers(0, 4))
def test_detailed_balance_matches_the_dense_formula(kind, seed, variant):
    # valid idempotents, balanced or not, and idempotents off the column law
    _detailed_balance(_cell_endomorphism(random.Random(seed), kind, variant))


def test_detailed_balance_matches_the_dense_formula_on_golden_and_small_multi_idempotents():
    for e in (signed_idempotent(), multi_upset_idempotent()):
        assert not balanced_cross_check(e).detailed_balance
        assert not detailed_balance_by_scan(e)
    golden = [balanced_idempotent(), static_idempotent(), strong_idempotent(), multi_chain3_idempotent()]
    objects = [fin_object(str(i) for i in range(n)) for n in (1, 2, 3)]
    small = [e for x in objects for e in all_multi_kernels(x, x)]
    verdicts = {_detailed_balance(e) for e in golden + small + MULTI_OFF_LAW}
    assert verdicts == {True, False, None}


def _column_mix(rng, kind, dom, cod):
    """A kernel, off the column law at random, whose columns are each a
    point mass, all zero, a random valid column, or a scaled point mass
    (twice or minus one) over Stoch and Signed and a two-element image
    over Multi."""
    n = cod.size
    cols = []
    for _ in dom.labels:
        r, shape = rng.randrange(n), rng.randrange(4)
        col = [kind.zero] * n
        if shape == 0:
            col[r] = kind.one
        elif shape == 2:
            col = random_column(rng, kind, n)
        elif shape == 3 and kind is Kind.MULTI:
            col[r] = col[(r + 1) % n] = True
        elif shape == 3:
            col[r] = rng.choice((2, -1))
        cols.append(col)
    return raw_kernel(kind, dom, cod, [[col[i] for col in cols] for i in range(n)])


@settings(max_examples=300, deadline=None)
@given(ALL_KINDS, SEEDS)
def test_determinism_almost_surely_matches_the_comonoid_equation(kind, seed):
    rng = random.Random(seed)
    x = random_object(rng, 4, "x")
    p = _any_kernel(rng, kind, random_object(rng, 3, "a"), x)
    f = _column_mix(rng, kind, x, random_object(rng, 3, "t"))
    bad = validate(p) or validate(f)
    if bad is None:
        assert _deterministic_as(p, f) == deterministic_as_by_equation(p, f)
    else:  # Kernel(...) refuses ι or π off the law, so verify_split never reads them
        off = p if validate(p) is not None else f
        assert kernel_refusal(kind, off.dom, off.cod, off.matrix) == bad


def test_determinism_almost_surely_on_zero_and_signed_columns():
    # a zero column, which the comonoid equation accepts, breaks the column
    # law, so Kernel(...) refuses it and verify_split never reads it; junk
    # is within the law over Signed and Multi
    x, t = fin_object(("a", "b", "c")), fin_object(("s", "t"))
    for kind in Kind:
        one, zero = kind.one, kind.zero
        p = function_kernel(fin_object(("u", "v")), x, [0, 1], kind)  # reaches a and b
        junk = (one, one) if kind is Kind.MULTI else (2, -1)
        cases = [
            ([(one, zero), (zero, zero), junk], True),  # zero column at b
            ([(zero, one), junk, (zero, zero)], False),  # junk at b
            ([(zero, zero), (zero, zero), (zero, zero)], True),
            ([(one, zero), (zero, one), junk], True),  # junk at c, which p does not reach
            ([(zero, one), junk, (one, zero)], False),
        ]
        for cols, want in cases:
            pi = raw_kernel(kind, x, t, list(zip(*cols)))
            assert deterministic_as_by_equation(p, pi) is want
            if (bad := validate(pi)) is None:
                assert _deterministic_as(p, pi) is want
            else:
                assert kernel_refusal(kind, x, t, list(zip(*cols))) == bad
    # a signed projection of a signed splitting: π∘ι = id, ι reaching a, b, c
    iota = Kernel(Kind.SIGNED, t, x, [[2, 0], [-1, 0], [0, 1]])
    pi = Kernel(Kind.SIGNED, x, t, [[1, 1, 0], [0, 0, 1]])
    assert compose(pi, iota) == identity(t, Kind.SIGNED)
    assert _deterministic_as(iota, pi) and deterministic_as_by_equation(iota, pi)
    pi = Kernel(Kind.SIGNED, x, t, [[2, 3, 0], [-1, -2, 1]])
    assert compose(pi, iota) == identity(t, Kind.SIGNED)
    assert not _deterministic_as(iota, pi) and not deterministic_as_by_equation(iota, pi)


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_blackwell_split_is_a_splitting(seed):
    rng = random.Random(seed)
    e = random_class_idempotent(rng, random_object(rng, 7, "s")).idempotent
    sd = blackwell_split(e)
    assert verify_split(e, sd.inclusion, sd.projection)[1]


def _transient_heavy_idempotent(rng, n):
    """ι∘π on n elements with two recurrent classes of one to three members
    at random places; every other element is transient, a random mixture of
    the two classes."""
    x = fin_object(f"s{i}" for i in range(n))
    recurrent = rng.sample(range(n), 2 + rng.randrange(5))
    cut = 1 + rng.randrange(len(recurrent) - 1)
    members = sorted([sorted(recurrent[:cut]), sorted(recurrent[cut:])])
    weights = [dict(zip(comp, random_full_support_column(rng, len(comp)))) for comp in members]
    iota = Kernel(Kind.STOCH, fin_object(("t0", "t1")), x, [[w.get(i, 0) for w in weights] for i in range(n)])
    mixes = [random_stoch_column(rng, 2) if i not in recurrent else None for i in range(n)]
    pi = Kernel(Kind.STOCH, x, iota.dom, [
        [mixes[i][t] if mixes[i] else int(i in members[t]) for i in range(n)] for t in range(2)])
    return compose(iota, pi)


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_blackwell_split_matches_the_tarjan_decomposition(seed):
    # classes, transient states, middle labels and the stored columns of
    # ι and π, all compared by SplitData equality
    rng = random.Random(seed)
    e = random_class_idempotent(rng, random_object(rng, 16, "s")).idempotent
    assert blackwell_split(e) == class_decomposition(e)
    # transient-heavy: π sums class masses over the transient columns only,
    # and a recurrent x projects to the point mass on its class
    e = _transient_heavy_idempotent(rng, rng.choice((24, 32)))
    assert blackwell_split(e) == class_decomposition(e)


def test_blackwell_split_matches_the_tarjan_decomposition_on_golden_kernels():
    for e in (strong_idempotent(), static_idempotent(), balanced_idempotent()):
        assert blackwell_split(e) == class_decomposition(e)


def test_search_split_matches_the_tarjan_decomposition_exhaustively():
    count = 0
    for n in range(5):
        x = fin_object(str(i) for i in range(n))
        for e in all_multi_kernels(x, x):
            if compose(e, e) != e:
                continue
            count += 1
            if not classify(e).balanced:
                assert search_split(e, n) == NoSplitUpTo(n)
                continue
            expected = class_decomposition(e)
            assert search_split(e, n) == expected
            k = expected.middle.size
            assert k == 0 or search_split(e, k - 1) == NoSplitUpTo(k - 1)
    assert count == 1193


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.booleans())
def test_search_split_is_a_splitting(seed, balanced):
    rng = random.Random(seed)
    e = _idempotent(rng, Kind.MULTI, random_object(rng, 5, "s"), balanced)
    result = search_split(e, e.dom.size)
    assert isinstance(result, NoSplitUpTo) != classify(e).balanced
    assert isinstance(result, NoSplitUpTo) or verify_split(e, result.inclusion, result.projection)[1]


# ---------------------------------------------------------------------------
# supports
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(POSITIVE_KINDS, SEEDS)
def test_factor_through_support_recomposes(kind, seed):
    rng = random.Random(seed)
    x = random_object(rng, 5, "x")
    sd = support(random_kernel(rng, kind, random_object(rng, 3, "b"), x))
    reached = list(support_indices(sd.base))
    f = random_kernel_supported_on(rng, kind, random_object(rng, 3, "a"), x, reached)
    assert recomposes(sd.inclusion, factor_through_support(f, sd), f)


@settings(max_examples=150, deadline=None)
@given(POSITIVE_KINDS, SEEDS)
def test_split_support_projection_is_a_section(kind, seed):
    rng = random.Random(seed)
    p = _supported_on_some(rng, kind, random_object(rng, 3, "a"), random_object(rng, 5, "x"))
    assert projection_is_section(p, split_support(p))


@settings(max_examples=150, deadline=None)
@given(POSITIVE_KINDS, SEEDS)
def test_support_functor_map_closes_the_square(kind, seed):
    # f includes A into B = A + extra, and q agrees with g∘p on A, so
    # g∘p = q∘f while q may reach more than g∘p
    rng = random.Random(seed)
    a = random_object(rng, 3, "a")
    x, y = random_object(rng, 4, "x"), random_object(rng, 4, "y")
    b = fin_object(a.labels + random_object(rng, 3, "b", min_size=0).labels)
    p = _supported_on_some(rng, kind, a, x)
    g = random_kernel(rng, kind, x, y)
    f = function_kernel(a, b, range(a.size), kind)
    gp, extra = compose(g, p), random_kernel(rng, kind, b, y)
    q = _with_columns(extra, list(zip(*gp.matrix)) + list(zip(*extra.matrix))[a.size:])
    dashed = support_functor_map(p, q, f, g)
    assert recomposes(support(q).inclusion, dashed, compose(g, support(p).inclusion))


@settings(max_examples=150, deadline=None)
@given(POSITIVE_KINDS, SEEDS)
def test_equalizer_factor_recomposes(kind, seed):
    rng = random.Random(seed)
    x, y = random_object(rng, 5, "x"), random_object(rng, 3, "y")
    f = random_deterministic_kernel(rng, kind, x, y)
    g = random_deterministic_kernel(rng, kind, x, y)
    agree = [j for j in range(x.size) if f.columns[j] == g.columns[j]]
    if not agree:
        g, agree = f, list(range(x.size))
    p = random_kernel_supported_on(rng, kind, random_object(rng, 3, "a"), x, agree)
    _, eq, p_factored = equalizer_factor(p, f, g)
    assert recomposes(eq, p_factored, p)


@settings(max_examples=100, deadline=None)
@given(POSITIVE_KINDS, SEEDS)
def test_scomp_support_is_bicontinuous(kind, seed):
    rng = random.Random(seed)
    a, x = random_object(rng, 3, "a"), random_object(rng, 4, "x")
    src = SuppCompCell(a, random_kernel(rng, kind, random_object(rng, 2, "c"), a))
    dst = SuppCompCell(x, random_kernel(rng, kind, random_object(rng, 2, "d"), x))
    f = random_kernel(rng, kind, a, x)
    push = compose(f, src.anchor)
    if not abs_cont(dst.anchor, push):
        # widen the target anchor by the pushforward's columns
        cols = list(zip(*dst.anchor.matrix)) + list(zip(*push.matrix))
        wide = random_kernel(rng, kind, fin_object(dst.anchor.dom.labels + push.dom.labels), x)
        dst = SuppCompCell(x, _with_columns(wide, cols))
    m = scomp_hom(src, dst, f)
    _, inclusion = scomp_support(m)
    assert scomp_abs_cont(inclusion, m) and scomp_abs_cont(m, inclusion)
