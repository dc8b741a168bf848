"""Almost-sure equality, absolute continuity, bicontinuity, atomicity,
causality instances."""

import random
from fractions import Fraction

import pytest

from finmarkov import (
    AseQuery,
    Kind,
    UnsupportedKind,
    abs_cont,
    acsim,
    ase_kernels,
    check_causality_instance,
    compose,
    copy_kernel,
    delta_kernel,
    fin_object,
    function_kernel,
    identity,
    is_atomic,
    kernel_equal,
    make_kernel,
    multi_kernel,
    perturb_off_support,
    refute_abs_cont,
    swap_kernel,
    tensor,
    tensor_object,
)
from finmarkov import asrel
from finmarkov.golden import domination_pair
from finmarkov.kernel import UNIT, associator
from finmarkov.rand import random_kernel
from oracles import (
    all_multi_kernels,
    ase_by_joint,
    deterministic_kernels,
    intro_functions,
    intro_state,
    joint_columns,
    random_object,
)

F = Fraction


# ---------------------------------------------------------------------------
# almost-sure equality
# ---------------------------------------------------------------------------


def test_intro_pair_agrees_almost_surely():
    p = intro_state()
    f, g = intro_functions()
    assert not kernel_equal(f, g)
    assert ase_kernels(p, f, g)


def test_ase_wrt_identity_is_equality():
    x = fin_object(("a", "b", "c"))
    f, g = intro_functions()
    assert not ase_kernels(identity(x), f, g)


def test_ase_with_parameter_wire():
    w = fin_object(("w0", "w1"))
    x = fin_object(("a", "b", "c"))
    y = fin_object(("u", "v"))
    p = intro_state()
    rng = random.Random(17)
    f = random_kernel(rng, Kind.STOCH, tensor_object(w, x), y)
    # tamper only at the unreached column c, for every parameter value
    cols = [list(col) for col in zip(*f.matrix)]
    for wi in range(2):
        j = wi * 3 + 2
        cols[j] = [F(1), F(0)] if cols[j] != [F(1), F(0)] else [F(0), F(1)]
    g = make_kernel(
        Kind.STOCH, f.dom, y, [[cols[j][i] for j in range(f.dom.size)] for i in range(2)]
    )
    assert ase_kernels(p, f, g, w_size=2)
    # tampering at a reached column breaks it
    cols[0] = [F(1), F(0)] if cols[0] != [F(1), F(0)] else [F(0), F(1)]
    h = make_kernel(
        Kind.STOCH, f.dom, y, [[cols[j][i] for j in range(f.dom.size)] for i in range(2)]
    )
    assert not ase_kernels(p, f, h, w_size=2)


def test_parameter_wire_matches_tensored_reference():
    # the parameter can be absorbed into the reference: f =_p g iff
    # f =_{id_W ⊗ p} g, evaluated independently on both sides
    rng = random.Random(99)
    for _ in range(100):
        w = random_object(rng, 3, "w")
        a = random_object(rng, 3, "a")
        x = random_object(rng, 3, "x")
        y = random_object(rng, 2, "y")
        p = random_kernel(rng, Kind.STOCH, a, x)
        f = random_kernel(rng, Kind.STOCH, tensor_object(w, x), y)
        g = perturb_off_support(f, p, seed=rng.randrange(2**30))
        for other in (g, random_kernel(rng, Kind.STOCH, tensor_object(w, x), y)):
            lhs = ase_kernels(p, f, other, w_size=w.size)
            rhs = ase_kernels(tensor(identity(w), p), f, other, w_size=1)
            assert lhs == rhs


def test_ase_multi_and_signed():
    x = fin_object(("0", "1"))
    p_multi = multi_kernel(UNIT, x, [["0"]])
    f = multi_kernel(x, x, [["0"], ["0"]])
    g = multi_kernel(x, x, [["0"], ["1"]])
    assert ase_kernels(p_multi, f, g)
    p_signed = make_kernel(Kind.SIGNED, UNIT, x, [[F(2)], [F(-1)]])
    fs = make_kernel(Kind.SIGNED, x, x, [[1, 0], [0, 1]])
    gs = make_kernel(Kind.SIGNED, x, x, [[1, 1], [0, 0]])
    # the signed reference reaches both elements (nonzero weights transmit)
    assert not ase_kernels(p_signed, fs, gs)


def test_ase_query_validates_shapes():
    from finmarkov import ShapeMismatch

    p = intro_state()
    f, g = intro_functions()
    with pytest.raises(ShapeMismatch):
        AseQuery(p, f, g, w_size=2)


def test_ase_literal_diagram_agrees_with_wired_composition():
    # build the defining joint with actual structural morphisms and
    # compare against the decision procedure
    rng = random.Random(4)
    for _ in range(25):
        w = random_object(rng, 2, "w")
        a = random_object(rng, 2, "a")
        x = random_object(rng, 3, "x")
        y = random_object(rng, 2, "y")
        p = random_kernel(rng, Kind.STOCH, a, x)
        f = random_kernel(rng, Kind.STOCH, tensor_object(w, x), y)
        g = perturb_off_support(f, p, seed=rng.randrange(2**30))
        assert joint_columns(p, f, w.size) == _wired_joint(p, f, w, a, x, y)
        assert ase_by_joint(p, f, g, w.size) == ase_kernels(p, f, g, w.size)


def _wired_joint(p, f, w, a, x, y):
    """(x̂ ⊗ f)-style pairing built from structural morphisms only."""
    # W⊗A → W⊗X: parameter through, p on the input
    step1 = tensor(identity(w), p)
    # W⊗X → W⊗(X⊗X): copy the output
    step2 = tensor(identity(w), copy_kernel(x))
    # W⊗(X⊗X) → (X⊗X)⊗W → X⊗(X⊗W) → X⊗(W⊗X)
    sw = swap_kernel(w, tensor_object(x, x))
    assoc = associator(x, x, w)
    inner_swap = tensor(identity(x), swap_kernel(x, w))
    # X⊗(W⊗X) → X⊗Y
    apply_f = tensor(identity(x), f)
    wired = compose(
        apply_f, compose(inner_swap, compose(assoc, compose(sw, compose(step2, step1))))
    )
    return list(wired.columns)


# ---------------------------------------------------------------------------
# absolute continuity
# ---------------------------------------------------------------------------


def test_domination_pair_holds():
    q, p = domination_pair()
    assert abs_cont(q, p)


def test_identity_dominates_everything():
    rng = random.Random(2)
    for _ in range(20):
        x = random_object(rng, 4, "x")
        a = random_object(rng, 3, "a")
        p = random_kernel(rng, Kind.STOCH, a, x)
        assert abs_cont(identity(x), p)


def test_precomposition_breaks_domination():
    q, p = domination_pair()
    d0 = delta_kernel(q.dom, "0")
    assert not abs_cont(compose(q, d0), compose(p, d0))


def test_multi_abs_cont_is_image_union_inclusion():
    x = fin_object(("0", "1", "2"))
    p = multi_kernel(fin_object(("a",)), x, [["0"]])
    q = multi_kernel(fin_object(("b", "c")), x, [["0"], ["0", "1"]])
    assert abs_cont(q, p)
    assert not abs_cont(p, q)


def test_signed_abs_cont_unsupported():
    x = fin_object(("0", "1"))
    s = make_kernel(Kind.SIGNED, x, x, [[1, 0], [0, 1]])
    with pytest.raises(UnsupportedKind):
        abs_cont(s, s)


def test_refute_abs_cont_witness_replays():
    q, p = domination_pair()
    qd = compose(q, delta_kernel(q.dom, "0"))
    pd = compose(p, delta_kernel(p.dom, "0"))
    witness = refute_abs_cont(qd, pd)
    assert witness is not None and witness.element == "1"
    assert ase_kernels(qd, witness.low, witness.high)
    assert not ase_kernels(pd, witness.low, witness.high)


def test_refute_abs_cont_none_when_reflexive_or_full():
    q, p = domination_pair()
    assert refute_abs_cont(q, q) is None
    rng = random.Random(12)
    x = fin_object(("0", "1"))
    full = make_kernel(Kind.STOCH, x, x, [[F(1, 2)] * 2] * 2)
    for _ in range(10):
        any_p = random_kernel(rng, Kind.STOCH, x, x)
        assert refute_abs_cont(full, any_p) is None


def test_domination_preorder():
    rng = random.Random(21)
    for kind in (Kind.STOCH, Kind.MULTI):
        for _ in range(60):
            x = random_object(rng, 4, "x")
            ks = [
                random_kernel(rng, kind, random_object(rng, 3, f"a{i}"), x) for i in range(3)
            ]
            for k in ks:
                assert abs_cont(k, k)
            if abs_cont(ks[0], ks[1]) and abs_cont(ks[1], ks[2]):
                assert abs_cont(ks[0], ks[2])


def test_postcomposition_factoring_dominates():
    # h dominates h∘p for all composable h, p
    rng = random.Random(31)
    for kind in (Kind.STOCH, Kind.MULTI):
        for _ in range(40):
            a = random_object(rng, 3, "a")
            x = random_object(rng, 3, "x")
            y = random_object(rng, 3, "y")
            p = random_kernel(rng, kind, a, x)
            h = random_kernel(rng, kind, x, y)
            assert abs_cont(h, compose(h, p))


def test_postcomposition_monotone():
    rng = random.Random(41)
    for kind in (Kind.STOCH, Kind.MULTI):
        for _ in range(60):
            x = random_object(rng, 4, "x")
            y = random_object(rng, 3, "y")
            q = random_kernel(rng, kind, random_object(rng, 3, "b"), x)
            # force q ≫ p by drawing p's columns inside q's reach
            from finmarkov.kernel import support_indices
            from finmarkov.rand import random_kernel_supported_on

            p = random_kernel_supported_on(
                rng, kind, random_object(rng, 3, "a"), x, list(support_indices(q))
            )
            assert abs_cont(q, p)
            h = random_kernel(rng, kind, x, y)
            assert abs_cont(compose(h, q), compose(h, p))


def test_tensor_monotone():
    rng = random.Random(51)
    from finmarkov.kernel import support_indices
    from finmarkov.rand import random_kernel_supported_on

    for kind in (Kind.STOCH, Kind.MULTI):
        for _ in range(60):
            x = random_object(rng, 3, "x")
            x2 = random_object(rng, 3, "y")
            q = random_kernel(rng, kind, random_object(rng, 2, "b"), x)
            q2 = random_kernel(rng, kind, random_object(rng, 2, "d"), x2)
            p = random_kernel_supported_on(
                rng, kind, random_object(rng, 2, "a"), x, list(support_indices(q))
            )
            p2 = random_kernel_supported_on(
                rng, kind, random_object(rng, 2, "c"), x2, list(support_indices(q2))
            )
            assert abs_cont(tensor(q, q2), tensor(p, p2))


def test_soundness_of_characterization_against_sampled_definition():
    # when q ≫ p, every almost-sure equality w.r.t. q transfers to p;
    # when it fails, the refuting witness separates them
    rng = random.Random(61)
    for kind in (Kind.STOCH, Kind.MULTI):
        for _ in range(40):
            x = random_object(rng, 4, "x")
            q = random_kernel(rng, kind, random_object(rng, 3, "b"), x)
            p = random_kernel(rng, kind, random_object(rng, 3, "a"), x)
            y = random_object(rng, 3, "y")
            f = random_kernel(rng, kind, x, y)
            if abs_cont(q, p):
                g = perturb_off_support(f, q, seed=rng.randrange(2**30))
                assert ase_kernels(q, f, g)
                assert ase_kernels(p, f, g)
            else:
                witness = refute_abs_cont(q, p)
                assert witness is not None
                assert ase_kernels(q, witness.low, witness.high)
                assert not ase_kernels(p, witness.low, witness.high)


# ---------------------------------------------------------------------------
# bicontinuity and atomicity
# ---------------------------------------------------------------------------


def test_split_epi_bicontinuous_with_identity():
    x = fin_object(("0", "1", "2"))
    t = fin_object(("0", "1"))
    pi = make_kernel(Kind.STOCH, x, t, [[1, 0, 1], [0, 1, 0]])
    assert acsim(pi, identity(t))


def test_support_inclusion_bicontinuous_with_kernel():
    from finmarkov import support

    p = intro_state()
    sd = support(p)
    assert acsim(sd.inclusion, p)


def test_delta_states_not_bicontinuous():
    x = fin_object(("a", "b"))
    assert not acsim(delta_kernel(x, "a"), delta_kernel(x, "b"))


def test_everything_atomic():
    rng = random.Random(71)
    for kind in (Kind.STOCH, Kind.MULTI):
        for _ in range(60):
            a = random_object(rng, 4, "a")
            x = random_object(rng, 4, "x")
            assert is_atomic(random_kernel(rng, kind, a, x))


def test_is_atomic_returns_its_domination_verdict(monkeypatch):
    # the answer is always True, but is_atomic evaluates abs_cont(p⊗p, copy∘p)
    # and returns what it says
    p = intro_state()
    assert is_atomic(p)
    monkeypatch.setattr(asrel, "abs_cont", lambda q, r: False)
    assert not is_atomic(p)


def test_atomicity_containment_by_inspection():
    p = make_kernel(Kind.STOCH, UNIT, fin_object(("a", "b")), [[F(1, 2)], [F(1, 2)]])
    joint = compose(copy_kernel(p.cod), p)
    assert abs_cont(tensor(p, p), joint)


# ---------------------------------------------------------------------------
# perturbation
# ---------------------------------------------------------------------------


def test_perturb_full_support_is_identity():
    rng = random.Random(82)
    x = fin_object(("0", "1"))
    p = make_kernel(Kind.STOCH, x, x, [[F(1, 2)] * 2] * 2)
    f = random_kernel(rng, Kind.STOCH, x, x)
    assert kernel_equal(perturb_off_support(f, p, seed=1), f)


def test_perturb_changes_only_off_support_columns():
    p = intro_state()
    rng = random.Random(83)
    f = random_kernel(rng, Kind.STOCH, p.cod, fin_object(("u", "v")))
    g = perturb_off_support(f, p, seed=5)
    gcols, fcols = list(zip(*g.matrix)), list(zip(*f.matrix))
    assert gcols[:2] == fcols[:2] and gcols[2] != fcols[2]
    assert ase_kernels(p, f, g)


def test_perturb_deterministic_per_seed():
    p = intro_state()
    rng = random.Random(84)
    f = random_kernel(rng, Kind.STOCH, p.cod, fin_object(("u", "v", "w")))
    assert kernel_equal(perturb_off_support(f, p, seed=9), perturb_off_support(f, p, seed=9))


# ---------------------------------------------------------------------------
# causality instances
# ---------------------------------------------------------------------------


def test_causality_trivial_when_equal():
    rng = random.Random(91)
    a, x, y, z = (random_object(rng, 3, c) for c in "axyz")
    f = random_kernel(rng, Kind.STOCH, a, x)
    g = random_kernel(rng, Kind.STOCH, x, y)
    h = random_kernel(rng, Kind.STOCH, y, z)
    inst = check_causality_instance(f, g, h, h)
    assert inst.antecedent and inst.consequent and inst.implication_ok


def test_causality_instance_with_a_false_consequent():
    # along f = δ_x0 and g = id_X, h1 = id_X and h2, the constant map to x1,
    # differ at x0: neither the antecedent nor the consequent holds
    x = fin_object(("x0", "x1"))
    for kind in (Kind.STOCH, Kind.MULTI):
        f, ident = delta_kernel(x, "x0", kind), identity(x, kind)
        inst = check_causality_instance(f, ident, ident, function_kernel(x, x, [1, 1], kind))
        assert (inst.antecedent, inst.consequent) == (False, False)


def test_causality_random_search_finds_no_counterexample():
    rng = random.Random(92)
    for _ in range(300):
        a, x, y, z = (random_object(rng, 4, c) for c in "axyz")
        f = random_kernel(rng, Kind.STOCH, a, x)
        g = random_kernel(rng, Kind.STOCH, x, y)
        h1 = random_kernel(rng, Kind.STOCH, y, z)
        h2 = random_kernel(rng, Kind.STOCH, y, z)
        assert check_causality_instance(f, g, h1, h2).implication_ok


def test_causality_targeted_non_vacuous_instances():
    rng = random.Random(93)
    hits = 0
    for _ in range(200):
        a, x, y, z = (random_object(rng, 4, c) for c in "axyz")
        f = random_kernel(rng, Kind.STOCH, a, x)
        g = random_kernel(rng, Kind.STOCH, x, y)
        h1 = random_kernel(rng, Kind.STOCH, y, z)
        h2 = perturb_off_support(h1, compose(g, f), seed=rng.randrange(2**30))
        inst = check_causality_instance(f, g, h1, h2)
        assert inst.antecedent
        assert inst.implication_ok
        hits += 1
    assert hits == 200


# ---------------------------------------------------------------------------
# exhaustive pattern families
# ---------------------------------------------------------------------------


def _uniform_on_patterns(dom, cod):
    """Every positivity pattern realized as a uniform distribution."""
    from itertools import product as iproduct

    from finmarkov import Kernel

    for masks in iproduct(range(1, 2**cod.size), repeat=dom.size):
        cols = []
        for m in masks:
            bits = [bool(m >> i & 1) for i in range(cod.size)]
            total = sum(bits)
            cols.append([F(1, total) if b else F(0) for b in bits])
        yield Kernel(
            Kind.STOCH,
            dom,
            cod,
            tuple(tuple(cols[j][i] for j in range(dom.size)) for i in range(cod.size)),
        )


def test_ase_procedures_agree_exhaustively_small():
    # the support shortcut against the literal joint equation on every
    # support pattern x deterministic pair at size 3
    a = fin_object(("a",))
    x = fin_object(("x0", "x1", "x2"))
    y = fin_object(("y0", "y1", "y2"))
    dets = deterministic_kernels(x, y)
    count = 0
    for p in _uniform_on_patterns(a, x):
        for f in dets:
            for g in dets:
                assert ase_kernels(p, f, g) == ase_by_joint(p, f, g)
                count += 1
    assert count == 7 * 27 * 27


def test_atomicity_exhaustive_patterns():
    for na in (1, 2):
        for nx in (1, 2, 3, 4):
            a = fin_object(tuple(f"a{i}" for i in range(na)))
            x = fin_object(tuple(f"x{i}" for i in range(nx)))
            if (2**nx - 1) ** na > 300:
                continue
            for p in _uniform_on_patterns(a, x):
                assert is_atomic(p)
    # multivalued kernels exhaustively at sizes <= 2
    for na in (1, 2):
        a = fin_object(tuple(f"a{i}" for i in range(na)))
        x = fin_object(("x0", "x1"))
        for p in all_multi_kernels(a, x):
            assert is_atomic(p)
