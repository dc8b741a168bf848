"""Supports, split supports, functoriality, equalizer principle, point
liftings, precise supports, and the free support completion."""

import random
from fractions import Fraction

import pytest

from finmarkov import (
    EmptySupport,
    FactorizationFailed,
    Kind,
    NotAbsolutelyContinuous,
    NotAse,
    NotCommutative,
    NotDeterministic,
    NotInSupport,
    NotMember,
    ShapeMismatch,
    SuppCompCell,
    SuppCompMorphism,
    SupportData,
    UnsupportedKind,
    acsim,
    ase_kernels,
    compose,
    copy_kernel,
    delta_kernel,
    equalizer_factor,
    factor_through_support,
    fin_object,
    function_kernel,
    identity,
    is_deterministic,
    kernel_equal,
    make_kernel,
    multi_kernel,
    perturb_off_support,
    point_lift,
    precise_supports_equiv,
    scomp_abs_cont,
    scomp_compose,
    scomp_hom,
    scomp_identity,
    scomp_support,
    scomp_tensor_cell,
    split_support,
    support,
    support_functor_map,
    tensor,
    tensor_object,
)
from finmarkov import supports
from finmarkov.golden import signed_idempotent, static_idempotent
from finmarkov.kernel import UNIT, support_indices
from finmarkov.supports import PreciseSupportCheck
from finmarkov.rand import random_kernel, random_kernel_supported_on
from oracles import deterministic_kernels, entry, intro_functions, intro_state, random_object

F = Fraction


# ---------------------------------------------------------------------------
# plain supports
# ---------------------------------------------------------------------------


def test_intro_state_support():
    p = intro_state()
    sd = support(p)
    assert sd.supp_object.labels == ("a", "b")
    assert kernel_equal(compose(sd.inclusion, sd.factorization), p)
    assert is_deterministic(sd.inclusion)


def test_identity_is_its_own_support():
    x = fin_object(("a", "b"))
    sd = support(identity(x))
    assert sd.supp_object == x
    assert kernel_equal(sd.inclusion, identity(x))


def test_multi_support_is_union_of_images():
    x = fin_object(("x", "y", "z"))
    p = multi_kernel(fin_object(("a", "b")), x, [["x"], ["x", "y"]])
    assert support(p).supp_object.labels == ("x", "y")


def test_support_inclusion_bicontinuous():
    rng = random.Random(1)
    for kind in (Kind.STOCH, Kind.MULTI):
        for _ in range(40):
            p = random_kernel(rng, kind, random_object(rng, 3, "a"), random_object(rng, 4, "x"))
            assert acsim(support(p).inclusion, p)


def test_factor_through_support_of_dominated_kernel():
    p = intro_state()
    sd = support(p)
    f = delta_kernel(p.cod, "a")
    fh = factor_through_support(f, sd)
    assert fh.cod.labels == ("a", "b")
    assert kernel_equal(compose(sd.inclusion, fh), f)


def test_factor_through_support_reads_a_support_listed_out_of_codomain_order():
    # the support object lists c before a, so its rows are not the codomain's order
    x, u, supp = fin_object(("a", "b", "c")), fin_object(("u", "v")), fin_object(("c", "a"))
    cases = [
        (make_kernel(Kind.STOCH, UNIT, x, [[F(1, 3)], [0], [F(2, 3)]]),
         make_kernel(Kind.STOCH, UNIT, supp, [[F(2, 3)], [F(1, 3)]]),
         make_kernel(Kind.STOCH, u, x, [[1, F(1, 4)], [0, 0], [0, F(3, 4)]]),
         ((0, F(3, 4)), (1, F(1, 4)))),
        (multi_kernel(UNIT, x, [["a", "c"]]), multi_kernel(UNIT, supp, [["c", "a"]]),
         multi_kernel(u, x, [["a"], ["a", "c"]]), ((False, True), (True, True))),
    ]
    for base, factorization, f, rows in cases:
        sd = SupportData(base, supp, function_kernel(supp, x, [2, 0], base.kind), factorization)
        fh = factor_through_support(f, sd)
        assert fh.cod == supp and fh.matrix == rows
        assert kernel_equal(compose(sd.inclusion, fh), f)


def test_factor_through_support_refuses_off_support_mass():
    p = intro_state()
    sd = support(p)
    f = delta_kernel(p.cod, "c")
    with pytest.raises(NotAbsolutelyContinuous) as exc:
        factor_through_support(f, sd)
    assert exc.value.element == "c"


def test_factor_base_through_own_support():
    p = intro_state()
    sd = support(p)
    assert kernel_equal(factor_through_support(p, sd), sd.factorization)


# ---------------------------------------------------------------------------
# split supports
# ---------------------------------------------------------------------------


def test_split_support_projection_rule():
    p = intro_state()
    sd = split_support(p)
    pi = sd.projection
    assert pi is not None
    assert entry(pi, "a", "a") == 1 and entry(pi, "b", "b") == 1
    # off-support element goes to the first support element
    assert entry(pi, "a", "c") == 1 and entry(pi, "b", "c") == 0


def test_split_support_full_support_projection_is_identity():
    x = fin_object(("a", "b"))
    p = make_kernel(Kind.STOCH, x, x, [[F(1, 2)] * 2] * 2)
    sd = split_support(p)
    assert kernel_equal(sd.projection, identity(x))


def test_split_support_composite_is_static_idempotent():
    p = intro_state()
    sd = split_support(p)
    e = compose(sd.inclusion, sd.projection)
    from finmarkov import classify

    report = classify(e)
    assert report.idempotent and report.static
    assert entry(e, "a", "c") == 1  # the off-support column is the point at a


def test_split_support_needs_nonempty_support():
    empty = fin_object(())
    x = fin_object(("a",))
    p = make_kernel(Kind.STOCH, empty, x, [[]])
    with pytest.raises(EmptySupport):
        split_support(p)
    # the plain support still exists
    assert support(p).supp_object.size == 0


def test_split_projection_retracts_and_section_almost_surely():
    rng = random.Random(3)
    for kind in (Kind.STOCH, Kind.MULTI):
        for _ in range(40):
            p = random_kernel(rng, kind, random_object(rng, 3, "a"), random_object(rng, 4, "x"))
            sd = split_support(p)
            assert kernel_equal(
                compose(sd.projection, sd.inclusion), identity(sd.supp_object, kind)
            )
            assert ase_kernels(p, compose(sd.inclusion, sd.projection), identity(p.cod, kind))


def test_almost_surely_is_restriction_to_support():
    # f =_p g iff f∘(id_W⊗ι) = g∘(id_W⊗ι); enumerated deterministic pairs
    # at small sizes plus random stochastic pairs
    p = intro_state()
    sd = support(p)
    x, y = p.cod, fin_object(("u", "v"))
    for f in deterministic_kernels(x, y):
        for g in deterministic_kernels(x, y):
            lhs = ase_kernels(p, f, g)
            rhs = kernel_equal(compose(f, sd.inclusion), compose(g, sd.inclusion))
            assert lhs == rhs
    rng = random.Random(8)
    w = fin_object(("w0", "w1"))
    for _ in range(40):
        f = random_kernel(rng, Kind.STOCH, tensor_object(w, x), y)
        g = perturb_off_support(f, p, seed=rng.randrange(2**30))
        incw = tensor(identity(w), sd.inclusion)
        assert ase_kernels(p, f, g, 2) == kernel_equal(compose(f, incw), compose(g, incw))


def test_support_of_composite_with_split_mono():
    # inclusion of Supp(ι∘p) equals ι∘(inclusion of Supp(p)) for a
    # deterministic split mono ι
    rng = random.Random(13)
    t = fin_object(("t0", "t1"))
    x = fin_object(("x0", "x1", "x2", "x3"))
    iota = make_kernel(Kind.STOCH, t, x, [[1, 0], [0, 0], [0, 1], [0, 0]])
    for _ in range(30):
        p = random_kernel(rng, Kind.STOCH, random_object(rng, 3, "a"), t)
        lhs = support(compose(iota, p)).inclusion
        rhs = compose(iota, support(p).inclusion)
        assert lhs.kind is rhs.kind and lhs.matrix == rhs.matrix and lhs.cod == rhs.cod


def test_copying_does_not_change_the_support():
    rng = random.Random(17)
    for _ in range(30):
        x = random_object(rng, 4, "x")
        p = random_kernel(rng, Kind.STOCH, random_object(rng, 3, "a"), x)
        q = compose(copy_kernel(x), p)
        lhs = support(q).inclusion
        rhs = compose(tensor(support(p).inclusion, support(p).inclusion), copy_kernel(support(p).supp_object))
        assert lhs.kind is rhs.kind and lhs.matrix == rhs.matrix and lhs.cod == rhs.cod


def test_split_supports_of_tensor():
    rng = random.Random(19)
    for kind in (Kind.STOCH, Kind.MULTI):
        for _ in range(25):
            p = random_kernel(rng, kind, random_object(rng, 2, "a"), random_object(rng, 3, "x"))
            q = random_kernel(rng, kind, random_object(rng, 2, "b"), random_object(rng, 3, "y"))
            sp, sq = split_support(p), split_support(q)
            spq = split_support(tensor(p, q))
            assert kernel_equal(spq.inclusion, tensor(sp.inclusion, sq.inclusion))
            # the tensored projection is a valid retraction, though not
            # necessarily the computed one
            candidate = tensor(sp.projection, sq.projection)
            assert kernel_equal(
                compose(candidate, spq.inclusion), identity(spq.supp_object, kind)
            )


def test_tensor_support_equals_tensor_of_supports_in_these_models():
    # regression: in the finite models the comparison map is an equality
    rng = random.Random(23)
    for kind in (Kind.STOCH, Kind.MULTI):
        for _ in range(40):
            p = random_kernel(rng, kind, random_object(rng, 3, "a"), random_object(rng, 3, "x"))
            q = random_kernel(rng, kind, random_object(rng, 3, "b"), random_object(rng, 3, "y"))
            assert support(tensor(p, q)).supp_object == tensor_object(
                support(p).supp_object, support(q).supp_object
            )


def test_mapping_out_bijection():
    # f ↦ f∘(id_W⊗ι) and g ↦ g∘(id_W⊗π) are mutually inverse between
    # canonical almost-sure classes and kernels out of W⊗S
    from finmarkov.supports import canonical_rep

    rng = random.Random(29)
    p = intro_state()
    sd = split_support(p)
    w = fin_object(("w0", "w1"))
    y = fin_object(("u", "v"))
    incw = tensor(identity(w), sd.inclusion)
    projw = tensor(identity(w), sd.projection)
    reached = set()
    supp = set(support_indices(p))
    for wi in range(w.size):
        for xi in supp:
            reached.add(wi * p.cod.size + xi)
    for _ in range(30):
        g = random_kernel(rng, Kind.STOCH, tensor_object(w, sd.supp_object), y)
        assert kernel_equal(compose(compose(g, projw), incw), g)
        f = random_kernel(rng, Kind.STOCH, tensor_object(w, p.cod), y)
        back = compose(compose(f, incw), projw)
        assert kernel_equal(canonical_rep(back, reached), canonical_rep(f, reached))


def test_deterministic_split_mono_is_its_own_split_support():
    rng = random.Random(31)
    for _ in range(30):
        n = 2 + rng.randrange(3)
        x = fin_object(f"x{i}" for i in range(n + 2))
        t = fin_object(f"t{i}" for i in range(n))
        # random injection t → x
        slots = list(range(n + 2))
        for i in range(len(slots) - 1, 0, -1):
            j = rng.randrange(i + 1)
            slots[i], slots[j] = slots[j], slots[i]
        chosen = sorted(slots[:n])
        rows = [[F(1) if chosen[j] == i else F(0) for j in range(n)] for i in range(n + 2)]
        iota = make_kernel(Kind.STOCH, t, x, rows)
        sd = split_support(iota)
        ihat = factor_through_support(iota, sd)
        # the factorization is a deterministic iso and rebuilds ι
        assert is_deterministic(ihat)
        assert kernel_equal(compose(sd.inclusion, ihat), iota)
        cols = list(zip(*ihat.matrix))
        assert len(set(cols)) == ihat.dom.size


# ---------------------------------------------------------------------------
# support functoriality
# ---------------------------------------------------------------------------


def test_support_functor_map_on_constructed_squares():
    rng = random.Random(37)
    for _ in range(200):
        a = random_object(rng, 3, "a")
        x = random_object(rng, 4, "x")
        y = random_object(rng, 3, "y")
        p = random_kernel(rng, Kind.STOCH, a, x)
        g = random_kernel(rng, Kind.STOCH, x, y)
        q = compose(g, p)
        dashed = support_functor_map(p, q, identity(a), g)
        assert kernel_equal(
            compose(support(q).inclusion, dashed), compose(g, support(p).inclusion)
        )


def test_support_functor_map_identity_square():
    p = intro_state()
    dashed = support_functor_map(p, p, identity(p.dom), identity(p.cod))
    assert kernel_equal(dashed, identity(support(p).supp_object))


def test_support_functor_map_rejects_non_commuting():
    p = intro_state()
    q = delta_kernel(p.cod, "a")
    with pytest.raises(NotCommutative):
        support_functor_map(p, q, identity(p.dom), identity(p.cod))


# ---------------------------------------------------------------------------
# equalizer principle
# ---------------------------------------------------------------------------


def test_equalizer_factor_for_intro_pair():
    p = intro_state()
    f, g = intro_functions()
    e_obj, eq, p_f = equalizer_factor(p, f, g)
    assert e_obj.labels == ("a", "b")
    assert kernel_equal(compose(eq, p_f), p)


def test_equalizer_equal_pair_gives_whole_object():
    p = intro_state()
    f, _ = intro_functions()
    e_obj, eq, p_f = equalizer_factor(p, f, f)
    assert e_obj == p.cod
    assert kernel_equal(p_f, p)


def test_equalizer_rejects_support_touching_difference():
    x = fin_object(("a", "b", "c"))
    uniform = make_kernel(Kind.STOCH, UNIT, x, [[F(1, 3)], [F(1, 3)], [F(1, 3)]])
    f, g = intro_functions()
    with pytest.raises(NotAse):
        equalizer_factor(uniform, f, g)


def test_equalizer_requires_deterministic_pair():
    p = intro_state()
    x = p.cod
    blur = make_kernel(Kind.STOCH, x, x, [[F(1, 2), 0, 0], [F(1, 2), 1, 0], [0, 0, 1]])
    with pytest.raises(NotDeterministic):
        equalizer_factor(p, blur, blur)


# ---------------------------------------------------------------------------
# point liftings and precise supports
# ---------------------------------------------------------------------------


def test_point_lift_for_state():
    p = intro_state()
    assert point_lift(p, "a") == "•"
    with pytest.raises(NotInSupport):
        point_lift(p, "c")


def test_point_lift_static_example():
    e = static_idempotent()
    assert point_lift(e, "1") == "1"
    assert point_lift(e, "2") == "2"


def test_point_lift_yields_column_support():
    rng = random.Random(41)
    for _ in range(40):
        p = random_kernel(rng, Kind.STOCH, random_object(rng, 3, "a"), random_object(rng, 4, "x"))
        for i in support_indices(p):
            lbl = p.cod.labels[i]
            a = point_lift(p, lbl)
            assert entry(p, lbl, a) > 0


def test_precise_supports():
    p = intro_state()
    f = identity(p.cod)
    both = precise_supports_equiv(p, f, "a", "a")
    assert both.joint_dominates and both.pointwise and both.agree
    neither = precise_supports_equiv(p, f, "c", "c")
    assert not neither.joint_dominates and not neither.pointwise and neither.agree


def test_precise_supports_refuse_signed_kernels():
    # with p(a) = -1/2 and f(u|a) = -1 the joint entry at (a,u) is +1/2,
    # so the two readings would disagree
    x = fin_object(("a", "b"))
    y = fin_object(("u", "v"))
    p = make_kernel(Kind.SIGNED, UNIT, x, [[F(-1, 2)], [F(3, 2)]])
    f = make_kernel(Kind.SIGNED, x, y, [[-1, 0], [2, 1]])
    with pytest.raises(UnsupportedKind):
        precise_supports_equiv(p, f, "a", "u")


def test_precise_supports_read_the_joint_column(monkeypatch):
    # joint_dominates is read off the joint column that precise_supports_equiv
    # composes: a joint column without (a,a) makes it False, while the
    # pointwise reading, of p's and f's own columns, stays True
    x = fin_object(("a", "b", "c"))
    real = supports.compose

    def joint_at_c_c(g, f):
        joint = real(g, f)
        return function_kernel(joint.dom, joint.cod, [joint.cod.size - 1], joint.kind)

    for p in (intro_state(), multi_kernel(UNIT, x, [["a", "b"]])):
        assert precise_supports_equiv(p, identity(x, p.kind), "a", "a") == PreciseSupportCheck(True, True)
        with monkeypatch.context() as m:
            m.setattr(supports, "compose", joint_at_c_c)
            assert precise_supports_equiv(p, identity(x, p.kind), "a", "a") == PreciseSupportCheck(False, True)


def test_precise_supports_agree_randomized():
    rng = random.Random(43)
    for kind in (Kind.STOCH, Kind.MULTI):
        for _ in range(40):
            x = random_object(rng, 3, "x")
            y = random_object(rng, 3, "y")
            p = random_kernel(rng, kind, UNIT, x)
            f = random_kernel(rng, kind, x, y)
            for xl in x.labels:
                for yl in y.labels:
                    assert precise_supports_equiv(p, f, xl, yl).agree


# ---------------------------------------------------------------------------
# free support completion
# ---------------------------------------------------------------------------


def _cells(rng, kind=Kind.STOCH):
    x = random_object(rng, 3, "x")
    y = random_object(rng, 3, "y")
    p = random_kernel(rng, kind, random_object(rng, 2, "a"), x)
    q = random_kernel(rng, kind, random_object(rng, 2, "b"), y)
    return SuppCompCell(x, p), SuppCompCell(y, q)


def test_scomp_identity_is_canonical():
    p = intro_state()
    cell = SuppCompCell(p.cod, p)
    ident = scomp_identity(cell)
    # support is {a,b}; the column at c is canonicalized to the point at a
    assert entry(ident.rep, "a", "c") == 1
    assert entry(ident.rep, "a", "a") == 1 and entry(ident.rep, "b", "b") == 1


def test_canonical_rep_matches_its_dense_definition_on_every_kind_and_empty_objects():
    # each unreached column becomes the point mass on the first codomain
    # element; a lawful kernel into an empty object has an empty domain, so
    # it has no column to replace
    from finmarkov.supports import canonical_rep

    rng = random.Random(43)
    empty = fin_object(())
    for kind in Kind:
        for dom, cod in ((empty, empty), (empty, random_object(rng, 3, "x")),
                         (random_object(rng, 3, "a"), random_object(rng, 3, "x"))):
            f = random_kernel(rng, kind, dom, cod)
            for mask in range(2**dom.size):
                reached = {j for j in range(dom.size) if mask >> j & 1}
                rows = [[f.matrix[i][j] if j in reached else (kind.one if i == 0 else kind.zero)
                         for j in range(dom.size)] for i in range(cod.size)]
                assert canonical_rep(f, reached) == make_kernel(kind, dom, cod, rows)


def test_scomp_membership_enforced():
    p = intro_state()
    src = SuppCompCell(p.cod, p)
    q = delta_kernel(p.cod, "a")
    dst = SuppCompCell(p.cod, q)
    with pytest.raises(NotMember) as exc:
        scomp_hom(src, dst, identity(p.cod))
    assert exc.value.element == "b"


def test_scomp_representatives_identified():
    rng = random.Random(47)
    p = intro_state()
    src = SuppCompCell(p.cod, p)
    dst = SuppCompCell(p.cod, identity(p.cod))
    f = random_kernel(rng, Kind.STOCH, p.cod, p.cod)
    f2 = perturb_off_support(f, p, seed=7)
    m1 = scomp_hom(src, dst, f)
    m2 = scomp_hom(src, dst, f2)
    assert kernel_equal(m1.rep, m2.rep)


def test_scomp_compose_well_defined_and_associative():
    rng = random.Random(53)
    for _ in range(25):
        a = random_object(rng, 3, "x")
        b = random_object(rng, 3, "y")
        c = random_object(rng, 3, "z")
        pa = random_kernel(rng, Kind.STOCH, random_object(rng, 2, "a"), a)
        pb = random_kernel(rng, Kind.STOCH, random_object(rng, 2, "b"), b)
        ca, cb, cc = SuppCompCell(a, pa), SuppCompCell(b, pb), None
        f = random_kernel_supported_on(rng, Kind.STOCH, a, b, list(support_indices(pb)))
        push = compose(f, pa)
        # target anchored by something dominating the push: reuse pb
        m_f = scomp_hom(ca, cb, f)
        g = random_kernel(rng, Kind.STOCH, b, c)
        pc = compose(g, pb)
        cc = SuppCompCell(c, pc)
        m_g = scomp_hom(cb, cc, g)
        # well-definedness: perturbing f off the anchor does not change the composite
        f2 = perturb_off_support(f, pa, seed=rng.randrange(2**30))
        m_f2 = scomp_hom(ca, cb, f2)
        comp1 = scomp_compose(m_g, m_f)
        comp2 = scomp_compose(m_g, m_f2)
        assert kernel_equal(comp1.rep, comp2.rep)
        # identity laws
        assert kernel_equal(scomp_compose(m_f, scomp_identity(ca)).rep, m_f.rep)
        assert kernel_equal(scomp_compose(scomp_identity(cb), m_f).rep, m_f.rep)
        # associativity with a third leg
        d = random_object(rng, 3, "w")
        h = random_kernel(rng, Kind.STOCH, c, d)
        cd = SuppCompCell(d, compose(h, pc))
        m_h = scomp_hom(cc, cd, h)
        lhs = scomp_compose(m_h, scomp_compose(m_g, m_f))
        rhs = scomp_compose(scomp_compose(m_h, m_g), m_f)
        assert kernel_equal(lhs.rep, rhs.rep)


def test_scomp_abs_cont_matches_pushforward_comparison():
    rng = random.Random(59)
    p = intro_state()
    x = p.cod
    src1 = SuppCompCell(x, p)
    src2 = SuppCompCell(x, delta_kernel(x, "a"))
    dst = SuppCompCell(x, identity(x))
    m1 = scomp_hom(src1, dst, identity(x))
    m2 = scomp_hom(src2, dst, identity(x))
    assert scomp_abs_cont(m2, m1)  # {a} ⊆ {a,b}
    assert not scomp_abs_cont(m1, m2)
    assert scomp_abs_cont(m1, m1)


def test_scomp_abs_cont_disjoint_pushforwards():
    x = fin_object(("a", "b"))
    dst = SuppCompCell(x, identity(x))
    ma = scomp_hom(SuppCompCell(x, delta_kernel(x, "a")), dst, identity(x))
    mb = scomp_hom(SuppCompCell(x, delta_kernel(x, "b")), dst, identity(x))
    assert not scomp_abs_cont(ma, mb) and not scomp_abs_cont(mb, ma)


def test_scomp_cell_takes_an_anchor_on_labels_with_commas():
    # ("a", "a,a") and ("a,a", "a") are distinct elements of X⊗X, written
    # "(a,a\\,a)" and "(a\\,a,a)"; Stoch and Multi anchors are atomic
    x = fin_object(["a", "a,a"])
    assert tensor_object(x, x).labels == ("(a,a)", "(a,a\\,a)", "(a\\,a,a)", "(a\\,a,a\\,a)")
    for p in (make_kernel(Kind.STOCH, UNIT, x, [[F(1, 2)], [F(1, 2)]]), multi_kernel(UNIT, x, [["a", "a,a"]])):
        cell = SuppCompCell(x, p)
        assert cell.anchor is p
        assert scomp_identity(cell).rep == identity(x, p.kind)


def test_scomp_cell_refuses_a_signed_anchor():
    x = fin_object(["a", "b"])
    p = make_kernel(Kind.SIGNED, UNIT, x, [[F(-1, 2)], [F(3, 2)]])
    with pytest.raises(ShapeMismatch, match="^anchor must land in the cell's object$"):
        SuppCompCell(fin_object(["a"]), p)
    with pytest.raises(UnsupportedKind, match="^absolute continuity is not decidable for signed kernels$"):
        SuppCompCell(x, p)


def test_scomp_support_of_state_class():
    from finmarkov.supports import canonical_rep

    p = intro_state()
    unit_cell = SuppCompCell(UNIT, identity(UNIT))
    dst = SuppCompCell(p.cod, identity(p.cod))
    m = scomp_hom(unit_cell, dst, p)
    cell, inclusion = scomp_support(m)
    assert cell.object == p.cod and kernel_equal(cell.anchor, p)
    # the inclusion is the identity class, canonicalized off the support
    expected = canonical_rep(identity(p.cod), set(support_indices(p)))
    assert kernel_equal(inclusion.rep, expected)
    assert entry(inclusion.rep, "a", "c") == 1


def test_scomp_support_universal_property_sampled():
    rng = random.Random(61)
    for _ in range(30):
        ca, cb = _cells(rng)
        f = random_kernel(rng, Kind.STOCH, ca.object, cb.object)
        try:
            m = scomp_hom(ca, cb, f)
        except NotMember:
            cb = SuppCompCell(cb.object, compose(f, ca.anchor))
            m = scomp_hom(ca, cb, f)
        cell, inclusion = scomp_support(m)
        # m itself factors through the inclusion
        factor = scomp_hom(m.src, cell, m.rep)
        recomposed = scomp_compose(inclusion, factor)
        assert kernel_equal(recomposed.rep, m.rep)
        # an arbitrary dominated morphism factors as well: draw a source
        # cell whose pushforward lands inside the support of m's
        push = compose(m.rep, m.src.anchor)
        z = random_object(rng, 3, "z")
        g = random_kernel_supported_on(
            rng, Kind.STOCH, z, cb.object, list(support_indices(push))
        )
        anchor = random_kernel(rng, Kind.STOCH, random_object(rng, 2, "c"), z)
        src2 = SuppCompCell(z, anchor)
        dominated = scomp_hom(src2, cb, g)
        assert scomp_abs_cont(dominated, m)
        through = scomp_hom(src2, cell, g)
        assert kernel_equal(scomp_compose(inclusion, through).rep, dominated.rep)


def test_scomp_identity_on_support_cell():
    p = intro_state()
    cell = SuppCompCell(p.cod, p)
    ident = scomp_identity(cell)
    scell, _ = scomp_support(ident)
    assert scell.object == p.cod
    assert kernel_equal(scell.anchor, compose(ident.rep, p))


def test_scomp_copy_class_and_tensor_membership():
    rng = random.Random(67)
    for _ in range(20):
        ca, cb = _cells(rng)
        taa = scomp_tensor_cell(ca, ca)
        cop = scomp_hom(ca, taa, copy_kernel(ca.object))
        # comonoid laws on classes: counitality via marginalization
        from finmarkov import marginalize

        left = marginalize(cop.rep, ca.object.size, "right")
        assert ase_kernels(ca.anchor, left, identity(ca.object))
        # tensor respects membership
        f = random_kernel_supported_on(
            rng, Kind.STOCH, ca.object, cb.object, list(support_indices(cb.anchor))
        )
        m = scomp_hom(ca, cb, f)
        tbb = scomp_tensor_cell(cb, cb)
        f2 = random_kernel_supported_on(
            rng, Kind.STOCH, ca.object, cb.object, list(support_indices(cb.anchor))
        )
        m2 = scomp_hom(ca, cb, f2)
        assert scomp_hom(taa, tbb, tensor(m.rep, m2.rep)) is not None


def test_scomp_abs_cont_agrees_with_sampled_definition():
    # the formula verdict agrees with the behavior it promises: when it
    # holds, almost-sure equalities w.r.t. the dominating class transfer;
    # when it fails, a replayed indicator witness separates them
    rng = random.Random(71)
    for _ in range(100):
        x = random_object(rng, 4, "x")
        dst = SuppCompCell(x, identity(x))
        a1 = random_kernel(rng, Kind.STOCH, random_object(rng, 2, "a"), x)
        a2 = random_kernel(rng, Kind.STOCH, random_object(rng, 2, "b"), x)
        m1 = scomp_hom(SuppCompCell(x, a1), dst, identity(x))
        m2 = scomp_hom(SuppCompCell(x, a2), dst, identity(x))
        verdict = scomp_abs_cont(m1, m2)
        push1 = compose(m1.rep, a1)
        push2 = compose(m2.rep, a2)
        y = random_object(rng, 3, "y")
        h1 = random_kernel(rng, Kind.STOCH, x, y)
        h2 = perturb_off_support(h1, push2, seed=rng.randrange(2**30))
        assert ase_kernels(push2, h1, h2)
        if verdict:
            assert ase_kernels(push1, h1, h2)
        else:
            from finmarkov import refute_abs_cont

            witness = refute_abs_cont(push2, push1)
            assert witness is not None
            assert ase_kernels(push2, witness.low, witness.high)
            assert not ase_kernels(push1, witness.low, witness.high)


def test_scomp_copy_comonoid_laws():
    from finmarkov import marginalize, swap_kernel

    rng = random.Random(73)
    for _ in range(20):
        x = random_object(rng, 3, "x")
        p = random_kernel(rng, Kind.STOCH, random_object(rng, 2, "a"), x)
        cell = SuppCompCell(x, p)
        cop = scomp_hom(cell, scomp_tensor_cell(cell, cell), copy_kernel(x))
        # counitality on both sides (as almost-sure classes)
        left = marginalize(cop.rep, x.size, "left")
        right = marginalize(cop.rep, x.size, "right")
        assert ase_kernels(p, left, identity(x))
        assert ase_kernels(p, right, identity(x))
        # cocommutativity of the class
        assert ase_kernels(p, compose(swap_kernel(x, x), cop.rep), cop.rep)


def test_support_unsupported_for_signed():
    from finmarkov import UnsupportedKind
    from finmarkov.golden import signed_idempotent

    with pytest.raises(UnsupportedKind):
        support(signed_idempotent())


# ---------------------------------------------------------------------------
# construction decides the laws of supports and completion morphisms
# ---------------------------------------------------------------------------


def test_support_data_refuses_all_of_the_object_as_the_support_of_a_point_mass():
    # id_X∘δ_a = δ_a, but δ_a reaches only a, so X is not its support
    x = fin_object(("a", "b"))
    for kind in (Kind.STOCH, Kind.MULTI):
        point = delta_kernel(x, "a", kind)
        with pytest.raises(FactorizationFailed, match="factorization must reach every support element"):
            SupportData(point, x, identity(x, kind), point)


def test_support_data_refuses_a_support_object_that_is_not_the_inclusion_domain():
    sd = support(intro_state())
    with pytest.raises(FactorizationFailed, match="support object must be the inclusion's domain"):
        SupportData(sd.base, fin_object(("u", "v")), sd.inclusion, sd.factorization)


def test_support_data_refuses_a_signed_base():
    e = signed_idempotent()
    with pytest.raises(UnsupportedKind):
        SupportData(e, e.cod, identity(e.cod, Kind.SIGNED), e)


def test_supp_comp_morphism_decides_membership_and_stores_the_canonical_class():
    x = fin_object(("a", "b"))
    cell = SuppCompCell(x, delta_kernel(x, "a"))
    swap = function_kernel(x, x, [1, 0], Kind.STOCH)
    with pytest.raises(NotMember, match="pushforward puts mass at 'b' outside the target anchor"):
        SuppCompMorphism(cell, cell, swap)
    with pytest.raises(ShapeMismatch, match="kernel does not connect the given cells"):
        SuppCompMorphism(cell, cell, identity(fin_object(("a",))))
    assert SuppCompMorphism(cell, cell, identity(x)) == scomp_identity(cell)
    assert scomp_hom is SuppCompMorphism


def test_derived_supports_and_composites_run_no_check(monkeypatch):
    # support and split_support compose nothing, and scomp_compose only
    # composes the two representatives: membership is closed under composition
    rng = random.Random(61)
    calls = {"compose": 0, "refute_abs_cont": 0}

    def counted(name):
        real = getattr(supports, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for kind in (Kind.STOCH, Kind.MULTI):
        a, b, c = (random_object(rng, 4, prefix) for prefix in "abc")
        f, g = random_kernel(rng, kind, a, b), random_kernel(rng, kind, b, c)
        ca = SuppCompCell(a, random_kernel(rng, kind, UNIT, a))
        cb = SuppCompCell(b, compose(f, ca.anchor))
        m_f, m_g = scomp_hom(ca, cb, f), scomp_hom(cb, SuppCompCell(c, compose(g, cb.anchor)), g)
        with monkeypatch.context() as m:
            for name in calls:
                m.setattr(supports, name, counted(name))
            support(f)
            split_support(f)
            assert calls == {"compose": 0, "refute_abs_cont": 0}
            composite = scomp_compose(m_g, m_f)
            assert calls == {"compose": 1, "refute_abs_cont": 0}
        calls.update(compose=0)
        assert composite == scomp_hom(ca, m_g.dst, compose(g, f))
