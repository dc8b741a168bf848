"""Input-output relation, parametric kernels, conditionals."""

import random
from fractions import Fraction

import pytest

import finmarkov.functors as functors
from finmarkov import (
    Kind,
    NotAConditional,
    ParamMismatch,
    UnsupportedKind,
    comparison_base,
    compose,
    conditional,
    copy_kernel,
    discard_kernel,
    fin_object,
    identity,
    io_relation,
    kernel_equal,
    make_kernel,
    param_compose,
    param_copy,
    param_discard,
    param_identity,
    param_lift,
    param_tensor,
    perturb_off_support,
    right_unitor_inv,
    tensor,
    tensor_object,
    upsilon_check,
    verify_conditional_unique,
)
from finmarkov.golden import balanced_idempotent, static_idempotent
from finmarkov.kernel import UNIT, _kernel, support_indices
from finmarkov.rand import random_deterministic_kernel, random_kernel, random_kernel_supported_on
from oracles import conditional_rebuilds, entry, param_equal, random_object

F = Fraction


# ---------------------------------------------------------------------------
# input-output relation
# ---------------------------------------------------------------------------


def test_io_relation_of_static_example():
    rel = io_relation(static_idempotent())
    assert rel.kind is Kind.MULTI
    images = {
        lbl: {rel.cod.labels[i] for i in range(3) if rel.matrix[i][j]}
        for j, lbl in enumerate(rel.dom.labels)
    }
    assert images == {"1": {"1"}, "2": {"2"}, "3": {"1", "2"}}


def test_io_relation_of_deterministic_kernel_is_graph():
    rng = random.Random(3)
    for _ in range(20):
        a = random_object(rng, 4, "a")
        x = random_object(rng, 4, "x")
        f = random_deterministic_kernel(rng, Kind.STOCH, a, x)
        rel = io_relation(f)
        for j in range(a.size):
            assert sum(1 for i in range(x.size) if rel.matrix[i][j]) == 1


def test_io_relation_identity_functor_law():
    x = fin_object(("a", "b", "c"))
    assert kernel_equal(io_relation(identity(x)), identity(x, Kind.MULTI))


def test_io_relation_rejects_non_stochastic():
    x = fin_object(("a",))
    with pytest.raises(UnsupportedKind):
        io_relation(identity(x, Kind.MULTI))


def test_relation_functor_laws_random():
    rng = random.Random(7)
    for _ in range(150):
        a = random_object(rng, 5, "a")
        x = random_object(rng, 5, "x")
        y = random_object(rng, 5, "y")
        p = random_kernel(rng, Kind.STOCH, a, x)
        g = random_kernel(rng, Kind.STOCH, x, y)
        check = upsilon_check(p, g)
        assert check.composition_ok and check.tensor_ok and check.copy_ok


def test_relation_functor_exhaustive_patterns_size_2():
    # exhaustive over positivity patterns at size 2, realized uniformly
    from itertools import product

    a = fin_object(("a0", "a1"))
    x = fin_object(("x0", "x1"))
    y = fin_object(("y0", "y1"))

    def realizations(dom, cod):
        out = []
        for masks in product((1, 2, 3), repeat=dom.size):
            cols = []
            for m in masks:
                bits = [bool(m >> i & 1) for i in range(cod.size)]
                total = sum(bits)
                cols.append([F(1, total) if b else F(0) for b in bits])
            rows = tuple(tuple(cols[j][i] for j in range(dom.size)) for i in range(cod.size))
            from finmarkov import Kernel

            out.append(Kernel(Kind.STOCH, dom, cod, rows))
        return out

    for p in realizations(a, x):
        for g in realizations(x, y):
            assert kernel_equal(io_relation(compose(g, p)), compose(io_relation(g), io_relation(p)))


def test_balanced_example_relation_idempotent():
    e = balanced_idempotent()
    rel = io_relation(e)
    assert kernel_equal(io_relation(compose(e, e)), compose(rel, rel))


def test_point_liftings_make_images_total():
    # every output reached by the kernel is reached from some single input
    rng = random.Random(11)
    for _ in range(40):
        p = random_kernel(rng, Kind.STOCH, random_object(rng, 4, "a"), random_object(rng, 4, "x"))
        rel = io_relation(p)
        from finmarkov import validate

        assert validate(rel) is None
        for i in support_indices(p):
            assert any(rel.matrix[i][j] for j in range(p.dom.size))


# ---------------------------------------------------------------------------
# parametric kernels
# ---------------------------------------------------------------------------


def test_param_lift_preserves_identities_and_composition():
    rng = random.Random(13)
    w = fin_object(("w0", "w1"))
    for _ in range(30):
        a = random_object(rng, 3, "a")
        x = random_object(rng, 3, "x")
        y = random_object(rng, 3, "y")
        f = random_kernel(rng, Kind.STOCH, a, x)
        g = random_kernel(rng, Kind.STOCH, x, y)
        lifted = param_compose(param_lift(g, w), param_lift(f, w))
        assert param_equal(lifted, param_lift(compose(g, f), w))
    assert param_equal(param_lift(identity(fin_object(("a",))), w), param_identity(w, fin_object(("a",))))


def test_param_lift_preserves_copy_discard():
    w = fin_object(("w0", "w1", "w2"))
    a = fin_object(("a0", "a1"))
    assert param_equal(param_lift(copy_kernel(a), w), param_copy(w, a))
    assert param_equal(param_lift(discard_kernel(a), w), param_discard(w, a))


def test_param_compose_with_identity():
    rng = random.Random(17)
    w = fin_object(("w0", "w1"))
    a = fin_object(("a0", "a1", "a2"))
    x = fin_object(("x0", "x1"))
    inner = random_kernel(rng, Kind.STOCH, tensor_object(w, a), x)
    from finmarkov import ParamMorphism

    f = ParamMorphism(w, a, x, inner)
    assert param_equal(param_compose(param_identity(w, x), f), f)
    assert param_equal(param_compose(f, param_identity(w, a)), f)


def test_param_compose_unit_parameter_reduces_to_composition():
    rng = random.Random(19)
    a = fin_object(("a0", "a1"))
    x = fin_object(("x0", "x1", "x2"))
    y = fin_object(("y0",))
    f = random_kernel(rng, Kind.STOCH, a, x)
    g = random_kernel(rng, Kind.STOCH, x, y)
    pf, pg = param_lift(f, UNIT), param_lift(g, UNIT)
    composite = param_compose(pg, pf)
    plain = compose(composite.inner, _unit_in(a))
    assert kernel_equal(plain, compose(g, f))


def _unit_in(a):
    """A → I⊗A relabeling."""
    from finmarkov.kernel import function_kernel, tensor_object as to, UNIT

    return function_kernel(a, to(UNIT, a), range(a.size), Kind.STOCH)


def test_param_associativity_random():
    rng = random.Random(23)
    from finmarkov import ParamMorphism

    for _ in range(40):
        w = random_object(rng, 3, "w")
        a, b, c, d = (random_object(rng, 3, ch) for ch in "abcd")
        f = ParamMorphism(w, a, b, random_kernel(rng, Kind.STOCH, tensor_object(w, a), b))
        g = ParamMorphism(w, b, c, random_kernel(rng, Kind.STOCH, tensor_object(w, b), c))
        h = ParamMorphism(w, c, d, random_kernel(rng, Kind.STOCH, tensor_object(w, c), d))
        assert param_equal(
            param_compose(h, param_compose(g, f)), param_compose(param_compose(h, g), f)
        )


def test_param_comonoid_laws_and_interchange():
    rng = random.Random(29)
    from finmarkov import ParamMorphism

    for _ in range(20):
        w = random_object(rng, 3, "w")
        a = random_object(rng, 3, "a")
        # counitality of the parametric copy
        cop = param_copy(w, a)
        left = param_compose(
            _param_marg(w, a, "left"), cop
        )
        right = param_compose(_param_marg(w, a, "right"), cop)
        ident = param_identity(w, a)
        assert param_equal(left, ident) and param_equal(right, ident)
        # discard naturality
        x = random_object(rng, 3, "x")
        f = ParamMorphism(w, a, x, random_kernel(rng, Kind.STOCH, tensor_object(w, a), x))
        assert param_equal(param_compose(param_discard(w, x), f), param_discard(w, a))
        # interchange: (g∘f)⊗(k∘h) = (g⊗k)∘(f⊗h)
        b = random_object(rng, 2, "b")
        y = random_object(rng, 2, "y")
        z = random_object(rng, 2, "z")
        u = random_object(rng, 2, "u")
        g = ParamMorphism(w, x, b, random_kernel(rng, Kind.STOCH, tensor_object(w, x), b))
        h = ParamMorphism(w, y, z, random_kernel(rng, Kind.STOCH, tensor_object(w, y), z))
        k = ParamMorphism(w, z, u, random_kernel(rng, Kind.STOCH, tensor_object(w, z), u))
        lhs = param_tensor(param_compose(g, f), param_compose(k, h))
        rhs = param_compose(param_tensor(g, k), param_tensor(f, h))
        assert param_equal(lhs, rhs)


def _param_marg(w, a, side):
    """Parametric marginalization A⊗A → A discarding one factor."""
    from finmarkov import ParamMorphism
    from finmarkov.kernel import tensor_object as to

    kind = Kind.STOCH
    if side == "left":
        ker = compose(
            tensor(discard_kernel(a, kind), identity(a, kind)), identity(to(a, a), kind)
        )
        from finmarkov import left_unitor

        ker = compose(left_unitor(a, kind), ker)
    else:
        from finmarkov import right_unitor

        ker = compose(
            right_unitor(a, kind), tensor(identity(a, kind), discard_kernel(a, kind))
        )
    return param_lift(ker, w)


def test_param_mismatch_error():
    w1 = fin_object(("w0",))
    w2 = fin_object(("v0",))
    a = fin_object(("a0",))
    with pytest.raises(ParamMismatch):
        param_compose(param_identity(w1, a), param_identity(w2, a))


# ---------------------------------------------------------------------------
# conditionals
# ---------------------------------------------------------------------------


def _product_joint():
    from finmarkov import Kernel

    x = fin_object(("x0", "x1"))
    y = fin_object(("y0", "y1", "y2"))
    p = make_kernel(Kind.STOCH, UNIT, x, [[F(1, 2)], [F(1, 2)]])
    q = make_kernel(Kind.STOCH, UNIT, y, [[F(1, 6)], [F(1, 3)], [F(1, 2)]])
    joint = tensor(p, q)
    # reshape the I⊗I domain to I
    return Kernel(Kind.STOCH, UNIT, joint.cod, joint.matrix), p, q, x, y


def test_conditional_of_product_is_second_factor():
    joint, p, q, x, y = _product_joint()
    cond = conditional(joint, split=2)
    for xi in range(2):
        for yi in range(3):
            assert cond.matrix[yi][xi * 1 + 0] == q.matrix[yi][0]


def test_conditional_of_copied_state_is_point_mass():
    x = fin_object(("a", "b", "c"))
    p = make_kernel(Kind.STOCH, UNIT, x, [[F(1, 2)], [F(1, 2)], [0]])
    joint = compose(copy_kernel(x), p)
    cond = conditional(joint, split=3)
    # on the support the conditional is the point mass at the conditioned value
    assert entry(cond, "a", "(a,•)") == 1
    assert entry(cond, "b", "(b,•)") == 1
    # off support: canonical point mass on the first element
    assert entry(cond, "a", "(c,•)") == 1


def test_perfectly_correlated_joint_gives_identity():
    x = fin_object(("0", "1"))
    joint = make_kernel(
        Kind.STOCH, UNIT, tensor_object(x, x), [[F(1, 2)], [0], [0], [F(1, 2)]]
    )
    cond = conditional(joint, split=2)
    back = compose(cond, right_unitor_inv(x))
    assert kernel_equal(back, identity(x))


def test_conditional_reconstruction_random():
    rng = random.Random(31)
    for _ in range(100):
        a = random_object(rng, 3, "a")
        x = random_object(rng, 3, "x")
        y = random_object(rng, 3, "y")
        joint = random_kernel(rng, Kind.STOCH, a, tensor_object(x, y))
        cond = conditional(joint, split=x.size)
        assert conditional_rebuilds(joint, cond, x.size)


def test_conditional_of_empty_joint_is_a_bad_split():
    # an empty codomain has no recoverable factors
    from finmarkov import BadSplit

    empty = fin_object(())
    with pytest.raises(BadSplit):
        conditional(make_kernel(Kind.STOCH, empty, empty, []), split=1)


def test_conditional_unsupported_kind():
    x = fin_object(("0", "1"))
    m = identity(tensor_object(x, x), Kind.MULTI)
    with pytest.raises(UnsupportedKind):
        conditional(m, split=2)


def test_conditional_uniqueness_off_support_freedom():
    rng = random.Random(37)
    for _ in range(40):
        a = random_object(rng, 2, "a")
        x = random_object(rng, 3, "x")
        y = random_object(rng, 3, "y")
        joint = random_kernel(rng, Kind.STOCH, a, tensor_object(x, y))
        c1 = conditional(joint, split=x.size)
        base = comparison_base(joint, x.size)
        c2 = perturb_off_support(c1, base, seed=rng.randrange(2**30))
        assert verify_conditional_unique(joint, c1, c2)


def test_conditional_uniqueness_rejects_on_support_tampering():
    x = fin_object(("0", "1"))
    y = fin_object(("u", "v"))
    joint = make_kernel(
        Kind.STOCH,
        UNIT,
        tensor_object(x, y),
        [[F(1, 4)], [F(1, 4)], [F(1, 8)], [F(3, 8)]],
    )
    c1 = conditional(joint, split=2)
    cols = [list(col) for col in zip(*c1.matrix)]
    cols[0] = [F(1), F(0)]  # tamper where the marginal mass is positive
    from finmarkov import Kernel

    c2 = Kernel(Kind.STOCH, c1.dom, c1.cod, tuple(tuple(cols[j][i] for j in range(c1.dom.size)) for i in range(2)))
    with pytest.raises(NotAConditional):
        verify_conditional_unique(joint, c1, c2)


def test_conditional_uniqueness_builds_no_kernel(monkeypatch):
    # the verdict is read off the stored columns of the joint and the candidates
    rng = random.Random(43)
    a, x, y = (fin_object(f"{p}{i}" for i in range(n)) for p, n in (("a", 3), ("x", 3), ("y", 2)))
    joint = random_kernel_supported_on(rng, Kind.STOCH, a, tensor_object(x, y), [0, 1, 4, 5])
    c1 = conditional(joint, split=x.size)
    c2 = perturb_off_support(c1, comparison_base(joint, x.size), seed=5)
    assert c1 != c2
    # (x0, a0) has positive marginal mass; move its column to a point mass it is not
    point = next(col for col in ((1, ((0, 1),)), (1, ((1, 1),))) if col != c1.columns[0])
    tampered = _kernel(Kind.STOCH, c1.dom, c1.cod, (point,) + c1.columns[1:])

    def fail(*args):
        raise AssertionError("verify_conditional_unique built a kernel")

    for name in ("compose", "pair", "marginalize", "comparison_base", "function_kernel", "_kernel"):
        monkeypatch.setattr(functors, name, fail)
    assert verify_conditional_unique(joint, c1, c2) and verify_conditional_unique(joint, c2, c1, x.size)
    with pytest.raises(NotAConditional):
        verify_conditional_unique(joint, c1, tampered)


def test_conditional_unique_trivially_for_same_candidate():
    rng = random.Random(41)
    a = random_object(rng, 2, "a")
    x = random_object(rng, 2, "x")
    y = random_object(rng, 3, "y")
    joint = random_kernel(rng, Kind.STOCH, a, tensor_object(x, y))
    c1 = conditional(joint, split=x.size)
    assert verify_conditional_unique(joint, c1, c1)
