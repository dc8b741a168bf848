"""Core kernel algebra: construction, validation, composition, tensor,
structural morphisms, marginalization, determinism."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finmarkov import (
    BadSplit,
    DomainMismatch,
    Kernel,
    Kind,
    KindMismatch,
    ShapeMismatch,
    UnknownLabel,
    ValidationError,
    compose,
    copy_kernel,
    delta_kernel,
    discard_kernel,
    fin_object,
    function_kernel,
    identity,
    is_deterministic,
    kernel_equal,
    associator,
    left_unitor,
    make_kernel,
    marginalize,
    multi_kernel,
    right_unitor,
    right_unitor_inv,
    swap_kernel,
    tensor,
    tensor_object,
    validate,
)
from finmarkov import cli
from finmarkov.kernel import UNIT, Violation, inclusion_kernel
from finmarkov.idempotents import random_class_idempotent, two_step
from finmarkov.rand import (
    random_deterministic_kernel,
    random_full_support_column,
    random_kernel,
    random_kernel_supported_on,
)
from oracles import (
    all_multi_kernels,
    deterministic_by_comonoid,
    deterministic_kernels,
    entry,
    kernel_refusal,
    random_object,
    raw_kernel,
)

F = Fraction
X3 = fin_object(("a", "b", "c"))
X2 = fin_object(("a", "b"))


def half_half_zero():
    return make_kernel(Kind.STOCH, UNIT, X3, [[F(1, 2)], [F(1, 2)], [0]])


def static_example():
    x = fin_object(("1", "2", "3"))
    return make_kernel(Kind.STOCH, x, x, [[1, 0, F(1, 2)], [0, 1, F(1, 2)], [0, 0, 0]])


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_stoch_column_law_violation_reported():
    bad = kernel_refusal(Kind.STOCH, fin_object(("a",)), X2, ((F(1, 2),), (F(1, 4),)))
    assert bad.column == 0
    assert "sums to 3/4" in bad.message


def test_signed_column_ok_where_stoch_fails():
    rows = ((F(2),), (F(-1),))
    obj = fin_object(("a",))
    assert validate(Kernel(Kind.SIGNED, obj, X2, rows)) is None
    assert kernel_refusal(Kind.STOCH, obj, X2, rows) == Violation(0, "column 0 has negative entry -1")


def test_multi_empty_image_is_violation():
    bad = kernel_refusal(Kind.MULTI, fin_object(("a",)), X2, ((False,), (False,)))
    assert "empty image" in bad.message


def test_make_kernel_rejects_floats_and_duplicate_labels():
    with pytest.raises(ValidationError):
        make_kernel(Kind.STOCH, UNIT, X2, [[0.5], [0.5]])
    with pytest.raises(ValidationError):
        fin_object(("a", "a"))


def test_constructor_rejects_float_stoch_entries():
    # used to construct and then break compose with an AttributeError
    with pytest.raises(ValidationError):
        Kernel(Kind.STOCH, UNIT, X2, [[0.5], [0.5]])
    with pytest.raises(ValidationError):
        Kernel(Kind.STOCH, UNIT, X2, [[True], [0]])


def test_constructor_rejects_float_signed_entries():
    with pytest.raises(ValidationError):
        Kernel(Kind.SIGNED, UNIT, X2, [[1.5], [F(-1, 2)]])
    with pytest.raises(ValidationError):
        Kernel(Kind.SIGNED, UNIT, X2, [[F(1)], ["0"]])


def test_constructor_rejects_non_bool_multi_entries():
    with pytest.raises(ValidationError):
        Kernel(Kind.MULTI, UNIT, X2, [[1.0], [False]])
    with pytest.raises(ValidationError):
        Kernel(Kind.MULTI, UNIT, X2, [[F(1)], [False]])
    # other ints too: [[2]] would keep a dense view of 2 while equal to [[True]]
    for v in (2, -1):
        with pytest.raises(ValidationError, match=f"multi entries must be bool, got {v}"):
            Kernel(Kind.MULTI, UNIT, X2, [[v], [False]])
    # 0/1 ints stay accepted, as bools
    assert Kernel(Kind.MULTI, UNIT, X2, [[1], [0]]) == Kernel(Kind.MULTI, UNIT, X2, [[True], [False]])


def test_reduced_form_equality():
    a = make_kernel(Kind.STOCH, UNIT, X2, [[F(1, 2)], [F(1, 2)]])
    b = make_kernel(Kind.STOCH, UNIT, X2, [[F(2, 4)], [F(1, 2)]])
    assert kernel_equal(a, b)


def test_kernel_equal_distinguishes_golden_examples():
    from finmarkov.golden import static_idempotent, strong_idempotent

    assert not kernel_equal(static_idempotent(), strong_idempotent())


def test_validate_names_a_value_longer_than_the_digit_cap_by_its_size():
    # both denominators have 14,285 bits, and only the first has at most 4,300 digits
    x2 = fin_object(("x", "y"))
    for den, text, negative_text in ((10**4300 - 1, f"1/{10**4300 - 1}", f"-1/{10**4300 - 1}"),
                                     (10**4300 + 1, "a fraction of 1 bits over 14285 bits",
                                      "a negative fraction of 1 bits over 14285 bits")):
        assert kernel_refusal(Kind.SIGNED, UNIT, x2, [[F(1, den)], [0]]) == Violation(0, f"column 0 sums to {text}")
        negative = kernel_refusal(Kind.STOCH, UNIT, x2, [[F(-1, den)], [1 + F(1, den)]])
        assert negative == Violation(0, f"column 0 has negative entry {negative_text}")


def test_empty_objects():
    empty = fin_object(())
    out_of_empty = make_kernel(Kind.STOCH, empty, X2, [[], []])
    assert validate(out_of_empty) is None
    assert kernel_refusal(Kind.STOCH, X2, empty, ()).column == 0


EMPTY = fin_object(())

# (kind, dom, cod, rows): int and Fraction entries, empty objects, all-zero
# columns, and Multi entries given as bools or as the ints 0 and 1
CONSTRUCTION_CASES = [
    (Kind.STOCH, X3, X3, [[F(1, 2), 0, 1], [F(2, 4), 0, F(0)], [0, 1, 0]]),
    (Kind.STOCH, X2, X3, [[F(1, 6), F(1, 3)], [F(1, 3), 0], [F(1, 2), F(2, 3)]]),
    (Kind.STOCH, EMPTY, X2, [[], []]),
    (Kind.STOCH, X2, EMPTY, []),
    (Kind.STOCH, EMPTY, EMPTY, []),
    (Kind.SIGNED, X2, X2, [[2, F(-1, 3)], [-1, F(4, 3)]]),
    (Kind.SIGNED, X3, X2, [[0, F(0), 1], [0, 0, 0]]),
    (Kind.SIGNED, X2, X2, [[F(0), 0], [0, F(0)]]),
    (Kind.SIGNED, EMPTY, X3, [[], [], []]),
    (Kind.MULTI, X2, X3, [[True, False], [True, True], [False, False]]),
    (Kind.MULTI, X3, X2, [[1, 0, 1], [0, 1, 1]]),
    (Kind.MULTI, X2, X2, [[1, False], [True, 0]]),
    (Kind.MULTI, EMPTY, X2, [[], []]),
    (Kind.MULTI, X2, EMPTY, []),
]


def _document(kind, dom, cod, rows):
    """The kernel document of dense rows: JSON integers for int entries,
    "n/d" strings for Fractions, images for Multi."""
    doc = {"kind": kind.value, "dom": list(dom.labels), "cod": list(cod.labels)}
    if kind is Kind.MULTI:
        doc["images"] = [[cod.labels[i] for i in range(cod.size) if rows[i][j]] for j in range(dom.size)]
    else:
        doc["matrix"] = [[v if type(v) is int else str(v) for v in row] for row in rows]
    return json.dumps(doc)


@pytest.mark.parametrize("kind,dom,cod,rows", CONSTRUCTION_CASES)
def test_kernel_has_its_stored_columns_from_construction(kind, dom, cod, rows):
    # rows off the column law: the constructor and the parser refuse them alike
    if validate(raw_kernel(kind, dom, cod, rows)) is not None:
        bad = kernel_refusal(kind, dom, cod, rows)
        with pytest.raises(cli.ParseError) as exc:
            cli.parse_kernel(_document(kind, dom, cod, rows))
        assert str(exc.value) == "validation failed: " + bad.message
        return
    k = Kernel(kind, dom, cod, rows)
    # read through the slot itself, so no lazy hook can fill it in
    columns = Kernel.columns.__get__(k)
    for slot in Kernel.__slots__:
        getattr(Kernel, slot).__get__(k)
    # the parser stores the same columns
    parsed = cli.parse_kernel(_document(kind, dom, cod, rows))
    assert columns == Kernel.columns.__get__(parsed)
    assert k == parsed and hash(k) == hash(parsed)
    for slot in Kernel.__slots__:
        getattr(Kernel, slot).__get__(parsed)
    # the given rows stay the dense view, entry types and all
    assert k.matrix == tuple(map(tuple, rows))
    assert [type(v) for row in k.matrix for v in row] == [type(v) for row in rows for v in row]


# ---------------------------------------------------------------------------
# composition and tensor
# ---------------------------------------------------------------------------


def test_static_example_composes_to_itself():
    e = static_example()
    assert kernel_equal(compose(e, e), e)


def test_compose_identity_left_right():
    rng = random.Random(7)
    f = random_kernel(rng, Kind.STOCH, X2, X3)
    assert kernel_equal(compose(identity(X3), f), f)
    assert kernel_equal(compose(f, identity(X2)), f)


def test_multi_upset_composes_to_itself():
    x = fin_object(("0", "1"))
    e = multi_kernel(x, x, [["0", "1"], ["1"]])
    assert kernel_equal(compose(e, e), e)


def test_compose_shape_and_kind_errors():
    f = identity(X2)
    g = identity(X3)
    with pytest.raises(DomainMismatch):
        compose(g, f)
    with pytest.raises(KindMismatch):
        compose(identity(X2, Kind.MULTI), f)


def test_tensor_of_states_puts_product_mass():
    p = half_half_zero()
    pp = tensor(p, p)
    assert pp.cod.size == 9
    for i, xi in enumerate(X3.labels):
        for j, yj in enumerate(X3.labels):
            expected = F(1, 4) if xi in ("a", "b") and yj in ("a", "b") else F(0)
            assert pp.matrix[i * 3 + j][0] == expected


def test_tensor_of_unit_identities():
    one = identity(UNIT)
    t = tensor(one, one)
    assert t.dom.size == 1 and kernel_equal(t, identity(t.dom))


def test_tensor_unit_law_up_to_relabeling():
    from finmarkov import right_unitor_inv

    rng = random.Random(3)
    f = random_kernel(rng, Kind.STOCH, X2, X3)
    lifted = tensor(f, identity(UNIT))
    back = compose(right_unitor(X3), compose(lifted, right_unitor_inv(X2)))
    assert kernel_equal(back, f)


# ---------------------------------------------------------------------------
# structural morphisms
# ---------------------------------------------------------------------------


def _assert_maps(k, target):
    """Column j of k holds the kind's one at row target(j) and its zero
    everywhere else, with the kind's scalar type."""
    zero, one = k.kind.zero, k.kind.one
    for j in range(k.dom.size):
        col = tuple(row[j] for row in k.matrix)
        assert col == tuple(one if i == target(j) else zero for i in range(k.cod.size))
        assert all(type(v) is type(one) for v in col)


def test_copy_matrix_shape():
    c = copy_kernel(X2)
    assert c.cod.size == 4
    assert entry(c, "(a,a)", "a") == 1 and entry(c, "(b,b)", "b") == 1
    assert entry(c, "(a,b)", "a") == 0 and entry(c, "(a,b)", "b") == 0
    for kind in Kind:
        for x in (fin_object(()), UNIT, X2, X3, fin_object("pqrs")):
            n = x.size
            _assert_maps(copy_kernel(x, kind), lambda j: j * n + j)
            _assert_maps(discard_kernel(x, kind), lambda j: 0)
            _assert_maps(identity(x, kind), lambda j: j)
            # unitors relabel (•,x) and (x,•) as x
            _assert_maps(left_unitor(x, kind), lambda j: j)
            _assert_maps(right_unitor(x, kind), lambda j: j)
            _assert_maps(right_unitor_inv(x, kind), lambda j: j)
            assert left_unitor(x, kind).dom.labels == tuple(f"(•,{a})" for a in x.labels)
            assert right_unitor_inv(x, kind).cod.labels == tuple(f"({a},•)" for a in x.labels)
            for i, label in enumerate(x.labels):
                _assert_maps(delta_kernel(x, label, kind), lambda j: i)
            for idx in ((), tuple(range(0, n, 2)), tuple(range(n - 1, -1, -1))):
                inc = inclusion_kernel(x, idx, kind)
                assert inc.dom.labels == tuple(x.labels[i] for i in idx)
                _assert_maps(inc, lambda j: idx[j])


def test_function_kernel_rejects_bad_targets():
    expected = make_kernel(Kind.STOCH, X2, X3, [[0, 1], [0, 0], [1, 0]])
    assert kernel_equal(function_kernel(X2, X3, [2, 0], Kind.STOCH), expected)
    for targets in ([0], [0, 1, 2], [0, 3], [0, -1]):
        with pytest.raises(ShapeMismatch):
            function_kernel(X2, X3, targets, Kind.STOCH)


def test_discard_absorbs_everything():
    rng = random.Random(11)
    for kind in Kind:
        f = random_kernel(rng, kind, X2, X3)
        assert kernel_equal(compose(discard_kernel(X3, kind), f), discard_kernel(X2, kind))


def test_delta_is_point_mass():
    d = delta_kernel(X3, "a")
    assert d.matrix == ((F(1),), (F(0),), (F(0),))
    with pytest.raises(UnknownLabel):
        delta_kernel(X3, "nope")


def test_swap_self_inverse():
    s = swap_kernel(X2, X3)
    s_back = swap_kernel(X3, X2)
    assert kernel_equal(compose(s_back, s), identity(tensor_object(X2, X3)))
    objects = (fin_object(()), UNIT, X2, X3)
    for kind in Kind:
        for x in objects:
            for y in objects:
                nx, ny = x.size, y.size
                # (x_j1, y_j2) at column j1·|Y|+j2 goes to (y_j2, x_j1) at row j2·|X|+j1
                s = swap_kernel(x, y, kind)
                _assert_maps(s, lambda j: (j % ny) * nx + j // ny)
                xy = tensor_object(x, y)
                assert kernel_equal(compose(swap_kernel(y, x, kind), s), identity(xy, kind))
                for z in objects:
                    nz = z.size
                    a = associator(x, y, z, kind)

                    def regroup(j):
                        j12, j3 = divmod(j, nz)
                        j1, j2 = divmod(j12, ny)
                        return j1 * (ny * nz) + (j2 * nz + j3)

                    _assert_maps(a, regroup)
                    for j in range(a.dom.size):
                        j12, j3 = divmod(j, nz)
                        j1, j2 = divmod(j12, ny)
                        u, v, w = x.labels[j1], y.labels[j2], z.labels[j3]
                        assert a.dom.labels[j] == f"(({u},{v}),{w})"
                        assert a.cod.labels[regroup(j)] == f"({u},({v},{w}))"


# ---------------------------------------------------------------------------
# marginalization
# ---------------------------------------------------------------------------


def test_marginalize_copy_recovers_state():
    p = half_half_zero()
    joint = compose(copy_kernel(X3), p)
    assert kernel_equal(marginalize(joint, 3, "right"), p)
    assert kernel_equal(marginalize(joint, 3, "left"), p)


def test_marginalize_two_step():
    e = static_example()
    ts = two_step(e)
    assert kernel_equal(marginalize(ts, 3, "right"), e)
    assert kernel_equal(marginalize(ts, 3, "left"), compose(e, e))


def test_marginalize_matches_discard_composition():
    rng = random.Random(23)
    f = random_kernel(rng, Kind.STOCH, X2, tensor_object(X2, X3))
    direct = marginalize(f, 2, "right")
    via_discard = compose(tensor(identity(X2), discard_kernel(X3)), f)
    assert kernel_equal(compose(right_unitor(X2), via_discard), direct)


def test_marginalize_bad_split():
    f = identity(X3)
    with pytest.raises(BadSplit):
        marginalize(f, 2, "right")


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_identity_deterministic():
    assert is_deterministic(identity(X3))


def test_uniform_mixing_not_deterministic():
    e = make_kernel(Kind.STOCH, X2, X2, [[F(1, 2)] * 2] * 2)
    assert not is_deterministic(e)


def test_multi_two_element_image_not_deterministic():
    x = fin_object(("0", "1"))
    e = multi_kernel(x, x, [["0", "1"], ["1"]])
    assert not is_deterministic(e)


def test_determinism_shortcut_matches_comonoid_equation_exhaustively():
    from itertools import product as iproduct

    for n, m in [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]:
        dom = fin_object(f"a{i}" for i in range(n))
        cod = fin_object(f"x{i}" for i in range(m))
        for k in deterministic_kernels(dom, cod):
            assert is_deterministic(k) and deterministic_by_comonoid(k)
        # every positivity pattern realized uniformly, covering the
        # non-point-mass columns as well
        for masks in iproduct(range(1, 2**m), repeat=n):
            cols = []
            for mask in masks:
                bits = [bool(mask >> i & 1) for i in range(m)]
                total = sum(bits)
                cols.append([F(1, total) if b else F(0) for b in bits])
            k = Kernel(
                Kind.STOCH, dom, cod, tuple(tuple(cols[j][i] for j in range(n)) for i in range(m))
            )
            assert is_deterministic(k) == deterministic_by_comonoid(k)
    # multi kernels exhaustively at size 2
    dom = fin_object(("a", "b"))
    for k in all_multi_kernels(dom, dom):
        assert is_deterministic(k) == deterministic_by_comonoid(k)


def test_determinism_shortcut_matches_comonoid_on_random_stochastic():
    rng = random.Random(5)
    for _ in range(150):
        dom = random_object(rng, 3, "a")
        cod = random_object(rng, 3, "x")
        k = random_kernel(rng, Kind.STOCH, dom, cod)
        assert is_deterministic(k) == deterministic_by_comonoid(k)


def test_deterministic_closed_under_compose_and_tensor():
    rng = random.Random(9)
    for _ in range(50):
        a = random_object(rng, 3, "a")
        b = random_object(rng, 3, "b")
        c = random_object(rng, 3, "c")
        from finmarkov.rand import random_deterministic_kernel

        f = random_deterministic_kernel(rng, Kind.STOCH, a, b)
        g = random_deterministic_kernel(rng, Kind.STOCH, b, c)
        assert is_deterministic(compose(g, f))
        assert is_deterministic(tensor(f, g))


# ---------------------------------------------------------------------------
# category, monoidal and comonoid laws (randomized; exhaustive suites live
# in the acceptance module)
# ---------------------------------------------------------------------------


@st.composite
def composable_triples(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    kind = draw(st.sampled_from(list(Kind)))
    rng = random.Random(seed)
    a = random_object(rng, 3, "a")
    b = random_object(rng, 3, "b")
    c = random_object(rng, 3, "c")
    d = random_object(rng, 3, "d")
    return (
        random_kernel(rng, kind, a, b),
        random_kernel(rng, kind, b, c),
        random_kernel(rng, kind, c, d),
    )


@settings(max_examples=60, deadline=None)
@given(composable_triples())
def test_composition_associative(triple):
    f, g, h = triple
    assert kernel_equal(compose(h, compose(g, f)), compose(compose(h, g), f))


@settings(max_examples=60, deadline=None)
@given(composable_triples())
def test_tensor_functorial(triple):
    f, g, _ = triple
    rng = random.Random(f.dom.size + 31 * g.cod.size)
    h = random_kernel(rng, f.kind, fin_object(("u", "v")), fin_object(("w",)))
    k = random_kernel(rng, f.kind, fin_object(("w",)), fin_object(("s", "t")))
    lhs = tensor(compose(g, f), compose(k, h))
    rhs = compose(tensor(g, k), tensor(f, h))
    assert kernel_equal(lhs, rhs)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(list(Kind)))
def test_comonoid_laws(seed, kind):
    rng = random.Random(seed)
    x = random_object(rng, 5, "x")
    cop = copy_kernel(x, kind)
    # cocommutativity
    assert kernel_equal(compose(swap_kernel(x, x, kind), cop), cop)
    # counitality on both sides
    from finmarkov import left_unitor

    left = compose(left_unitor(x, kind), compose(tensor(discard_kernel(x, kind), identity(x, kind)), cop))
    right = compose(right_unitor(x, kind), compose(tensor(identity(x, kind), discard_kernel(x, kind)), cop))
    assert kernel_equal(left, identity(x, kind))
    assert kernel_equal(right, identity(x, kind))
    # coassociativity
    from finmarkov import associator

    lhs = compose(tensor(cop, identity(x, kind)), cop)
    rhs = compose(tensor(identity(x, kind), cop), cop)
    assert kernel_equal(compose(associator(x, x, x, kind), lhs), rhs)


def test_multi_relational_composition_matches_boolean_matrix_product():
    # exhaustive at size 2: OR/AND matrix product against set-image composition
    x = fin_object(("0", "1"))
    for f in all_multi_kernels(x, x):
        images_f = [{i for i in range(2) if f.matrix[i][j]} for j in range(2)]
        for g in all_multi_kernels(x, x):
            images_g = [{i for i in range(2) if g.matrix[i][j]} for j in range(2)]
            composed = compose(g, f)
            for j in range(2):
                relational = set().union(*(images_g[y] for y in images_f[j]))
                assert {i for i in range(2) if composed.matrix[i][j]} == relational


def test_split_tensor_labels_nested():
    from finmarkov.kernel import split_tensor_labels

    x = fin_object(("a", "b"))
    y = fin_object(("u", "v", "w"))
    nested = tensor_object(tensor_object(x, y), x)
    left, right = split_tensor_labels(nested, 6)
    assert left == tensor_object(x, y)
    assert right == x
    # and the other association
    nested2 = tensor_object(x, tensor_object(y, x))
    left2, right2 = split_tensor_labels(nested2, 2)
    assert left2 == x and right2 == tensor_object(y, x)


def test_split_tensor_labels_rejects_non_grid():
    from finmarkov.kernel import split_tensor_labels

    with pytest.raises(BadSplit):
        split_tensor_labels(fin_object(("a", "b", "c", "d")), 2)
    # inconsistent grid
    with pytest.raises(BadSplit):
        split_tensor_labels(fin_object(("(a,u)", "(a,v)", "(b,u)", "(c,v)")), 2)
    with pytest.raises(BadSplit):
        split_tensor_labels(tensor_object(X2, X3), 4)


def test_seeded_draws_stay_the_same_in_every_kind():
    # seeded generators feed the tests and the benchmark's inputs, so a
    # fixed seed must keep giving the same kernels
    a, x = fin_object(("a0", "a1")), fin_object(("x0", "x1", "x2"))
    want = {
        Kind.STOCH: ((F(3, 8), F(1, 3)), (F(1, 8), F(1, 6)), (F(1, 2), F(1, 2))),
        Kind.SIGNED: ((F(0), F(1, 2)), (F(-1, 2), F(1, 4)), (F(3, 2), F(1, 4))),
        Kind.MULTI: ((False, False), (False, True), (True, False)),
    }
    for kind in Kind:
        k = random_kernel(random.Random(2024), kind, a, x)
        assert k.matrix == want[kind]
        assert all(type(v) is type(kind.one) for row in k.matrix for v in row)
    assert random_full_support_column(random.Random(2024), 3) == [F(4, 9), F(2, 9), F(1, 3)]


def _draws_digest(seed: int) -> str:
    """sha256 over everything the seeded generators return at one seed:
    labels, classes, transient states, stored columns and the repr of every
    dense entry, so a changed value or entry type changes the digest."""
    rng = random.Random(seed)
    out = []

    def note(k):
        out.append((k.kind.value, k.dom.labels, k.cod.labels, k.columns, [list(map(repr, row)) for row in k.matrix]))

    for n, m in ((0, 0), (0, 3), (1, 1), (3, 4), (5, 2), (6, 6)):
        a, x = fin_object(f"a{i}" for i in range(n)), fin_object(f"x{i}" for i in range(m))
        for kind in Kind:
            note(random_kernel(rng, kind, a, x))
            if m:
                note(random_deterministic_kernel(rng, kind, a, x))
                note(random_kernel_supported_on(rng, kind, a, x, sorted(rng.sample(range(m), 1 + m // 2))))
                note(random_kernel_supported_on(rng, kind, a, x, list(range(m))[::-2]))
    for n in (1, 2, 5, 8, 8):
        cs = random_class_idempotent(rng, fin_object(f"s{i}" for i in range(n)))
        out.append((cs.classes, cs.transient))
        note(cs.iota)
        note(cs.pi)
    return hashlib.sha256(repr(out).encode()).hexdigest()


def test_seeded_generators_draw_the_same_at_the_benchmark_seeds():
    # the benchmark builds its inputs through these generators at seeds 1
    # and 7, so a changed draw would change every workload
    assert _draws_digest(1) == "2aced1144ef2ee7b4a76b8fd550675b435499a5b29acaf96b96fe9855ada4f50"
    assert _draws_digest(7) == "b3538ee7c4a22c4e262d4e069f876e9024ac86ffda3c985463dd00204b7732dc"
