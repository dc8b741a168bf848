"""Idempotent taxonomy, characterizations, Blackwell splitting, block
splitting against an exhaustive search, Cauchy-Schwarz instances."""

import itertools
import random
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finmarkov import (
    FinMarkovError,
    Kernel,
    Kind,
    ShapeMismatch,
    UnsupportedKind,
    NoSplitUpTo,
    ValidationError,
    NotASplitting,
    NotEndo,
    NotIdempotent,
    abs_cont,
    ase_kernels,
    balanced_cross_check,
    blackwell_split,
    cauchy_schwarz,
    classify,
    compose,
    copy_kernel,
    delta_kernel,
    fin_object,
    identity,
    io_relation,
    is_deterministic,
    kernel_equal,
    make_kernel,
    marginalize,
    multi_kernel,
    pair,
    perturb_off_support,
    random_class_idempotent,
    search_split,
    split_support,
    support,
    tensor,
    two_step,
    validate,
    verify_split,
)
from finmarkov.golden import (
    balanced_idempotent,
    balanced_split,
    multi_chain3_idempotent,
    multi_upset_idempotent,
    signed_idempotent,
    static_idempotent,
    static_split,
    strong_idempotent,
    strong_split,
)
from finmarkov import idempotents
from finmarkov.idempotents import CauchySchwarzInstance, IdempotentReport, StructureViolation
from finmarkov.kernel import UNIT, support_indices
from finmarkov.rand import random_kernel, random_kernel_supported_on
from oracles import (
    all_multi_kernels,
    cauchy_schwarz_by_sums,
    class_decomposition,
    classify_by_columns,
    classify_by_scan,
    kernel_refusal,
    random_object,
    raw_kernel,
)

F = Fraction


# ---------------------------------------------------------------------------
# two-step chain
# ---------------------------------------------------------------------------


def test_two_step_uniform_mixing():
    e = strong_idempotent()
    ts = two_step(e)
    assert all(v == F(1, 4) for row in ts.matrix for v in row)


def test_two_step_identity_is_copy():
    x = fin_object(("a", "b", "c"))
    assert kernel_equal(two_step(identity(x)), copy_kernel(x))


def test_two_step_marginals():
    for e in (strong_idempotent(), static_idempotent(), balanced_idempotent()):
        ts = two_step(e)
        assert kernel_equal(marginalize(ts, e.dom.size, "right"), e)
        assert kernel_equal(marginalize(ts, e.dom.size, "left"), compose(e, e))


def test_two_step_requires_endo():
    f = delta_kernel(fin_object(("a", "b")), "a")
    with pytest.raises(NotEndo):
        two_step(f)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_strong_example():
    r = classify(strong_idempotent())
    assert (r.idempotent, r.static, r.strong, r.balanced) == (True, False, True, True)
    assert not r.deterministic


def test_classify_static_example():
    r = classify(static_idempotent())
    assert (r.idempotent, r.static, r.strong, r.balanced) == (True, True, False, True)


def test_classify_balanced_example():
    r = classify(balanced_idempotent())
    assert (r.idempotent, r.static, r.strong, r.balanced) == (True, False, False, True)


def test_classify_identity():
    x = fin_object(("a", "b"))
    r = classify(identity(x))
    assert r.deterministic and r.static and r.strong and r.balanced


def test_classify_non_idempotent_all_false():
    x = fin_object(("a", "b"))
    rot = make_kernel(Kind.STOCH, x, x, [[0, 1], [1, 0]])
    r = classify(rot)
    assert not r.idempotent
    assert not (r.deterministic or r.static or r.strong or r.balanced)
    assert r.witnesses["idempotent"] == ("a", "a")


def test_classify_multi_upset_witness():
    r = classify(multi_upset_idempotent())
    assert r.idempotent and not r.balanced
    assert r.witnesses["balanced"] == ("0", "0", "1")


def test_classify_signed_witness():
    r = classify(signed_idempotent())
    assert r.idempotent and not r.balanced
    assert r.witnesses["balanced"] == ("a", "a", "b")


def test_classify_chain3():
    r = classify(multi_chain3_idempotent())
    assert r.idempotent and not r.balanced


def test_every_classifying_operation_refuses_an_endomorphism_off_the_column_law():
    # no such endomorphism reaches classify, the splits, the cross-check or
    # an envelope cell: Kernel(...) refuses each with ValidationError and
    # the message `validate` gives
    x = fin_object(("a", "b"))
    off_law = [
        (Kind.STOCH, [[2, 2], [-1, -1]]),
        (Kind.STOCH, [[1, 0], [0, 0]]),
        (Kind.MULTI, [[False, False], [False, False]]),
        (Kind.SIGNED, [[-1, 0], [0, -1]]),
    ]
    assert [kernel_refusal(kind, x, x, rows).message for kind, rows in off_law] == [
        "column 0 has negative entry -1", "column 1 sums to 0", "column 0 has empty image", "column 0 sums to -1"]


# ---------------------------------------------------------------------------
# the class test against the column scan and the dense scan
# ---------------------------------------------------------------------------


def _verdict(fn, e):
    """Flags and witnesses in insertion order, or the error type and message."""
    try:
        r = fn(e)
    except FinMarkovError as exc:
        return type(exc).__name__, str(exc)
    return r.flags(), list(r.witnesses.items())


def _same_verdicts(e):
    """Within the column law classify agrees with both scans, and a
    stochastic idempotent splits as Tarjan's closed classes say; off the
    law ``Kernel(...)`` refuses e's rows with `validate`'s message.  The
    idempotent flag within the law, None off it."""
    if validate(e) is not None:
        kernel_refusal(e.kind, e.dom, e.cod, e.matrix)
        return None
    got = _verdict(classify, e)
    assert got == _verdict(classify_by_columns, e) == _verdict(classify_by_scan, e), e.columns
    idempotent = got[0]["idempotent"]
    if idempotent:
        assert blackwell_split(e) == class_decomposition(e)
    return idempotent


ENTRIES = (0, F(1, 3), F(1, 2), F(2, 3), 1)


def test_class_test_matches_the_scans_on_every_small_stochastic_endomorphism():
    # every matrix over ENTRIES with n ≤ 2, in the column law or off it, and
    # every one with n = 3 whose columns sum to one
    verdicts = []
    for n in range(3):
        x = fin_object(f"s{i}" for i in range(n))
        for cells in itertools.product(ENTRIES, repeat=n * n):
            verdicts.append(_same_verdicts(raw_kernel(Kind.STOCH, x, x, [cells[i * n:(i + 1) * n] for i in range(n)])))
    x = fin_object(("s0", "s1", "s2"))
    columns = [c for c in itertools.product(ENTRIES, repeat=3) if sum(c) == 1]
    for cols in itertools.product(columns, repeat=3):
        verdicts.append(_same_verdicts(Kernel(Kind.STOCH, x, x, list(zip(*cols)))))
    # lawful idempotents; off the law, 4 of the 5 matrices with n = 1 and 600 of the 625 with n = 2
    assert (len(columns), verdicts.count(True), verdicts.count(None)) == (13, 46, 604)


@st.composite
def class_idempotents_and_neighbours(draw):
    """A class idempotent with n ≤ 8, as drawn or with one cell moved between
    rows, one column scaled off the law, a zero column, or a transient column
    (any column when none is transient) replaced by a random mixture of the
    reached elements, which is rarely proportional on each class."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 8))
    x = fin_object(f"s{i}" for i in range(n))
    structure = random_class_idempotent(rng, x)
    rows = [list(row) for row in structure.idempotent.matrix]
    change = draw(st.sampled_from(("none", "move", "scale", "zero", "mixture")))
    transient = [x.index(label) for label in structure.transient]
    j = draw(st.sampled_from(transient)) if change == "mixture" and transient else draw(st.integers(0, n - 1))
    column = [row[j] for row in rows]
    if change == "move" and n > 1:
        y = draw(st.sampled_from([y for y in range(n) if column[y]]))
        z = draw(st.integers(0, n - 1).filter(lambda z: z != y))
        column[y], column[z] = F(0), column[z] + column[y]
    elif change == "scale":
        factor = draw(st.sampled_from((F(1, 2), F(3, 2), 2)))
        column = [v * factor for v in column]
    elif change == "zero":
        column = [F(0)] * n
    elif change == "mixture":
        reached = [y for y in range(n) if any(rows[y])]
        weights = random_kernel(rng, Kind.STOCH, UNIT, fin_object(f"r{y}" for y in reached)).matrix
        column = [F(0)] * n
        for y, (w,) in zip(reached, weights):
            column[y] = w
    for row, v in zip(rows, column):
        row[j] = v
    return raw_kernel(Kind.STOCH, x, x, rows)


@settings(max_examples=300, deadline=None)
@given(class_idempotents_and_neighbours())
def test_class_test_matches_the_scans_on_class_idempotents_and_their_neighbours(e):
    _same_verdicts(e)


def _late_neighbour(rng, kind, n):
    """An idempotent on n elements with one column x ≥ 1 changed at a deep
    row r ≥ n/2, within the column law.  Over Stoch a class idempotent with
    half of a stored cell moved between r and another row; over Signed a
    shear conjugate T∘e∘T⁻¹ of one (T adds t·(δ_a − δ_b) to column c,
    keeping column sums) with s moved from a row to r; over Multi the
    support relation of one, whose images are unions of its blocks, with r
    put in or taken out."""
    x = fin_object(f"s{i}" for i in range(n))
    e = random_class_idempotent(rng, x).idempotent
    rows = [list(row) for row in e.matrix]
    if kind is Kind.SIGNED:
        a, b = rng.sample(range(n), 2)
        c, t = rng.randrange(n), rng.choice((F(-2), F(-1, 2), F(1, 2), F(3)))
        u = [int(i == a) - int(i == b) for i in range(n)]
        shear = [[F(int(i == j)) + t * u[i] * (j == c) for j in range(n)] for i in range(n)]
        inverse = [[F(int(i == j)) - t * u[i] * (j == c) / (1 + t * u[c]) for j in range(n)] for i in range(n)]
        shear, inverse, e = (Kernel(Kind.SIGNED, x, x, m) for m in (shear, inverse, rows))
        rows = [list(row) for row in compose(shear, compose(e, inverse)).matrix]
    elif kind is Kind.MULTI:
        rows = [[bool(v) for v in row] for row in rows]
    j, r = rng.randrange(1, n), rng.randrange(n // 2, n)
    column = [row[j] for row in rows]
    if kind is Kind.MULTI:
        column[r] = not column[r] or sum(column) == 1
    else:
        y = rng.choice([y for y in range(n) if y != r and (column[y] or column[r] or kind is Kind.SIGNED)])
        s = rng.choice((F(-1, 2), F(1, 3), F(2))) if kind is Kind.SIGNED else (column[y] or -column[r]) / 2
        column[y], column[r] = column[y] - s, column[r] + s
    for row, v in zip(rows, column):
        row[j] = v
    return Kernel(kind, x, x, rows)


def test_classify_finds_late_witnesses_as_both_scans_do():
    # e∘e is checked column by column over each column's own lcd; a change at
    # a column x ≥ 1 and a deep row must still give the scans' first witness
    rng = random.Random(32)
    late = dict.fromkeys(Kind, 0)  # non-idempotents witnessed at x ≥ 1 and a row ≥ n/2
    for kind in Kind:
        for _ in range(40):
            e = _late_neighbour(rng, kind, rng.randrange(2, 13))
            got = _verdict(classify, e)
            assert got == _verdict(classify_by_columns, e) == _verdict(classify_by_scan, e), e.columns
            if not got[0]["idempotent"]:
                x, y = (int(label[1:]) for label in got[1][0][1])
                late[kind] += x >= 1 and y >= e.dom.size // 2
    assert all(late.values()), late
    # signed: (e∘e)(s6) = 2·e(s6) − e(s9) cancels at its own row s6, where e(s6) is 2
    x = fin_object(f"s{i}" for i in range(12))
    rows = [[F(int(i == j)) for j in range(12)] for i in range(12)]
    rows[6][6], rows[9][6] = F(2), F(-1)  # e(s6) = 2·δ6 − δ9
    rows[9][9], rows[6][9], rows[11][9] = F(0), F(4), F(-3)  # e(s9) = 4·δ6 − 3·δ11, a fixed column
    e = Kernel(Kind.SIGNED, x, x, rows)
    assert compose(e, e).matrix[6][6] == 0
    got = _verdict(classify, e)
    assert got == _verdict(classify_by_columns, e) == _verdict(classify_by_scan, e)
    assert got[1] == [("idempotent", ("s6", "s6"))]


def test_classify_reads_a_stochastic_idempotent_within_the_law_without_the_scans(monkeypatch):
    calls = []
    scan = idempotents._sum_difference
    monkeypatch.setattr(idempotents, "_sum_difference", lambda *args: calls.append(args) or scan(*args))
    rng = random.Random(21)
    kernels = [static_idempotent(), strong_idempotent(), balanced_idempotent(), identity(fin_object("ab"))]
    kernels += [random_class_idempotent(rng, random_object(rng, 8, "s")).idempotent for _ in range(20)]
    idempotents._classify_cached.cache_clear()
    try:
        assert all(classify(e).idempotent for e in kernels)
    finally:
        idempotents._classify_cached.cache_clear()
    assert calls == []


# ---------------------------------------------------------------------------
# alternative characterizations of balance
# ---------------------------------------------------------------------------


def test_cross_check_on_golden_examples():
    for e in (strong_idempotent(), static_idempotent(), balanced_idempotent()):
        cc = balanced_cross_check(e)
        assert cc.all() == (True, True, True, True)


def test_cross_check_multi_and_signed_all_false():
    for e in (multi_upset_idempotent(), signed_idempotent(), multi_chain3_idempotent()):
        cc = balanced_cross_check(e)
        assert cc.all() == (False, False, False, False)


def test_cross_check_reads_strong_almost_surely_off_ase(monkeypatch):
    # reading (iii) is the verdict of ase_kernels(e, two-step joint, ⟨e, e⟩),
    # and only that reading
    monkeypatch.setattr(idempotents, "ase_kernels", lambda p, f, g: False)
    for e in (strong_idempotent(), static_idempotent(), balanced_idempotent()):
        assert balanced_cross_check(e).all() == (True, True, False, True)


def test_cross_check_requires_idempotent():
    x = fin_object(("a", "b"))
    rot = make_kernel(Kind.STOCH, x, x, [[0, 1], [1, 0]])
    with pytest.raises(NotIdempotent):
        balanced_cross_check(rot)


def test_cross_check_agrees_on_random_idempotents():
    rng = random.Random(5)
    for _ in range(60):
        x = random_object(rng, 6, "s")
        e = random_class_idempotent(rng, x).idempotent
        cc = balanced_cross_check(e)
        assert len(set(cc.all())) == 1
        assert cc.defining == classify(e).balanced


def test_cross_check_pairs_one_state_per_distinct_column(monkeypatch):
    # reading (iv) tests the span of the columns, so a repeated column is tested once
    states, real = [], idempotents._kernel
    monkeypatch.setattr(idempotents, "_kernel", lambda *args: states.append(args[-1]) or real(*args))
    e = random_class_idempotent(random.Random(5), fin_object(str(i) for i in range(8))).idempotent
    assert len(set(e.columns)) < e.dom.size
    assert balanced_cross_check(e).all() == (True, True, True, True)
    assert states == [(col,) for col in dict.fromkeys(e.columns)]


def test_static_flag_matches_almost_sure_determinism():
    # an idempotent is static iff it is deterministic almost surely
    # w.r.t. itself
    examples = [strong_idempotent(), static_idempotent(), balanced_idempotent()]
    rng = random.Random(6)
    for _ in range(30):
        examples.append(random_class_idempotent(rng, random_object(rng, 5, "s")).idempotent)
    for e in examples:
        cop = copy_kernel(e.dom)
        as_det = ase_kernels(e, compose(cop, e), compose(tensor(e, e), cop))
        assert classify(e).static == as_det


def test_static_idempotent_fixes_dominated_kernels():
    rng = random.Random(7)
    e = static_idempotent()
    for _ in range(30):
        a = random_object(rng, 3, "a")
        p = random_kernel_supported_on(rng, Kind.STOCH, a, e.cod, list(support_indices(e)))
        assert abs_cont(e, p)
        assert kernel_equal(compose(e, p), p)


# ---------------------------------------------------------------------------
# Blackwell splitting
# ---------------------------------------------------------------------------


def test_blackwell_split_matches_printed_data():
    cases = [
        (strong_idempotent(), strong_split(), [("0", "1")], ()),
        (static_idempotent(), static_split(), [("1",), ("2",)], ("3",)),
        (balanced_idempotent(), balanced_split(), [("1", "2"), ("3",)], ("4",)),
    ]
    for e, (iota, pi), classes, transient in cases:
        sd = blackwell_split(e)
        assert sd.inclusion.matrix == iota.matrix
        assert sd.projection.matrix == pi.matrix
        assert [tuple(c) for c in sd.classes] == classes
        assert sd.transient == transient
        assert kernel_equal(compose(sd.projection, sd.inclusion), identity(sd.middle))
        assert kernel_equal(compose(sd.inclusion, sd.projection), e)


def test_blackwell_split_middle_labels():
    sd = blackwell_split(balanced_idempotent())
    assert sd.middle.labels == ("C_1", "C_3")


def test_split_data_refuses_overlapping_classes_and_recurrent_transients():
    sd = blackwell_split(balanced_idempotent())
    parts = (sd.middle, sd.projection, sd.inclusion)
    with pytest.raises(StructureViolation, match="^recurrent classes must be disjoint$"):
        idempotents.SplitData(*parts, (("1", "2"), ("2", "3")), ())
    with pytest.raises(StructureViolation, match="^transient states cannot be recurrent$"):
        idempotents.SplitData(*parts, (("1",), ("3",)), ("2", "3"))
    # a label repeated within one class or among the transients is not an overlap
    assert idempotents.SplitData(*parts, (("1", "1"), ("3",)), ("2", "2")).classes == (("1", "1"), ("3",))


def test_blackwell_split_rejects_non_idempotent():
    x = fin_object(("a", "b"))
    rot = make_kernel(Kind.STOCH, x, x, [[0, 1], [1, 0]])
    with pytest.raises(NotIdempotent):
        blackwell_split(rot)


def test_blackwell_split_rejects_stoch_kernels_off_the_column_law():
    # classify calls the first idempotent and balanced, so only the column
    # law keeps it from a splitting whose inclusion has entries 2 and -1
    x = fin_object(("a", "b"))
    for rows, message in (([[2, 2], [-1, -1]], "negative entry -1"), ([[2, -1], [2, -1]], "sums to 4")):
        with pytest.raises(ValidationError, match=message):
            blackwell_split(Kernel(Kind.STOCH, x, x, rows))


def test_blackwell_split_recovers_generated_classes():
    rng = random.Random(11)
    for _ in range(100):
        x = random_object(rng, 8, "s")
        gen = random_class_idempotent(rng, x)
        e = gen.idempotent
        assert kernel_equal(compose(e, e), e)
        sd = blackwell_split(e)
        assert kernel_equal(compose(sd.inclusion, sd.projection), e)
        assert set(map(frozenset, sd.classes)) == set(map(frozenset, gen.classes))
        assert set(sd.transient) == set(gen.transient)


def test_split_determinism_matches_flags():
    for e in (strong_idempotent(), static_idempotent(), balanced_idempotent()):
        sd = blackwell_split(e)
        r = classify(e)
        assert is_deterministic(sd.inclusion) == r.static
        assert is_deterministic(sd.projection) == r.strong


def test_static_split_is_support_structure():
    # for a static stochastic idempotent the splitting inclusion is the
    # support inclusion and the projection retracts it
    e = static_idempotent()
    sd = blackwell_split(e)
    supp = support(e)
    assert sd.inclusion.matrix == supp.inclusion.matrix
    assert kernel_equal(
        compose(sd.projection, sd.inclusion), identity(sd.middle)
    )
    split = split_support(e)
    assert split.projection is not None


def test_split_support_idempotent_transfer():
    # e := ι∘π for a split support satisfies e∘p = p and transfers
    # almost-sure equality
    rng = random.Random(13)
    for _ in range(30):
        x = random_object(rng, 4, "x")
        p = random_kernel(rng, Kind.STOCH, random_object(rng, 2, "a"), x)
        sd = split_support(p)
        e = compose(sd.inclusion, sd.projection)
        assert kernel_equal(compose(e, p), p)
        y = random_object(rng, 3, "y")
        f = random_kernel(rng, Kind.STOCH, x, y)
        g = perturb_off_support(f, p, seed=rng.randrange(2**30))
        assert ase_kernels(p, f, g)
        assert ase_kernels(e, f, g)


# ---------------------------------------------------------------------------
# block splitting of multivalued idempotents, against exhaustive search
# ---------------------------------------------------------------------------


def _exhaustive_split(e, max_middle):
    """Reference oracle: the first (π, ι) over all multivalued kernels,
    middle sizes 1..max_middle, with π∘ι = id and ι∘π = e."""
    for t in range(1, max_middle + 1):
        middle = fin_object(f"t{i}" for i in range(t))
        ident = identity(middle, Kind.MULTI)
        iotas = all_multi_kernels(middle, e.cod)
        for pi in all_multi_kernels(e.dom, middle):
            for iota in iotas:
                if kernel_equal(compose(pi, iota), ident) and kernel_equal(compose(iota, pi), e):
                    return pi, iota
    return None


def test_block_split_agrees_with_exhaustive_search():
    cases = [(e, 2) for e in _all_multi_idempotents(2)]
    cases += [(e, 3) for e in _all_multi_idempotents(3) if classify(e).balanced]
    cases.append((multi_chain3_idempotent(), 2))
    assert len(cases) == 6 + 20 + 1
    for e, max_middle in cases:
        result = search_split(e, max_middle)
        found = _exhaustive_split(e, max_middle)
        assert isinstance(result, NoSplitUpTo) == (found is None)
        if found is not None:
            assert result.middle.size == found[0].cod.size
            verify_split(e, result.inclusion, result.projection)


def test_block_split_exactly_when_balanced():
    count = 0
    for n in range(1, 5):
        for e in _all_multi_idempotents(n):
            count += 1
            result = search_split(e, n)
            assert isinstance(result, NoSplitUpTo) != classify(e).balanced
            if isinstance(result, NoSplitUpTo):
                assert result.max_size == n
            else:
                ident = identity(result.middle, Kind.MULTI)
                assert kernel_equal(compose(result.projection, result.inclusion), ident)
                assert kernel_equal(compose(result.inclusion, result.projection), e)
    assert count == 1192


def test_multi_upset_has_no_small_splitting():
    result = search_split(multi_upset_idempotent(), 2)
    assert isinstance(result, NoSplitUpTo) and result.max_size == 2


def test_multi_identity_splits_trivially():
    # each element is its own block, so the splitting is the identity pair
    x = fin_object(("0", "1"))
    result = search_split(identity(x, Kind.MULTI), 2)
    assert not isinstance(result, NoSplitUpTo)
    assert result.middle.size == 2
    assert result.projection.matrix == identity(x, Kind.MULTI).matrix
    assert result.inclusion.matrix == identity(x, Kind.MULTI).matrix
    assert kernel_equal(compose(result.inclusion, result.projection), identity(x, Kind.MULTI))


def test_multi_full_image_splits_through_point():
    x = fin_object(("0", "1"))
    e = multi_kernel(x, x, [["0", "1"], ["0", "1"]])
    result = search_split(e, 2)
    assert not isinstance(result, NoSplitUpTo)
    assert result.middle.size == 1


def test_block_split_classes_and_transient():
    # 0 and 1 form one block, 3 is its own block, 2 reaches both
    x = fin_object(("0", "1", "2", "3"))
    e = multi_kernel(x, x, [["0", "1"], ["0", "1"], ["0", "1", "3"], ["3"]])
    result = search_split(e, 2)
    assert result.middle.labels == ("t0", "t1")
    assert result.classes == (("0", "1"), ("3",))
    assert result.transient == ("2",)
    assert result.projection.matrix == ((True, True, True, False), (False, False, True, True))


def test_block_split_middle_bound_below_block_count():
    x = fin_object(("0", "1", "2"))
    result = search_split(identity(x, Kind.MULTI), 2)
    assert isinstance(result, NoSplitUpTo) and result.max_size == 2
    assert search_split(identity(x, Kind.MULTI), 3).middle.size == 3


def test_block_split_empty_object():
    x = fin_object(())
    result = search_split(identity(x, Kind.MULTI), 0)
    assert result.middle.size == 0
    assert result.classes == () and result.transient == ()


# ---------------------------------------------------------------------------
# invariants of the class construction
# ---------------------------------------------------------------------------


def _splits_reaching_the_construction(monkeypatch):
    """Both splittings, with classify reporting every kernel as a
    balanced idempotent so that non-idempotents reach the class
    construction."""
    report = IdempotentReport(True, False, False, False, True, MappingProxyType({}))
    monkeypatch.setattr(idempotents, "classify", lambda e: report)
    return ((Kind.STOCH, blackwell_split), (Kind.MULTI, lambda e: search_split(e, 2)))


def test_classes_rejects_a_reached_element_outside_its_class():
    # the swap reaches both elements, but no column reaches its own element
    x = fin_object(("a", "b"))
    for kind in (Kind.STOCH, Kind.MULTI):
        swap = make_kernel(kind, x, x, [[kind.zero, kind.one], [kind.one, kind.zero]])
        with pytest.raises(StructureViolation, match="outside its class"):
            idempotents._classes(kind, swap.columns)


def test_classes_rejects_columns_that_differ_within_a_class():
    # a ↦ {a, b} and b ↦ {b}: the class {a, b} holds two different columns
    x = fin_object(("a", "b"))
    half = {Kind.STOCH: Fraction(1, 2), Kind.MULTI: True}
    for kind in (Kind.STOCH, Kind.MULTI):
        e = make_kernel(kind, x, x, [[half[kind], kind.zero], [half[kind], kind.one]])
        with pytest.raises(StructureViolation, match="differ within"):
            idempotents._classes(kind, e.columns)


def test_class_split_refuses_a_kernel_without_a_class_record(monkeypatch):
    # the swap fails the class test, so classify keeps no record for it
    x = fin_object(("a", "b"))
    for kind, split in _splits_reaching_the_construction(monkeypatch):
        swap = make_kernel(kind, x, x, [[kind.zero, kind.one], [kind.one, kind.zero]])
        with pytest.raises(StructureViolation, match="no class record"):
            split(swap)


def test_each_split_reads_the_classes_once_per_kernel(monkeypatch):
    # classify reads the classes in its class test and keeps them; the
    # split reads the kept record, and a second split reads nothing
    calls = []
    classes = idempotents._classes
    monkeypatch.setattr(idempotents, "_classes", lambda kind, cols: calls.append(cols) or classes(kind, cols))
    rng = random.Random(28)
    stoch = [static_idempotent(), strong_idempotent(), balanced_idempotent()]
    stoch += [random_class_idempotent(rng, random_object(rng, 8, "s")).idempotent for _ in range(10)]
    x = fin_object(str(i) for i in range(3))
    multi = [e for e in all_multi_kernels(x, x) if compose(e, e) == e and classify_by_scan(e).balanced]
    for split, kernels in ((blackwell_split, stoch), (lambda e: search_split(e, 3), multi)):
        kernels = list(dict.fromkeys(kernels))
        idempotents._classify_cached.cache_clear()
        try:
            calls.clear()
            for e in kernels:
                split(e)
                split(e)
            assert calls == [e.columns for e in kernels]
        finally:
            idempotents._classify_cached.cache_clear()


# ---------------------------------------------------------------------------
# splitting verification
# ---------------------------------------------------------------------------


def test_verify_split_on_golden_data():
    cases = [
        (strong_idempotent(), strong_split()),
        (static_idempotent(), static_split()),
        (balanced_idempotent(), balanced_split()),
    ]
    for e, (iota, pi) in cases:
        report, ok = verify_split(e, iota, pi)
        assert ok and report.idempotent


def test_verify_split_swapped_arguments_rejected():
    e = static_idempotent()
    iota, pi = static_split()
    with pytest.raises(ShapeMismatch):
        verify_split(e, pi, iota)


def test_verify_split_rejects_each_shape_mismatch():
    e = static_idempotent()
    iota, pi = static_split()
    other = fin_object(("p", "q", "r"))
    other_middle = fin_object(("D_1", "D_2"))
    for bad_iota, bad_pi in (
        (iota, Kernel(Kind.STOCH, other, pi.cod, pi.matrix)),  # pi.dom is not e's object
        (Kernel(Kind.STOCH, iota.dom, other, iota.matrix), pi),  # iota.cod is not e's object
        (iota, Kernel(Kind.STOCH, pi.dom, other_middle, pi.matrix)),  # the middles differ
    ):
        with pytest.raises(ShapeMismatch):
            verify_split(e, bad_iota, bad_pi)


def test_verify_split_refuses_a_rescaled_pair_off_the_column_law():
    # ι·diag(2, 1) and diag(1/2, 1)·π pass both splitting equations, but ι
    # sends C_1 to twice a point mass: off the law, so Kernel(...) refuses
    # the pair with ValidationError and no such pair reaches verify_split
    e = static_idempotent()
    iota, pi = static_split()
    scale = raw_kernel(Kind.STOCH, iota.dom, iota.dom, [[2, 0], [0, 1]])
    unscale = raw_kernel(Kind.STOCH, iota.dom, iota.dom, [[F(1, 2), 0], [0, 1]])
    big, small = compose(iota, scale), compose(unscale, pi)
    assert compose(small, big) == identity(iota.dom) and compose(big, small) == e
    assert kernel_refusal(Kind.STOCH, big.dom, big.cod, big.matrix).message == "column 0 sums to 2"
    assert kernel_refusal(Kind.STOCH, small.dom, small.cod, small.matrix).message == "column 0 sums to 1/2"


def test_verify_split_on_generated():
    rng = random.Random(17)
    for _ in range(40):
        x = random_object(rng, 6, "s")
        gen = random_class_idempotent(rng, x)
        report, ok = verify_split(gen.idempotent, gen.iota, gen.pi)
        assert ok and report.balanced


def test_verify_split_builds_no_pairing_and_no_copy(monkeypatch):
    # the projection's determinism almost surely is read off its columns
    built = []
    monkeypatch.setattr(idempotents, "pair", lambda f, g: built.append("pair") or pair(f, g))
    monkeypatch.setattr(idempotents, "copy_kernel", lambda *a: built.append("copy") or copy_kernel(*a), raising=False)
    gen = random_class_idempotent(random.Random(17), fin_object(str(i) for i in range(8)))
    rel = io_relation(gen.idempotent)
    sd = search_split(rel, 8)
    cases = [(gen.idempotent, gen.iota, gen.pi), (rel, sd.inclusion, sd.projection),
             (strong_idempotent(), *strong_split()), (static_idempotent(), *static_split())]
    for e, iota, pi in cases:
        assert verify_split(e, iota, pi)[1]
    assert built == []


# ---------------------------------------------------------------------------
# flag lattice and balance of stochastic idempotents
# ---------------------------------------------------------------------------


def _all_multi_idempotents(n):
    x = fin_object(tuple(str(i) for i in range(n)))
    for k in all_multi_kernels(x, x):
        if kernel_equal(compose(k, k), k):
            yield k


def test_flag_lattice_exhaustive_small_multi():
    for e in _all_multi_idempotents(2):
        r = classify(e)
        assert not r.static or r.balanced
        assert not r.strong or r.balanced
        assert not (r.static and r.strong) or r.deterministic


def test_flag_lattice_random_generated():
    rng = random.Random(19)
    for _ in range(100):
        x = random_object(rng, 8, "s")
        r = classify(random_class_idempotent(rng, x).idempotent)
        assert r.balanced
        assert not r.static or r.balanced
        assert not r.strong or r.balanced
        assert not (r.static and r.strong) or r.deterministic


def test_every_generated_stochastic_idempotent_is_balanced():
    rng = random.Random(23)
    for _ in range(200):
        x = random_object(rng, 8, "s")
        e = random_class_idempotent(rng, x).idempotent
        assert classify(e).balanced


# ---------------------------------------------------------------------------
# Cauchy-Schwarz
# ---------------------------------------------------------------------------


def test_cs_idempotent_specialization_matches_balance():
    examples = [strong_idempotent(), static_idempotent(), balanced_idempotent()]
    rng = random.Random(29)
    for _ in range(40):
        examples.append(random_class_idempotent(rng, random_object(rng, 5, "s")).idempotent)
    for e in examples:
        inst = cauchy_schwarz(e, e, e)
        assert inst.antecedent
        assert inst.consequent == classify(e).balanced
        assert inst.implication_ok


def test_cs_multi_counterexample():
    e = multi_upset_idempotent()
    inst = cauchy_schwarz(e, e, e)
    assert inst.antecedent and not inst.consequent and not inst.implication_ok


def test_cs_off_law_stoch_counterexamples():
    # the decision from the consequent needs f and g within the column law:
    # off it, both triples hold the antecedent and fail the consequent by
    # the sums, and Kernel(...) refuses the g of one and the f of the other
    a, b, x, y = (fin_object(labels) for labels in (("a",), ("b0", "b1"), ("x0", "x1"), ("y0", "y1")))
    g = raw_kernel(Kind.STOCH, fin_object(("b0",)), x, [[-1], [1]])
    h = Kernel(Kind.STOCH, x, y, [[0, 0], [1, 1]])
    assert cauchy_schwarz_by_sums(Kernel(Kind.STOCH, a, g.dom, [[1]]), g, h) == CauchySchwarzInstance(True, False)
    assert kernel_refusal(Kind.STOCH, g.dom, x, [[-1], [1]]).message == "column 0 has negative entry -1"
    f = raw_kernel(Kind.STOCH, a, b, [[1], [-1]])
    g = Kernel(Kind.STOCH, b, x, [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
    h = Kernel(Kind.STOCH, x, y, [[F(1, 2), 1], [F(1, 2), 0]])
    assert cauchy_schwarz_by_sums(f, g, h) == CauchySchwarzInstance(True, False)
    assert kernel_refusal(Kind.STOCH, a, b, [[1], [-1]]).message == "column 0 has negative entry -1"


def test_cs_random_stochastic_triples_never_fail():
    rng = random.Random(31)
    for _ in range(300):
        a, b, x, y = (random_object(rng, 4, c) for c in "abxy")
        f = random_kernel(rng, Kind.STOCH, a, b)
        g = random_kernel(rng, Kind.STOCH, b, x)
        h = random_kernel(rng, Kind.STOCH, x, y)
        inst = cauchy_schwarz(f, g, h)
        assert inst.implication_ok
        assert inst == cauchy_schwarz_by_sums(f, g, h)


def test_cs_state_form():
    # with a unit first leg the antecedent is the factorization of the
    # paired output and the consequent is almost-sure constancy
    x = fin_object(("0", "1"))
    g = make_kernel(Kind.STOCH, UNIT, x, [[F(1, 2)], [F(1, 2)]])
    h_const = make_kernel(Kind.STOCH, x, x, [[F(1, 3), F(1, 3)], [F(2, 3), F(2, 3)]])
    inst = cauchy_schwarz(identity(UNIT), g, h_const)
    assert inst.antecedent and inst.consequent
    h_var = make_kernel(Kind.STOCH, x, x, [[1, 0], [0, 1]])
    inst2 = cauchy_schwarz(identity(UNIT), g, h_var)
    assert not inst2.antecedent and not inst2.consequent
    assert inst2.implication_ok


def test_blackwell_split_multi_unsupported():
    from finmarkov import UnsupportedKind

    with pytest.raises(UnsupportedKind):
        blackwell_split(multi_upset_idempotent())


def test_search_split_signed_unsupported():
    from finmarkov import UnsupportedKind

    with pytest.raises(UnsupportedKind):
        search_split(signed_idempotent(), 2)


def test_search_split_stoch_without_grid_rejected():
    # stochastic idempotents are split by blackwell_split, not search_split
    from finmarkov import UnsupportedKind

    with pytest.raises(UnsupportedKind):
        search_split(strong_idempotent(), 1)
