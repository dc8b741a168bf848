"""Acceptance suite: one test per criterion, exact equality everywhere.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or in the
captured output).  Where a criterion says "exhaustively for sizes <= n",
the enumerated family is the finite one existing at that size
(deterministic kernels, multivalued kernels, positivity patterns);
stochastic matrices of a given shape form a continuum and are covered by
the seeded random clauses on top.

Criterion 8's middle clause (08b) once asserted that the copy formula on
the non-balanced multivalued idempotent breaks coassociativity.  That
expected value was wrong: over booleans the copy formula is coassociative
on every idempotent, balanced or not (proof in the clause's docstring,
confirmed by hand on the clause's example and by an exhaustive
enumeration of every multivalued idempotent on up to four elements).
08b now checks the clause's subject against its own direct evaluation:
the Blackwell gate still refuses the idempotent, and the copy kernel and
the reported coassociativity agree with a relation built straight from
the idempotent's images.  The coassociativity failure the clause was
after is realized in the signed model by 08c.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from finmarkov import (
    Kind,
    NoSplitUpTo,
    NotAbsolutelyContinuous,
    NotAse,
    NotBalanced,
    abs_cont,
    ase_kernels,
    blackwell_split,
    cauchy_schwarz,
    check_causality_instance,
    classify,
    compose,
    copy_kernel,
    delta_kernel,
    discard_kernel,
    env_ase,
    env_cell,
    env_check_markov_laws,
    env_hom,
    equalizer_factor,
    factor_through_support,
    fin_object,
    identity,
    io_relation,
    is_deterministic,
    kernel_equal,
    left_unitor,
    perturb_off_support,
    random_class_idempotent,
    refute_abs_cont,
    right_unitor,
    search_split,
    support,
    swap_kernel,
    tensor,
    tensor_object,
    verify_conditional_unique,
)
from finmarkov.cli import parse_kernel, run
from finmarkov.envelopes import EnvelopeCell, Flavor, blackwell_copy
from finmarkov.functors import comparison_base, conditional
from finmarkov.golden import (
    balanced_idempotent,
    balanced_split,
    domination_pair,
    multi_chain3_idempotent,
    multi_upset_idempotent,
    signed_idempotent,
    static_idempotent,
    static_split,
    strong_idempotent,
    strong_split,
)
from finmarkov.kernel import Kernel, support_indices
from finmarkov.rand import random_deterministic_kernel, random_kernel, random_kernel_supported_on
from oracles import (
    all_multi_kernels,
    cauchy_schwarz_by_sums,
    conditional_rebuilds,
    deterministic_kernels,
    emit_kernel,
    random_object,
)

F = Fraction


def _report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


# ---------------------------------------------------------------------------
# 1. golden example suite
# ---------------------------------------------------------------------------


def test_criterion_01_golden_examples():
    start = time.perf_counter()
    ok = True

    flags = [
        (strong_idempotent(), (False, True, True)),
        (static_idempotent(), (True, False, True)),
        (balanced_idempotent(), (False, False, True)),
    ]
    for e, (static, strong, balanced) in flags:
        r = classify(e)
        ok &= r.idempotent and (r.static, r.strong, r.balanced) == (static, strong, balanced)

    printed = [
        (strong_idempotent(), strong_split(), [frozenset(["0", "1"])]),
        (static_idempotent(), static_split(), [frozenset(["1"]), frozenset(["2"])]),
        (balanced_idempotent(), balanced_split(), [frozenset(["1", "2"]), frozenset(["3"])]),
    ]
    for e, (iota, pi), classes in printed:
        sd = blackwell_split(e)
        ok &= kernel_equal(compose(sd.projection, sd.inclusion), identity(sd.middle))
        ok &= kernel_equal(compose(sd.inclusion, sd.projection), e)
        ok &= set(map(frozenset, sd.classes)) == set(classes)
        ok &= sd.inclusion.matrix == iota.matrix and sd.projection.matrix == pi.matrix

    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _report(1, f"golden example suite ({elapsed * 1000:.0f} ms)", ok)


# ---------------------------------------------------------------------------
# 2. non-balanced witnesses
# ---------------------------------------------------------------------------


def test_criterion_02_non_balanced_witnesses():
    ok = True
    for e in (multi_upset_idempotent(), multi_chain3_idempotent(), signed_idempotent()):
        r = classify(e)
        ok &= r.idempotent and not r.balanced
    result = search_split(multi_upset_idempotent(), 2)
    ok &= isinstance(result, NoSplitUpTo) and result.max_size == 2
    _report(2, "non-balanced witnesses and failed splitting search", ok)


# ---------------------------------------------------------------------------
# 3. Cauchy-Schwarz
# ---------------------------------------------------------------------------


def test_criterion_03_cauchy_schwarz():
    ok = True
    rng = random.Random(0xC5)
    for _ in range(1000):
        a, b, x, y = (random_object(rng, 4, c) for c in "abxy")
        f = random_kernel(rng, Kind.STOCH, a, b)
        g = random_kernel(rng, Kind.STOCH, b, x)
        h = random_kernel(rng, Kind.STOCH, x, y)
        inst = cauchy_schwarz(f, g, h)
        ok &= inst.implication_ok
        ok &= inst == cauchy_schwarz_by_sums(f, g, h)

    e = multi_upset_idempotent()
    ok &= not cauchy_schwarz(e, e, e).implication_ok

    rng = random.Random(0xC6)
    for _ in range(200):
        e = random_class_idempotent(rng, random_object(rng, 6, "s")).idempotent
        inst = cauchy_schwarz(e, e, e)
        ok &= inst.antecedent
        ok &= inst.consequent == classify(e).balanced
    _report(3, "Cauchy-Schwarz: 1000 random triples, witness, idempotent link", ok)


# ---------------------------------------------------------------------------
# 4. splitting property suite
# ---------------------------------------------------------------------------


def test_criterion_04_splitting_suite():
    start = time.perf_counter()
    ok = True
    rng = random.Random(0x51)
    for _ in range(500):
        x = random_object(rng, 8, "s")
        e = random_class_idempotent(rng, x).idempotent
        report = classify(e)
        ok &= report.balanced
        sd = blackwell_split(e)
        ok &= kernel_equal(compose(sd.projection, sd.inclusion), identity(sd.middle))
        ok &= kernel_equal(compose(sd.inclusion, sd.projection), e)
        seen = set()
        for cls in sd.classes:
            ok &= not (set(cls) & seen)
            seen |= set(cls)
        ok &= seen | set(sd.transient) == set(x.labels)
        for t in sd.transient:
            i = e.cod.index(t)
            ok &= all(e.matrix[i][j] == 0 for j in range(x.size))
        ok &= is_deterministic(sd.inclusion) == report.static
        ok &= is_deterministic(sd.projection) == report.strong
        cop_mid = copy_kernel(sd.middle)
        cop_dom = copy_kernel(e.dom)
        ok &= ase_kernels(
            sd.inclusion,
            compose(cop_mid, sd.projection),
            compose(tensor(sd.projection, sd.projection), cop_dom),
        )
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _report(4, f"500 generated idempotents split exactly ({elapsed:.1f} s)", ok)


# ---------------------------------------------------------------------------
# 5. support universal property
# ---------------------------------------------------------------------------


def test_criterion_05_support_universal_property():
    ok = True
    rng = random.Random(0x505)

    positives = negatives = 0
    while positives < 300 or negatives < 300:
        x = random_object(rng, 4, "x")
        p = random_kernel(rng, Kind.STOCH, random_object(rng, 3, "a"), x)
        sd = support(p)
        supp = list(support_indices(p))
        z = random_object(rng, 3, "z")
        if positives < 300:
            f = random_kernel_supported_on(rng, Kind.STOCH, z, x, supp)
            fh = factor_through_support(f, sd)
            ok &= kernel_equal(compose(sd.inclusion, fh), f)
            positives += 1
        if negatives < 300 and len(supp) < x.size:
            f = random_kernel(rng, Kind.STOCH, z, x)
            off = [i for i in range(x.size) if i not in supp]
            cols = [list(col) for col in zip(*f.matrix)]
            cols[0] = [F(0)] * x.size
            cols[0][off[0]] = F(1)
            f = Kernel(
                Kind.STOCH, z, x, tuple(tuple(cols[j][i] for j in range(z.size)) for i in range(x.size))
            )
            try:
                factor_through_support(f, sd)
                ok = False
            except NotAbsolutelyContinuous:
                pass
            witness = refute_abs_cont(p, f)
            ok &= witness is not None
            ok &= ase_kernels(p, witness.low, witness.high)
            ok &= not ase_kernels(f, witness.low, witness.high)
            negatives += 1

    q, p = domination_pair()
    ok &= abs_cont(q, p)
    d0 = delta_kernel(q.dom, "0")
    ok &= not abs_cont(compose(q, d0), compose(p, d0))
    _report(5, "support factorization, refutation replay, pre-composition counterexample", ok)


# ---------------------------------------------------------------------------
# 6. monotonicity laws
# ---------------------------------------------------------------------------


def test_criterion_06_monotonicity():
    ok = True
    rng = random.Random(0x606)
    for kind in (Kind.STOCH, Kind.MULTI):
        for _ in range(500):
            x = random_object(rng, 4, "x")
            y = random_object(rng, 3, "y")
            q = random_kernel(rng, kind, random_object(rng, 3, "b"), x)
            p = random_kernel_supported_on(
                rng, kind, random_object(rng, 3, "a"), x, list(support_indices(q))
            )
            ok &= abs_cont(q, p)
            h = random_kernel(rng, kind, x, y)
            ok &= abs_cont(compose(h, q), compose(h, p))
        for _ in range(500):
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
            ok &= abs_cont(tensor(q, q2), tensor(p, p2))
    _report(6, "post-composition and tensor monotonicity, 500 instances each kind", ok)


# ---------------------------------------------------------------------------
# 7. axiom suites
# ---------------------------------------------------------------------------


def _exhaustive_category_laws() -> bool:
    ok = True
    # deterministic kernels: exhaustive over all object sizes in {1,2}
    for na, nb, nc, nd in itertools.product((1, 2), repeat=4):
        a, b, c, d = (
            fin_object(tuple(f"{ch}{i}" for i in range(n)))
            for ch, n in zip("abcd", (na, nb, nc, nd))
        )
        for f in deterministic_kernels(a, b):
            ok &= kernel_equal(compose(identity(b), f), f)
            ok &= kernel_equal(compose(f, identity(a)), f)
            for g in deterministic_kernels(b, c):
                for h in deterministic_kernels(c, d):
                    ok &= kernel_equal(compose(h, compose(g, f)), compose(compose(h, g), f))
    # multivalued kernels: exhaustive at size 2
    x2 = fin_object(("0", "1"))
    multis = all_multi_kernels(x2, x2)
    for f in multis:
        ok &= kernel_equal(compose(identity(x2, Kind.MULTI), f), f)
        for g in multis:
            for h in multis:
                ok &= kernel_equal(compose(h, compose(g, f)), compose(compose(h, g), f))
    # comonoid laws for every object size <= 3 in every kind
    for kind in Kind:
        for n in (1, 2, 3):
            x = fin_object(tuple(f"x{i}" for i in range(n)))
            cop = copy_kernel(x, kind)
            ok &= kernel_equal(compose(swap_kernel(x, x, kind), cop), cop)
            ok &= kernel_equal(
                compose(left_unitor(x, kind), compose(tensor(discard_kernel(x, kind), identity(x, kind)), cop)),
                identity(x, kind),
            )
            ok &= kernel_equal(
                compose(right_unitor(x, kind), compose(tensor(identity(x, kind), discard_kernel(x, kind)), cop)),
                identity(x, kind),
            )
            from finmarkov import associator

            lhs = compose(tensor(cop, identity(x, kind)), cop)
            rhs = compose(tensor(identity(x, kind), cop), cop)
            ok &= kernel_equal(compose(associator(x, x, x, kind), lhs), rhs)
    return ok


def test_criterion_07_axiom_suites():
    ok = _exhaustive_category_laws()

    rng = random.Random(0x707)
    for i in range(1000):
        kind = (Kind.STOCH, Kind.SIGNED, Kind.MULTI)[i % 3]
        a, b, c, d = (random_object(rng, 3, ch) for ch in "abcd")
        f = random_kernel(rng, kind, a, b)
        g = random_kernel(rng, kind, b, c)
        h = random_kernel(rng, kind, c, d)
        ok &= kernel_equal(compose(h, compose(g, f)), compose(compose(h, g), f))
        k2 = random_kernel(rng, kind, d, a)
        ok &= kernel_equal(
            tensor(compose(g, f), compose(f, k2)), compose(tensor(g, f), tensor(f, k2))
        )
        ok &= kernel_equal(compose(discard_kernel(b, kind), f), discard_kernel(a, kind))

    # equalizer principle: constructed almost-surely-equal pairs factor,
    # support-touching perturbations are rejected
    for _ in range(100):
        x = random_object(rng, 4, "x")
        y = random_object(rng, 3, "y")
        p = random_kernel_supported_on(
            rng, Kind.STOCH, random_object(rng, 2, "a"), x, [0]
        )
        f = random_deterministic_kernel(rng, Kind.STOCH, x, y)
        supp = set(support_indices(p))
        cols = [list(col) for col in zip(*f.matrix)]
        changed = False
        for j in range(x.size):
            if j not in supp and y.size > 1:
                cols[j] = cols[j][1:] + cols[j][:1]
                changed = True
        g = Kernel(
            Kind.STOCH, x, y, tuple(tuple(cols[j][i] for j in range(x.size)) for i in range(y.size))
        )
        e_obj, eq, p_f = equalizer_factor(p, f, g)
        ok &= kernel_equal(compose(eq, p_f), p)
        if changed and x.size > 1 and y.size > 1:
            bad_cols = [list(col) for col in zip(*f.matrix)]
            j0 = next(iter(supp))
            bad_cols[j0] = bad_cols[j0][1:] + bad_cols[j0][:1]
            g_bad = Kernel(
                Kind.STOCH,
                x,
                y,
                tuple(tuple(bad_cols[j][i] for j in range(x.size)) for i in range(y.size)),
            )
            try:
                equalizer_factor(p, f, g_bad)
                ok = False
            except NotAse:
                pass

    # causality: targeted non-vacuous instances
    for _ in range(1000):
        a, x, y, z = (random_object(rng, 4, ch) for ch in "axyz")
        f = random_kernel(rng, Kind.STOCH, a, x)
        g = random_kernel(rng, Kind.STOCH, x, y)
        h1 = random_kernel(rng, Kind.STOCH, y, z)
        h2 = perturb_off_support(h1, compose(g, f), seed=rng.randrange(2**30))
        inst = check_causality_instance(f, g, h1, h2)
        ok &= inst.antecedent and inst.implication_ok
    _report(7, "category/monoidal/comonoid axioms, equalizer principle, causality", ok)


# ---------------------------------------------------------------------------
# 8. envelope suite
# ---------------------------------------------------------------------------


def test_criterion_08a_envelope_positive():
    ok = True
    for e in (strong_idempotent(), static_idempotent(), balanced_idempotent()):
        cell = env_cell(e.dom, e, Flavor.BLACKWELL)
        ok &= env_check_markov_laws(cell).all_pass

    rng = random.Random(0x808)
    for _ in range(200):
        x = random_object(rng, 4, "x")
        y = random_object(rng, 4, "y")
        z = random_object(rng, 3, "z")
        ex = random_class_idempotent(rng, x).idempotent
        ey = random_class_idempotent(rng, y).idempotent
        ez = random_class_idempotent(rng, z).idempotent
        ca = env_cell(x, ex, Flavor.BLACKWELL)
        cb = env_cell(y, ey, Flavor.BLACKWELL)
        cc = env_cell(z, ez, Flavor.BLACKWELL)
        p = env_hom(ca, cb, compose(ey, compose(random_kernel(rng, Kind.STOCH, x, y), ex)))
        f = env_hom(cb, cc, compose(ez, compose(random_kernel(rng, Kind.STOCH, y, z), ey)))
        g = env_hom(cb, cc, compose(ez, compose(random_kernel(rng, Kind.STOCH, y, z), ey)))
        ok &= env_ase(p, f, g) == ase_kernels(p.kernel, f.kernel, g.kernel)
    _report(8, "envelope laws on golden cells; envelope a.s. agrees with base (200 triples)", ok)


def test_criterion_08b_envelope_expected_failure_clause():
    """The criterion's middle clause: the copy formula (e⊗e)∘copy∘e on
    the non-balanced multivalued idempotent e = (0 ↦ {0,1}, 1 ↦ {1}),
    checked against direct evaluation, the oracle the clause names.

    The clause used to expect a coassociativity failure.  Over booleans
    that cannot happen.  As a relation the copy formula sends x to
    ⋃_{z∈e(x)} e(z)×e(z), and both sides of coassociativity send x to
    ⋃ e(u)×e(u)×e(u) over the u ∈ e(x) with u ∈ e(u).  The reason is
    that e∘e = e makes e transitive, and every z ∈ e(x) lies in e(u) for
    some such u, found by following z ∈ e(y₁), y₁ ∈ e(y₂), … inside e(x)
    until a state repeats.  On this e both sides are {0,1}³ at 0 and
    {(1,1,1)} at 1.  An enumeration written without finmarkov agrees:
    all 1192 multivalued idempotents on up to four elements (1, 6, 62
    and 1123 per size) are coassociative, and classify finds 1020 of
    them non-balanced (0, 2, 42 and 976).  Balance is sufficient for
    coassociativity, not necessary, so the Blackwell gate still refuses
    e.  The failure the clause was after needs signed weights; see
    test_criterion_08c_envelope_failure_realized_in_signed.
    """
    e = multi_upset_idempotent()
    n = e.dom.size
    img = [{i for i in range(n) if e.matrix[i][x]} for x in range(n)]
    ok = e.kind is Kind.MULTI
    ok &= [set().union(*(img[z] for z in img[x])) for x in range(n)] == img
    report = classify(e)
    ok &= report.idempotent and not report.balanced
    with pytest.raises(NotBalanced):
        env_cell(e.dom, e, Flavor.BLACKWELL)

    # Direct evaluation from e's images, as sets of index pairs and triples.
    cpy = [{(a, b) for z in img[x] for a in img[z] for b in img[z]} for x in range(n)]
    lhs = [{(a, b, c) for p, q in cpy[x] for a, b in cpy[p] for c in img[q]} for x in range(n)]
    rhs = [{(a, b, c) for p, q in cpy[x] for a in img[p] for b, c in cpy[q]} for x in range(n)]
    ok &= lhs == rhs == [set(itertools.product(range(2), repeat=3)), {(1, 1, 1)}]
    coassociative = lhs == rhs

    cell = EnvelopeCell(e.dom, e, Flavor.BLACKWELL)
    k = blackwell_copy(cell).kernel
    ok &= k.dom == e.dom and k.cod.size == n * n
    # Codomain rows in tensor order: row i·n+j is the pair (i, j).
    ok &= [{divmod(r, n) for r in range(n * n) if k.matrix[r][x]} for x in range(n)] == cpy
    ok &= env_check_markov_laws(cell).coassociative == coassociative
    _report(
        8,
        "copy formula on the non-balanced multivalued idempotent matches direct"
        " evaluation: coassociative over booleans, still refused as a Blackwell cell",
        ok,
    )


def test_criterion_08c_envelope_failure_realized_in_signed():
    """The intent behind the expected-failure clause, realized where it
    is mathematically possible: a non-balanced signed idempotent whose
    envelope copy fails coassociativity while staying counital and
    cocommutative."""
    from finmarkov.golden import signed_coassoc_counterexample

    e = signed_coassoc_counterexample()
    ok = kernel_equal(compose(e, e), e)
    ok &= not classify(e).balanced
    report = env_check_markov_laws(EnvelopeCell(e.dom, e, Flavor.BLACKWELL))
    ok &= report.counit_left and report.counit_right and report.cocommutative
    ok &= not report.coassociative
    _report(
        8,
        "coassociativity failure realized on a non-balanced signed idempotent",
        ok,
    )


# ---------------------------------------------------------------------------
# 9. functor suite
# ---------------------------------------------------------------------------


def _uniform_realizations(dom, cod):
    cols_options = list(range(1, 2**cod.size))
    for masks in itertools.product(cols_options, repeat=dom.size):
        cols = []
        for m in masks:
            bits = [bool(m >> i & 1) for i in range(cod.size)]
            total = sum(bits)
            cols.append([F(1, total) if bit else F(0) for bit in bits])
        yield Kernel(
            Kind.STOCH,
            dom,
            cod,
            tuple(tuple(cols[j][i] for j in range(dom.size)) for i in range(cod.size)),
        )


def test_criterion_09_functor_suite():
    ok = True
    # exhaustive single-kernel checks over positivity patterns, sizes <= 3
    for na, nx in itertools.product((1, 2, 3), repeat=2):
        a = fin_object(tuple(f"a{i}" for i in range(na)))
        x = fin_object(tuple(f"x{i}" for i in range(nx)))
        for p in _uniform_realizations(a, x):
            rel = io_relation(p)
            from finmarkov import validate

            ok &= validate(rel) is None
            for i in range(nx):
                for j in range(na):
                    ok &= rel.matrix[i][j] == (p.matrix[i][j] > 0)
        ok &= kernel_equal(io_relation(copy_kernel(a)), copy_kernel(a, Kind.MULTI))
        ok &= kernel_equal(io_relation(identity(a)), identity(a, Kind.MULTI))
    # exhaustive composition pairs over patterns at size 2
    a2 = fin_object(("a0", "a1"))
    x2 = fin_object(("x0", "x1"))
    y2 = fin_object(("y0", "y1"))
    for p in _uniform_realizations(a2, x2):
        for g in _uniform_realizations(x2, y2):
            ok &= kernel_equal(io_relation(compose(g, p)), compose(io_relation(g), io_relation(p)))
            ok &= kernel_equal(io_relation(tensor(p, g)), tensor(io_relation(p), io_relation(g)))

    rng = random.Random(0x909)
    for _ in range(500):
        a = random_object(rng, 5, "a")
        x = random_object(rng, 5, "x")
        y = random_object(rng, 5, "y")
        p = random_kernel(rng, Kind.STOCH, a, x)
        g = random_kernel(rng, Kind.STOCH, x, y)
        ok &= kernel_equal(io_relation(compose(g, p)), compose(io_relation(g), io_relation(p)))
        ok &= kernel_equal(io_relation(tensor(p, g)), tensor(io_relation(p), io_relation(g)))

    # conditionals: exact reconstruction on 500 random joints
    for _ in range(500):
        a = random_object(rng, 3, "a")
        x = random_object(rng, 3, "x")
        y = random_object(rng, 3, "y")
        joint = random_kernel(rng, Kind.STOCH, a, tensor_object(x, y))
        cond = conditional(joint, split=x.size)
        ok &= conditional_rebuilds(joint, cond, x.size)

    # almost-sure uniqueness via off-support perturbation
    for _ in range(100):
        a = random_object(rng, 2, "a")
        x = random_object(rng, 3, "x")
        y = random_object(rng, 3, "y")
        joint = random_kernel(rng, Kind.STOCH, a, tensor_object(x, y))
        c1 = conditional(joint, split=x.size)
        c2 = perturb_off_support(c1, comparison_base(joint, x.size), seed=rng.randrange(2**30))
        ok &= verify_conditional_unique(joint, c1, c2)
    _report(9, "relation functor laws, conditional reconstruction and uniqueness", ok)


# ---------------------------------------------------------------------------
# 10. CLI
# ---------------------------------------------------------------------------


def test_criterion_10_cli(capsys):
    ok = run(["verify-paper"]) == 0
    capsys.readouterr()

    rng = random.Random(0xA0A)
    for i in range(1000):
        kind = (Kind.STOCH, Kind.SIGNED, Kind.MULTI)[i % 3]
        dom = random_object(rng, 4, "a")
        cod = random_object(rng, 4, "x")
        k = random_kernel(rng, kind, dom, cod)
        text = emit_kernel(k)
        again = parse_kernel(text)
        ok &= kernel_equal(k, again)
        ok &= emit_kernel(again) == text
    with capsys.disabled():
        _report(10, "verify-paper exits 0; 1000-document round-trip lossless", ok)
