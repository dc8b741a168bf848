"""The stored integer columns and bitmasks behind `compose`, `tensor`,
`function_kernel`, `classify`, `cauchy_schwarz`, `blackwell_split` and the
CLI's document parser and emitter, against the literal Fraction/bool code
they replaced."""

import functools
import itertools
import json
import random
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finmarkov import (
    Kernel,
    Kind,
    ValidationError,
    associator,
    blackwell_split,
    cauchy_schwarz,
    classify,
    compose,
    copy_kernel,
    fin_object,
    function_kernel,
    identity,
    is_deterministic,
    left_unitor,
    pair,
    random_class_idempotent,
    right_unitor,
    swap_kernel,
    tensor,
    tensor_object,
    validate,
)
import finmarkov.cli as cli
from finmarkov.cli import ParseError, kernel_from_doc, kernel_to_doc, parse_kernel
from finmarkov.golden import (
    balanced_idempotent,
    multi_chain3_idempotent,
    multi_upset_idempotent,
    signed_coassoc_counterexample,
    signed_idempotent,
    static_idempotent,
    strong_idempotent,
)
from finmarkov.idempotents import CauchySchwarzInstance, IdempotentReport, StructureViolation
from finmarkov.kernel import UNIT
from finmarkov.rand import random_deterministic_kernel, random_kernel, random_signed_column, random_stoch_column
from oracles import (
    all_multi_kernels,
    cauchy_schwarz_by_sums,
    columns_by_exact_column,
    emit_kernel,
    emit_kernel_by_fractions,
    kernel_from_doc_then_validate,
    kernel_refusal,
    parse_kernel_by_fractions,
    random_object,
    raw_kernel,
)

F = Fraction

# ---------------------------------------------------------------------------
# reference oracles: the dense Fraction/bool loops
# ---------------------------------------------------------------------------


def _reference_compose(g, f):
    """(g∘f)(z|a) = Σ_y g(z|y)·f(y|a) over every cell, one scalar at a time."""
    kind = f.kind
    multi = kind is Kind.MULTI
    n, m, p = g.cod.size, f.cod.size, f.dom.size
    zero = kind.zero
    out = [[zero] * p for _ in range(n)]
    gcols = [tuple(g.matrix[i][y] for i in range(n)) for y in range(m)]
    for j in range(p):
        for y in range(m):
            fv = f.matrix[y][j]
            if not fv:
                continue
            gcol = gcols[y]
            if multi:
                for i in range(n):
                    if gcol[i]:
                        out[i][j] = True
            else:
                for i in range(n):
                    gv = gcol[i]
                    if gv:
                        out[i][j] += gv * fv
    return raw_kernel(kind, f.dom, g.cod, out)


def _dense(k):
    """k's dense rows with every entry as the kind's scalar type."""
    scalar = bool if k.kind is Kind.MULTI else Fraction
    return [[scalar(v) for v in row] for row in k.matrix]


def _reference_tensor(f, g):
    """(f⊗g)((y,z)|(a,b)) = f(y|a)·g(z|b), the dense row-by-row loop."""
    kind = f.kind
    multi = kind is Kind.MULTI
    dom = tensor_object(f.dom, g.dom)
    cod = tensor_object(f.cod, g.cod)
    zero = kind.zero
    zero_row = (zero,) * dom.size
    nd2 = g.dom.size
    fm, gm = _dense(f), _dense(g)
    rows = []
    for i1 in range(f.cod.size):
        frow = fm[i1]
        for i2 in range(g.cod.size):
            grow = gm[i2]
            if not any(frow) or not any(grow):
                rows.append(zero_row)
                continue
            row = []
            for j1 in range(f.dom.size):
                fv = frow[j1]
                if not fv:
                    row.extend([zero] * nd2)
                elif multi:
                    row.extend(grow)
                else:
                    row.extend(fv * gv if gv else zero for gv in grow)
            rows.append(tuple(row))
    return raw_kernel(kind, dom, cod, rows)


def _reference_function_kernel(dom, cod, targets, kind):
    """Dense 0/1 matrix with a one at (targets[j], j)."""
    rows = [[kind.zero] * dom.size for _ in range(cod.size)]
    for j, i in enumerate(targets):
        rows[i][j] = kind.one
    return raw_kernel(kind, dom, cod, rows)


def _is_point_mass(kind, col):
    """A dense column with exactly one nonzero entry, equal to one."""
    if kind is Kind.MULTI:
        return sum(1 for v in col if v) == 1
    return sum(1 for v in col if v != 0) == 1 and any(v == 1 for v in col)


def _reference_classify(e):
    """The taxonomy from e∘e and the two-step joint in Fraction/bool scalars."""
    kind = e.kind
    n = e.dom.size
    labels = e.dom.labels
    ee = _reference_compose(e, e)
    for x in range(n):
        for y in range(n):
            if ee.matrix[y][x] != e.matrix[y][x]:
                return IdempotentReport(
                    False, False, False, False, False,
                    MappingProxyType({"idempotent": (labels[x], labels[y])}),
                )

    witnesses = {}
    multi = kind is Kind.MULTI
    zero = kind.zero
    cols = [tuple(row[j] for row in e.matrix) for j in range(n)]
    static = strong = balanced = True
    for x in range(n):
        col_x = cols[x]
        balanced_block = None
        if balanced:
            balanced_block = [[zero] * n for _ in range(n)]
            for w in range(n):
                cw = col_x[w]
                if not cw:
                    continue
                col_w = cols[w]
                for y in range(n):
                    a = col_w[y]
                    if not a:
                        continue
                    row = balanced_block[y]
                    if multi:
                        for z in range(n):
                            if col_w[z]:
                                row[z] = True
                    else:
                        acw = a * cw
                        for z in range(n):
                            b = col_w[z]
                            if b:
                                row[z] += acw * b
        for z in range(n):
            for y in range(n):
                ey = col_x[y]
                ezy = cols[y][z]
                lhs = (ey and ezy) if multi else ey * ezy
                if static:
                    want = ey if y == z else zero
                    if lhs != want:
                        static = False
                        witnesses.setdefault("static", (labels[x], labels[z], labels[y]))
                if strong:
                    ezx = col_x[z]
                    rhs = (ey and ezx) if multi else ey * ezx
                    if lhs != rhs:
                        strong = False
                        witnesses.setdefault("strong", (labels[x], labels[z], labels[y]))
                if balanced:
                    if lhs != balanced_block[y][z]:
                        balanced = False
                        witnesses.setdefault("balanced", (labels[x], labels[z], labels[y]))
        if not (static or strong or balanced):
            break
    deterministic = is_deterministic(e)
    if not deterministic:
        j = next(j for j in range(n) if not _is_point_mass(kind, cols[j]))
        witnesses["deterministic"] = (labels[j],)
    if (static or strong) and not balanced:
        raise StructureViolation("a static or strong idempotent must be balanced")
    if static and strong and not deterministic:
        raise StructureViolation("a static and strong idempotent must be deterministic")
    return IdempotentReport(
        True, deterministic, static, strong, balanced, MappingProxyType(witnesses)
    )


def _reference_cauchy_schwarz(f, g, h):
    """Both sides of the antecedent as literal double sums per input a."""
    kind = f.kind
    hg = _reference_compose(h, g)
    na, nb, nx, ny = f.dom.size, f.cod.size, g.cod.size, h.cod.size
    antecedent = True
    for a in range(na):
        for y1 in range(ny):
            for y2 in range(ny):
                if kind is Kind.MULTI:
                    lhs = any(
                        f.matrix[b][a] and hg.matrix[y1][b] and hg.matrix[y2][b]
                        for b in range(nb)
                    )
                    rhs = any(
                        f.matrix[b][a] and h.matrix[y1][x] and h.matrix[y2][x] and g.matrix[x][b]
                        for b in range(nb)
                        for x in range(nx)
                    )
                else:
                    lhs = sum(
                        (f.matrix[b][a] * hg.matrix[y1][b] * hg.matrix[y2][b] for b in range(nb)),
                        F(0),
                    )
                    rhs = sum(
                        (
                            f.matrix[b][a]
                            * sum((h.matrix[y1][x] * h.matrix[y2][x] * g.matrix[x][b] for x in range(nx)), F(0))
                            for b in range(nb)
                        ),
                        F(0),
                    )
                antecedent = antecedent and lhs == rhs
    reached = [b for b in range(nb) if any(f.matrix[b])]
    consequent = all(
        g.matrix[x][b] * h.matrix[y][x] == g.matrix[x][b] * hg.matrix[y][b]
        for b in reached
        for x in range(nx)
        for y in range(ny)
    )
    return CauchySchwarzInstance(antecedent, consequent)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

# denominators include distinct primes, so column lcms grow to products
DENOMINATORS = (1, 2, 3, 4, 101, 103, 107, 109, 113)


def _entry(kind):
    if kind is Kind.MULTI:
        return st.booleans()
    numerators = st.integers(-6, 6) if kind is Kind.SIGNED else st.integers(0, 6)
    nonzero = st.builds(Fraction, numerators, st.sampled_from(DENOMINATORS))
    return st.one_of(st.just(F(0)), nonzero)


def _obj(prefix, n):
    return fin_object(f"{prefix}{i}" for i in range(n))


def _matrix(kind, rows, cols):
    return st.lists(st.lists(_entry(kind), min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def _chain(draw):
    """g, f with f: A → Y and g: Y → Z; sizes 0-5, shape-checked only."""
    kind = draw(st.sampled_from(list(Kind)))
    p, m, n = (draw(st.integers(0, 5)) for _ in range(3))
    a, y, z = _obj("a", p), _obj("y", m), _obj("z", n)
    f = raw_kernel(kind, a, y, draw(_matrix(kind, m, p)))
    g = raw_kernel(kind, y, z, draw(_matrix(kind, n, m)))
    return g, f


def _scalar_type(kind):
    return bool if kind is Kind.MULTI else Fraction


def _same_composite(g, f):
    got, want = compose(g, f), _reference_compose(g, f)
    assert got == want
    assert got.dom == f.dom and got.cod == g.cod
    assert all(type(v) is _scalar_type(f.kind) for row in got.matrix for v in row)


def _outcome(fn, e):
    try:
        r = fn(e)
    except (StructureViolation, ValidationError) as exc:
        return (type(exc).__name__, str(exc))
    return (r.flags(), r.idempotent, list(r.witnesses.items()))


def _same_report(e):
    """classify agrees with the reference within the column law; off it,
    ``Kernel(...)`` refuses e's rows with `validate`'s message."""
    if validate(e) is None:
        assert _outcome(classify, e) == _outcome(_reference_classify, e)
    else:
        kernel_refusal(e.kind, e.dom, e.cod, e.matrix)


def _from_rows(kind, dom, cod, rows):
    """``Kernel(...)`` of the rows, or where they break the column law, which
    it then refuses with `validate`'s message, their `raw_kernel`."""
    if validate(raw := raw_kernel(kind, dom, cod, rows)) is None:
        return Kernel(kind, dom, cod, rows)
    kernel_refusal(kind, dom, cod, rows)
    return raw


def _all_multi_idempotents(n):
    x = _obj("", n)
    return [k for k in all_multi_kernels(x, x) if _reference_compose(k, k) == k]


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(_chain())
def test_compose_matches_reference(chain):
    _same_composite(*chain)


def test_compose_empty_objects():
    for kind in Kind:
        for p, m, n in itertools.product((0, 2), repeat=3):
            f = raw_kernel(kind, _obj("a", p), _obj("y", m), [[kind.one] * p for _ in range(m)])
            g = raw_kernel(kind, _obj("y", m), _obj("z", n), [[kind.one] * m for _ in range(n)])
            _same_composite(g, f)


def test_compose_prime_denominators_and_cancellation():
    y, a = _obj("y", 4), _obj("a", 2)
    f = raw_kernel(Kind.SIGNED, a, y, [[F(1, 101), F(-1, 2)], [F(1, 103), F(3, 2)], [F(1, 107), 0], [F(1, 109), 0]])
    g = raw_kernel(Kind.SIGNED, y, a, [[F(101, 3), F(-103, 5), F(107, 7), F(-109, 11)], [1, 1, -1, 1]])
    _same_composite(g, f)
    # the positive and the negative path cancel to an exact zero
    h = raw_kernel(Kind.SIGNED, y, UNIT, [[F(1, 101), F(-1, 101), 0, 0]])
    k = raw_kernel(Kind.SIGNED, UNIT, y, [[1], [1], [0], [0]])
    assert compose(h, k).matrix == ((F(0),),)
    _same_composite(h, k)


def test_compose_structural_left_factors():
    rng = random.Random(5)
    for kind in Kind:
        x = random_object(rng, 3, "x", min_size=2)
        xx = tensor_object(x, x)
        f3 = random_kernel(rng, kind, x, tensor_object(xx, x))
        _same_composite(associator(x, x, x, kind), f3)
        f2 = random_kernel(rng, kind, xx, xx)
        _same_composite(swap_kernel(x, x, kind), f2)
        _same_composite(copy_kernel(x, kind), random_kernel(rng, kind, xx, x))
        _same_composite(left_unitor(x, kind), random_kernel(rng, kind, x, tensor_object(UNIT, x)))
        _same_composite(right_unitor(x, kind), random_kernel(rng, kind, x, tensor_object(x, UNIT)))
        e = random_kernel(rng, kind, x, x)
        _same_composite(tensor(e, e), compose(copy_kernel(x, kind), e))
        _same_composite(e, random_deterministic_kernel(rng, kind, x, x))


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _split_idempotent(n, k, a_rows, b_rows, order):
    """Signed idempotent ι∘π with ι = [I; B], π = [I − AB, A], so π∘ι = I,
    its elements permuted by ``order``."""
    inner = range(k)
    outer = range(n - k)
    iota = [[F(int(i == t)) for t in inner] for i in inner] + [list(b_rows[r]) for r in outer]
    ab = [[sum((a_rows[s][r] * b_rows[r][t] for r in outer), F(0)) for t in inner] for s in inner]
    pi = [[F(int(s == t)) - ab[s][t] for t in inner] + [a_rows[s][r] for r in outer] for s in inner]
    e = [[sum((iota[i][t] * pi[t][j] for t in inner), F(0)) for j in range(n)] for i in range(n)]
    x = _obj("s", n)
    return raw_kernel(Kind.SIGNED, x, x, [[e[order[i]][order[j]] for j in range(n)] for i in range(n)])


@st.composite
def _signed_idempotent(draw):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    a_rows = draw(_matrix(Kind.SIGNED, k, n - k))
    b_rows = draw(_matrix(Kind.SIGNED, n - k, k))
    order = draw(st.permutations(range(n)))
    return _split_idempotent(n, k, a_rows, b_rows, order)


@st.composite
def _endomorphism(draw):
    kind = draw(st.sampled_from(list(Kind)))
    n = draw(st.integers(0, 5))
    x = _obj("s", n)
    return raw_kernel(kind, x, x, draw(_matrix(kind, n, n)))


@settings(max_examples=200, deadline=None)
@given(_endomorphism())
def test_classify_matches_reference_on_endomorphisms(e):
    _same_report(e)


@settings(max_examples=150, deadline=None)
@given(_signed_idempotent())
def test_classify_matches_reference_on_signed_idempotents(e):
    assert _reference_compose(e, e) == e
    _same_report(e)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_classify_matches_reference_on_stochastic(seed):
    rng = random.Random(seed)
    x = random_object(rng, 7, "s")
    _same_report(random_class_idempotent(rng, x).idempotent)
    _same_report(random_kernel(rng, Kind.STOCH, x, x))
    _same_report(random_kernel(rng, Kind.SIGNED, x, x))


def test_classify_matches_reference_on_golden_and_prime_denominators():
    for e in (
        strong_idempotent(), static_idempotent(), balanced_idempotent(), signed_idempotent(),
        signed_coassoc_counterexample(), multi_upset_idempotent(), multi_chain3_idempotent(),
        identity(UNIT), identity(fin_object(()), Kind.MULTI),
    ):
        _same_report(e)
    # two classes with denominators 103 and 107, a transient state mixing them 1:100 over 101
    x = _obj("s", 5)
    iota = Kernel(Kind.STOCH, _obj("t", 2), x, [[F(1, 103), 0], [F(102, 103), 0], [0, F(1, 107)], [0, F(106, 107)], [0, 0]])
    pi = Kernel(Kind.STOCH, x, _obj("t", 2), [[1, 1, 0, 0, F(1, 101)], [0, 0, 1, 1, F(100, 101)]])
    e = _reference_compose(iota, pi)
    assert _reference_compose(e, e) == e
    _same_report(e)
    assert classify(e).balanced and not classify(e).static


def test_classify_matches_reference_on_every_small_multi_endomorphism():
    for n in range(4):
        x = _obj("", n)
        for e in all_multi_kernels(x, x):
            _same_report(e)


def test_classify_matches_reference_on_all_multi_idempotents():
    idempotents = [e for n in range(1, 5) for e in _all_multi_idempotents(n)]
    assert len(idempotents) == 1192
    for e in idempotents:
        _same_report(e)


def test_classify_no_longer_composes_e_with_itself(monkeypatch):
    import finmarkov.idempotents as idem

    calls = []
    monkeypatch.setattr(idem, "compose", lambda g, f: calls.append((g, f)) or compose(g, f))
    idem._classify_cached.cache_clear()
    classify(balanced_idempotent())
    assert calls == []


# ---------------------------------------------------------------------------
# cauchy_schwarz
# ---------------------------------------------------------------------------


CS_SHAPES = ("random", "deterministic g", "deterministic h", "idempotent", "cancelling", "off-law")


@functools.lru_cache(maxsize=None)
def _multi_idempotents(n):
    return _all_multi_idempotents(n)


def _rng_idempotent(rng, kind, x):
    """A stochastic class idempotent, a signed ι∘π or a multivalued idempotent on x."""
    n = x.size
    if kind is Kind.STOCH:
        return random_class_idempotent(rng, x).idempotent
    if kind is Kind.MULTI:
        e = rng.choice(_multi_idempotents(n))
        return Kernel(Kind.MULTI, x, x, e.matrix)
    k = 1 + rng.randrange(n)
    entry = lambda: F(rng.randrange(-6, 7), rng.choice(DENOMINATORS))  # noqa: E731
    a_rows = [[entry() for _ in range(n - k)] for _ in range(k)]
    b_rows = [[entry() for _ in range(k)] for _ in range(n - k)]
    order = list(range(n))
    rng.shuffle(order)
    e = _split_idempotent(n, k, a_rows, b_rows, order)
    return raw_kernel(Kind.SIGNED, x, x, e.matrix)


def _cancelling_weights(rng, g, h, na):
    """Signed f whose columns weigh two b with different one-sample minus
    two-sample terms d_b so that Σ_b f(b|a)·d_b = 0.  With two outputs and
    columns summing to one the term at b is d_b·[[1, −1], [−1, 1]], so the
    antecedent holds while single columns of f would break it."""
    hg = _reference_compose(h, g)
    d = [
        hg.matrix[0][b] ** 2 - sum((h.matrix[0][x] ** 2 * g.matrix[x][b] for x in range(g.cod.size)), F(0))
        for b in range(g.dom.size)
    ]
    pairs = [(b1, b2) for b1 in range(len(d)) for b2 in range(len(d)) if d[b1] != d[b2]]
    cols = []
    for _ in range(na):
        col = [F(0)] * len(d)
        if pairs:
            b1, b2 = rng.choice(pairs)
            col[b1], col[b2] = d[b2] / (d[b2] - d[b1]), -d[b1] / (d[b2] - d[b1])
        else:
            col = random_signed_column(rng, len(d))
        cols.append(col)
    return [[col[b] for col in cols] for b in range(len(d))]


def _off_law_kernel(rng, kind, dom, cod):
    """A `raw_kernel` from random entries, off the column law as a rule:
    columns that do not sum to one, with negative entries or without, or
    empty images over Multi."""
    if kind is Kind.MULTI:
        return raw_kernel(kind, dom, cod, [[rng.random() < 0.4 for _ in range(dom.size)] for _ in range(cod.size)])
    low = rng.choice((0, -3))
    return raw_kernel(
        kind, dom, cod,
        [[F(rng.randrange(low, 4), rng.choice(DENOMINATORS)) for _ in range(dom.size)] for _ in range(cod.size)],
    )


def _cs_triple(rng, kind, shape):
    """f: A → B, g: B → X, h: X → Y of the given shape; the antecedent
    always holds for a deterministic g and often for idempotent triples
    and cancelling signed weights.  The off-law shape draws f, g or both
    off the column law, or h alone."""
    if shape == "off-law":
        a, b, x, y = (random_object(rng, 3, c) for c in "abxy")
        off = rng.choice(("f", "g", "fg", "h"))
        draw = lambda name, dom, cod: (_off_law_kernel if name in off else random_kernel)(rng, kind, dom, cod)  # noqa: E731
        return draw("f", a, b), draw("g", b, x), draw("h", x, y)
    if shape == "idempotent":
        e = _rng_idempotent(rng, kind, random_object(rng, 3 if kind is Kind.MULTI else 5, "s"))
        return e, e, e
    a, b, x = (random_object(rng, 4, c) for c in "abx")
    if shape == "cancelling" and kind is Kind.SIGNED:
        b = random_object(rng, 4, "b", min_size=2)
        # g's columns are distributions with different denominators
        g = Kernel(kind, b, x, [list(r) for r in zip(*[random_stoch_column(rng, x.size) for _ in range(b.size)])])
        h = random_kernel(rng, kind, x, _obj("y", 2))
        return Kernel(kind, a, b, _cancelling_weights(rng, g, h, a.size)), g, h
    y = random_object(rng, 4, "y")
    f = random_kernel(rng, kind, a, b)
    g = (random_deterministic_kernel if shape == "deterministic g" else random_kernel)(rng, kind, b, x)
    h = (random_deterministic_kernel if shape == "deterministic h" else random_kernel)(rng, kind, x, y)
    return f, g, h


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(Kind)), st.sampled_from(CS_SHAPES), st.integers(0, 2**32))
def test_cauchy_schwarz_matches_double_sum(kind, shape, seed):
    _same_instance(*_cs_triple(random.Random(seed), kind, shape))


def _same_instance(f, g, h):
    """The instance, which cauchy_schwarz, the double sums and the sum
    oracle agree on.  A Stoch f or g off the column law, outside the
    checker's domain, is refused by ``Kernel(...)`` with `validate`'s
    message, and the two oracles still agree on it."""
    want = _reference_cauchy_schwarz(f, g, h)
    assert want == cauchy_schwarz_by_sums(f, g, h)
    if f.kind is Kind.STOCH and (off := [k for k in (f, g) if validate(k) is not None]):
        for k in off:
            kernel_refusal(k.kind, k.dom, k.cod, k.matrix)
        return want
    assert cauchy_schwarz(f, g, h) == want
    return want


def test_cauchy_schwarz_within_the_law_composes_nothing(monkeypatch):
    import finmarkov.idempotents as idem

    rng = random.Random(5)
    shapes = ("random", "deterministic g", "deterministic h", "idempotent")
    triples = [_cs_triple(rng, Kind.STOCH, shape) for shape in shapes for _ in range(10)]
    calls = []
    monkeypatch.setattr(idem, "compose", lambda g, f: calls.append((g, f)) or compose(g, f))
    got = [cauchy_schwarz(f, g, h) for f, g, h in triples]
    assert calls == []
    assert got == [cauchy_schwarz_by_sums(f, g, h) for f, g, h in triples]
    assert {inst.consequent for inst in got} == {True, False}


def test_cauchy_schwarz_pairs_nothing_where_the_consequent_holds(monkeypatch):
    # the consequent implies the antecedent on any stored columns, so a
    # Signed or Multi triple that meets it, off-law ones included, builds no
    # pairing, and the instance is still the sums'
    import finmarkov.idempotents as idem

    rng = random.Random(9)
    draws = [_cs_triple(rng, kind, shape) for kind in (Kind.SIGNED, Kind.MULTI) for shape in CS_SHAPES
             for _ in range(15)]
    triples = [t for t in draws if cauchy_schwarz_by_sums(*t).consequent]
    calls = []
    monkeypatch.setattr(idem, "pair", lambda f, g: calls.append((f, g)) or pair(f, g))
    got = [cauchy_schwarz(f, g, h) for f, g, h in triples]
    assert calls == []
    assert got == [cauchy_schwarz_by_sums(f, g, h) for f, g, h in triples]
    assert {f.kind for f, _, _ in triples} == {Kind.SIGNED, Kind.MULTI}
    assert any(validate(k) is not None for t in triples for k in t)


def test_cauchy_schwarz_draws_reach_both_outcomes():
    seen = set()
    for kind, shape, seed in itertools.product(Kind, CS_SHAPES, range(12)):
        got = _same_instance(*_cs_triple(random.Random(seed), kind, shape))
        seen |= {(kind, "antecedent", got.antecedent), (kind, "consequent", got.consequent)}
        if shape == "cancelling" and kind is Kind.SIGNED:
            seen.add(("cancelling", got.antecedent, got.consequent))
    assert seen >= {(kind, side, v) for kind in Kind for side in ("antecedent", "consequent") for v in (True, False)}
    # cancelling weights hold the antecedent where the consequent fails
    assert ("cancelling", True, False) in seen


def _small_signed_kernels(dom, cod):
    """Every Signed kernel dom → cod with entries in {−1, 0, 1, 2}."""
    cols = [c for c in itertools.product((-1, 0, 1, 2), repeat=cod.size) if sum(c) == 1]
    return [Kernel(Kind.SIGNED, dom, cod, list(zip(*cs))) for cs in itertools.product(cols, repeat=dom.size)]


def test_signed_cauchy_schwarz_matches_the_sums_on_every_small_triple():
    # every lawful triple through objects of one or two elements
    seen = set()
    for a, b, x, y in itertools.product(*[[_obj(p, n) for n in (1, 2)] for p in "abxy"]):
        for f, g, h in itertools.product(*map(_small_signed_kernels, (a, b, x), (b, x, y))):
            got = cauchy_schwarz(f, g, h)
            assert got == cauchy_schwarz_by_sums(f, g, h), (f.columns, g.columns, h.columns)
            seen.add((got.antecedent, got.consequent))
    # weights in {−1, 0, 1, 2} cancel no two nonzero terms here: over a
    # two-element X each term is −2·(h₀ − h₁)² or 0, so the antecedent
    # fails wherever the consequent does; the drawn cancelling shape has both
    assert seen == {(True, True), (False, False)}


def test_cauchy_schwarz_matches_double_sum_on_idempotents():
    for e in (strong_idempotent(), static_idempotent(), balanced_idempotent(), signed_idempotent(),
              multi_upset_idempotent(), multi_chain3_idempotent()):
        assert cauchy_schwarz(e, e, e) == _reference_cauchy_schwarz(e, e, e) == cauchy_schwarz_by_sums(e, e, e)


# ---------------------------------------------------------------------------
# stored columns against the dense oracles
# ---------------------------------------------------------------------------


def _raw_entry(kind):
    """Entries as a caller writes them: ints beside Fractions, signed values
    that cancel, columns that need not sum to one; bools or 0/1 for Multi.
    Rows off the column law become a `raw_kernel`."""
    if kind is Kind.MULTI:
        return st.sampled_from([True, False, 1, 0])
    values = [0, 1, 2, F(0), F(1), F(1, 2), F(1, 3), F(2, 3), F(1, 101)]
    if kind is Kind.SIGNED:
        values += [-1, F(-1, 2), F(-2, 3), F(-1, 101)]
    return st.sampled_from(values)


@st.composite
def _raw_kernel(draw, kind, dom, cod):
    rows = draw(st.lists(st.lists(_raw_entry(kind), min_size=dom.size, max_size=dom.size),
                         min_size=cod.size, max_size=cod.size))
    return _from_rows(kind, dom, cod, rows)


def _same_dense(got, want):
    """got has want's dense matrix and entry types, equals it, and survives a
    round trip through the dense constructor with the same hash (through
    `raw_kernel` off the column law, which the constructor refuses)."""
    scalar = _scalar_type(got.kind)
    assert got.matrix == want.matrix
    assert all(type(v) is scalar for row in got.matrix for v in row)
    assert all(type(v) is scalar for row in want.matrix for v in row)
    assert got == want and hash(got) == hash(want)
    rebuilt = _from_rows(got.kind, got.dom, got.cod, got.matrix)
    assert rebuilt == got and hash(rebuilt) == hash(got)


@st.composite
def _operands(draw):
    """f: A → Y, g: Y → Z, h: B → C and a target map A → Y, sizes 0-4."""
    kind = draw(st.sampled_from(list(Kind)))
    a, y, z, b, c = (_obj(p, draw(st.integers(0, 4))) for p in "ayzbc")
    if y.size == 0:
        a = _obj("a", 0)
    targets = draw(st.lists(st.integers(0, max(y.size - 1, 0)), min_size=a.size, max_size=a.size))
    f, g, h = (draw(_raw_kernel(kind, dom, cod)) for dom, cod in ((a, y), (y, z), (b, c)))
    return f, g, h, targets


def _tensorable(*kernels):
    """Whether each kernel is Multi or keeps the column law."""
    return all(k.kind is Kind.MULTI or validate(k) is None for k in kernels)


@settings(max_examples=300, deadline=None)
@given(_operands())
def test_results_match_the_dense_oracles(operands):
    # `tensor` stores an exact product column as it is, which is reduced
    # when both columns keep the column law, so only lawful exact operands
    # reach it; `compose` reduces and takes every operand
    f, g, h, targets = operands
    kind = f.kind
    gf = compose(g, f)
    _same_dense(gf, _reference_compose(g, f))
    if _tensorable(f, h):
        _same_dense(tensor(f, h), _reference_tensor(f, h))
    if _tensorable(gf, h):
        _same_dense(tensor(gf, h), _reference_tensor(_reference_compose(g, f), h))
        _same_dense(tensor(h, gf), _reference_tensor(h, _reference_compose(g, f)))
    det = function_kernel(f.dom, f.cod, targets, kind)
    _same_dense(det, _reference_function_kernel(f.dom, f.cod, targets, kind))
    _same_dense(compose(g, det), _reference_compose(g, det))
    # a kernel built from its dense view is itself
    assert _from_rows(kind, f.dom, f.cod, f.matrix) == f


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(Kind)), st.integers(0, 2**32))
def test_tensor_of_lawful_operands_matches_the_dense_oracle(kind, seed):
    # the lawful exact operands that `_operands` seldom draws, sizes 0-4
    rng = random.Random(seed)
    f, h = (random_kernel(rng, kind, random_object(rng, 4, dom, min_size=0), random_object(rng, 4, cod))
            for dom, cod in ("ay", "bc"))
    _same_dense(tensor(f, h), _reference_tensor(f, h))
    _same_dense(tensor(h, f), _reference_tensor(h, f))


def test_signed_columns_that_cancel_are_stored_empty():
    y = _obj("y", 2)
    h = raw_kernel(Kind.SIGNED, y, _obj("z", 2), [[F(1, 2), F(-1, 2)], [1, -1]])
    k = raw_kernel(Kind.SIGNED, UNIT, y, [[1], [1]])
    out = compose(h, k)
    assert out.columns == ((1, ()),)
    _same_dense(out, _reference_compose(h, k))
    _same_dense(tensor(out, k), _reference_tensor(out, k))


def test_unreduced_inputs_store_canonical_columns():
    x = _obj("x", 3)
    k = Kernel(Kind.STOCH, UNIT, x, [[F(2, 4)], [0], [F(3, 6)]])
    assert k.columns == ((2, ((0, 1), (2, 1))),)
    assert Kernel(Kind.STOCH, UNIT, x, [[F(1, 2)], [F(0)], [F(1, 2)]]) == k
    assert Kernel(Kind.SIGNED, UNIT, x, [[2], [-1], [0]]).columns == ((1, ((0, 2), (1, -1))),)
    assert Kernel(Kind.MULTI, UNIT, x, [[1], [False], [True]]).columns == (0b101,)


@st.composite
def _exact_rows(draw):
    """(kind, width, rows): Stoch or Signed rows up to 5 × 5, drawn column
    by column so that a column holds one or several denominators; int and
    `Fraction` entries side by side, negative numerators and all-zero
    columns, most of them off the column law."""
    kind = draw(st.sampled_from([Kind.STOCH, Kind.SIGNED]))
    height, width = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    cols = []
    for _ in range(width):
        dens = draw(st.lists(st.sampled_from(DENOMINATORS), min_size=1, max_size=3))
        entry = st.one_of(st.just(0), st.just(F(0)), st.integers(-3, 3),
                          st.builds(F, st.integers(-12, 12), st.sampled_from(dens)))
        cols.append(draw(st.lists(entry, min_size=height, max_size=height)))
    return kind, width, [[col[i] for col in cols] for i in range(height)]


@settings(max_examples=300, deadline=None)
@given(_exact_rows())
def test_dense_rows_store_what_the_full_column_builder_stores(drawn):
    kind, width, rows = drawn
    k = _from_rows(kind, _obj("a", width), _obj("x", len(rows)), rows)
    assert k.columns == columns_by_exact_column(rows, width)


def test_dense_rows_store_each_column_shape():
    # all zero, one denominator, one denominator with negatives, an int
    # zero beside Fraction zeros, and ints beside a Fraction over 7
    rows = [[0, F(1, 4), F(1, 3), F(0), -2],
            [F(0), F(2, 4), F(-2, 3), 0, F(5, 7)],
            [0, F(1, 4), F(4, 3), F(0), 3]]
    want = ((1, ()), (4, ((0, 1), (1, 2), (2, 1))), (3, ((0, 1), (1, -2), (2, 4))), (1, ()),
            (7, ((0, -14), (1, 5), (2, 21))))
    for kind in (Kind.STOCH, Kind.SIGNED):
        assert _from_rows(kind, _obj("a", 5), _obj("x", 3), rows).columns == want == columns_by_exact_column(rows, 5)
        assert Kernel(kind, _obj("a", 0), _obj("x", 3), [[], [], []]).columns == ()
        assert _from_rows(kind, _obj("a", 2), _obj("x", 0), []).columns == ((1, ()), (1, ()))


def test_kernels_are_immutable():
    built = Kernel(Kind.STOCH, UNIT, _obj("x", 2), [[F(1, 2)], [F(1, 2)]])
    for k in (built, tensor(built, built), identity(_obj("x", 2), Kind.MULTI)):
        for name in ("kind", "dom", "cod", "columns", "matrix"):
            with pytest.raises(AttributeError):
                setattr(k, name, None)
        with pytest.raises(AttributeError):
            del k.columns


def test_kernels_copy_and_pickle_by_their_columns():
    import copy
    import pickle

    built = Kernel(Kind.SIGNED, UNIT, _obj("x", 2), [[2], [-1]])
    for k in (built, compose(identity(_obj("x", 2), Kind.SIGNED), built), identity(_obj("x", 3), Kind.MULTI)):
        for twin in (copy.copy(k), copy.deepcopy(k), pickle.loads(pickle.dumps(k))):
            assert twin == k and hash(twin) == hash(k) and twin.matrix == k.matrix


# ---------------------------------------------------------------------------
# blackwell_split's projection
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.booleans())
def test_blackwell_projection_is_the_dense_class_mass(seed, from_rows):
    rng = random.Random(seed)
    x = random_object(rng, 8, "s")
    e = random_class_idempotent(rng, x).idempotent
    if from_rows:
        e = Kernel(Kind.STOCH, x, x, e.matrix)
    sd = blackwell_split(e)
    members = [[x.index(lbl) for lbl in cls] for cls in sd.classes]
    want = Kernel(Kind.STOCH, x, sd.middle, [
        [sum((e.matrix[i][j] for i in comp), F(0)) for j in range(x.size)] for comp in members
    ])
    _same_dense(sd.projection, want)


# ---------------------------------------------------------------------------
# kernel documents against the Fraction parser and emitter
# ---------------------------------------------------------------------------

CAP = 4300


def _spelled(v, style):
    """v as a document entry, spelled unreduced in one of several ways; the
    "cap" style scales it so its longer numeral has exactly CAP digits."""
    n, d = v.numerator, v.denominator
    if style == "plain":
        return n if d == 1 else f"{n}/{d}"
    if n == 0:
        return {"minus": "-0", "scaled": "0/7", "cap": "0/" + "1" * CAP}[style]
    if style == "minus":
        return f"{n}" if d == 1 else f"{n * 2}/{d * 2}"
    s = 3 if style == "scaled" else 10 ** (CAP - len(str(max(abs(n), d))))
    return f"{n * s}/{d * s}"


STYLES = ("plain", "minus", "scaled", "cap")

# entries the grammar or the digit cap refuses
BAD_ENTRIES = [
    "1/0", "0/0", "abc", "1//2", "+1", " 1", "1/-2", "1.5", "", "1" * (CAP + 1),
    "1/" + "1" * (CAP + 1), "-" + "1" * (CAP + 1) + "/0", 1.5, True, False, None, [], {},
]


@st.composite
def _document(draw):
    """A document text: a valid kernel spelled unreduced, or one with
    refused entries, a broken shape or a column that does not sum to one."""
    kind = draw(st.sampled_from(list(Kind)))
    dom, cod = _obj("a", draw(st.integers(0, 4))), _obj("x", draw(st.integers(0, 4)))
    if cod.size == 0:
        dom = _obj("a", 0)
    k = random_kernel(random.Random(draw(st.integers(0, 2**32))), kind, dom, cod)
    if kind is Kind.MULTI:
        images = [[cod.labels[i] for i in range(cod.size) if k.matrix[i][j]] for j in range(dom.size)]
        if images and draw(st.booleans()):
            j = draw(st.integers(0, len(images) - 1))
            images[j] = draw(st.sampled_from([images[j] * 2, [], ["nope"], "x0", [0], images[j][:1]]))
        doc = {"kind": "multi", "dom": list(dom.labels), "cod": list(cod.labels), "images": images}
    else:
        matrix = [[_spelled(v, draw(st.sampled_from(STYLES))) for v in row] for row in k.matrix]
        cells = [(i, j) for i in range(cod.size) for j in range(dom.size)]
        for _ in range(draw(st.integers(0, 2)) if cells else 0):
            i, j = draw(st.sampled_from(cells))
            matrix[i][j] = draw(st.sampled_from(BAD_ENTRIES + ["4/6", "-3/9", 2]))
        if matrix and draw(st.integers(0, 9)) == 0:
            matrix[draw(st.integers(0, len(matrix) - 1))].append(0)
        doc = {"kind": kind.value, "dom": list(dom.labels), "cod": list(cod.labels), "matrix": matrix}
    return json.dumps(doc)


def _parsed(parse, text):
    try:
        k = parse(text)
    except ParseError as exc:
        return "error", str(exc)
    return "ok", k, k.columns, k.matrix, [type(v) for row in k.matrix for v in row]


def _same_documents(k):
    for pretty in (False, True):
        assert emit_kernel(k, pretty) == emit_kernel_by_fractions(k, pretty)


@settings(max_examples=300, deadline=None)
@given(_document())
def test_documents_parse_and_emit_as_with_fractions(text):
    got, want = _parsed(parse_kernel, text), _parsed(parse_kernel_by_fractions, text)
    assert got == want
    if got[0] == "ok":
        _same_documents(got[1])
        assert parse_kernel(emit_kernel(got[1])) == got[1]


def test_documents_at_the_digit_cap():
    big = "9" * CAP
    for entries, outcome in (
        ([[f"{big}/{big}"]], "ok"),
        ([[f"-{big}/{big}"], [2]], "ok"),
        ([[f"1{big}/{big}"]], "error"),
        ([[f"{big}/1{big}"]], "error"),
        ([[f"1/{big}"], [f"{int(big) - 1}/{big}"]], "ok"),
    ):
        text = json.dumps({"kind": "signed", "dom": ["a"], "cod": [f"x{i}" for i in range(len(entries))],
                           "matrix": entries})
        got = _parsed(parse_kernel, text)
        assert got[0] == outcome and got == _parsed(parse_kernel_by_fractions, text)
        if outcome == "ok":
            _same_documents(got[1])


def test_emitted_documents_match_the_fraction_emitter():
    rng = random.Random(11)
    x = _obj("x", 3)
    for kind in Kind:
        for _ in range(20):
            f, g = random_kernel(rng, kind, x, x), random_kernel(rng, kind, x, x)
            for k in (f, compose(g, f), tensor(f, g)):
                _same_documents(k)
    # a kernel built from int rows, negative entries and a long denominator
    _same_documents(Kernel(Kind.SIGNED, UNIT, x, [[2], [-1], [0]]))
    _same_documents(Kernel(Kind.SIGNED, UNIT, x, [[F(-1, 3)], [F(10**50 + 1, 10**50)], [F(1, 3) - F(1, 10**50)]]))
    _same_documents(blackwell_split(balanced_idempotent()).projection)


# spellings that repeat within a document: unreduced, negative zero, zero over 7
SPELLINGS = ["4/6", "2/3", "-0", "0", "0/7", "1/3", "2/6", "-1/3", "1", "3/3", 0, 1, -1, 2]
# refused entries that can repeat: each fails the grammar, the cap or the type
REPEATED_BAD = ["1/0", "abc", "1/-2", "1" * (CAP + 1), 1.5, True, None]


@st.composite
def _repeating_document(draw):
    """(text, bad cells): a Stoch or Signed document over at most four
    distinct spellings, so entries repeat.  The last row makes each column
    sum to one unless the draw says otherwise, and one refused entry may
    sit in one to three cells."""
    kind = draw(st.sampled_from(["stoch", "signed"]))
    height, width = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    pool = draw(st.lists(st.sampled_from(SPELLINGS), min_size=1, max_size=4))
    matrix = [[draw(st.sampled_from(pool)) for _ in range(width)] for _ in range(height)]
    if draw(st.booleans()):
        for j in range(width):
            rest = 1 - sum((F(row[j]) for row in matrix[:-1]), F(0))
            matrix[-1][j] = _spelled(rest, draw(st.sampled_from(("plain", "minus", "scaled"))))
    cells = [(i, j) for i in range(height) for j in range(width)]
    bad = []
    if cells and draw(st.booleans()):
        value = draw(st.sampled_from(REPEATED_BAD))
        bad = sorted(draw(st.lists(st.sampled_from(cells), min_size=1, max_size=3, unique=True)))
        for i, j in bad:
            matrix[i][j] = value
    doc = {"kind": kind, "dom": [f"a{j}" for j in range(width)], "cod": [f"x{i}" for i in range(height)],
           "matrix": matrix}
    return json.dumps(doc), bad


@settings(max_examples=300, deadline=None)
@given(_repeating_document())
def test_documents_with_repeated_entries_store_what_the_full_column_builder_stores(drawn):
    text, bad = drawn
    got, want = _parsed(parse_kernel, text), _parsed(parse_kernel_by_fractions, text)
    assert got == want
    if bad:
        i, j = bad[0]  # the first refused cell in row-major order is the one reported
        assert got[0] == "error" and got[1].startswith(f"matrix[{i}][{j}]: ")
    elif got[0] == "ok":
        k = got[1]
        assert k.columns == columns_by_exact_column(k.matrix, k.dom.size)


def test_each_distinct_entry_string_of_a_document_is_parsed_once(monkeypatch):
    parsed = []
    parse_entry = cli._parse_entry
    monkeypatch.setattr(cli, "_parse_entry", lambda v: parsed.append(v) or parse_entry(v))
    e = random_class_idempotent(random.Random(3), _obj("s", 12)).idempotent
    doc = kernel_to_doc(e)
    for i, row in enumerate(doc["matrix"]):  # respell a third of the cells, unreduced or as "-0" and "0/7"
        for j, v in enumerate(row):
            if (i + j) % 3 == 0:
                v = F(v)
                row[j] = f"{2 * v.numerator}/{2 * v.denominator}" if v else ("-0", "0/7")[j % 2]
    strings = [v for row in doc["matrix"] for v in row if type(v) is str]
    text = json.dumps(doc)
    k = parse_kernel_by_fractions(text)
    assert parse_kernel(text) == k
    assert sorted(parsed) == sorted(set(strings)) and len(strings) > 2 * len(parsed)
    parsed.clear()
    assert parse_kernel(text) == k  # nothing is remembered across documents
    assert sorted(parsed) == sorted(set(strings))


# defects injected into a document: at most one entry or shape error, at
# most one break of the column law, and zero entries spelled "-0" or "0/7".
# "law break first" breaks column 0 and also puts a bad entry in the last
# cell; for Multi it empties image 0 and puts an unknown label in the last.
ENTRY_DEFECTS = ("bad string", "float", "short row")
LAW_DEFECTS = ("negative entry", "law break first", "empty codomain")


@st.composite
def _ingest_document(draw):
    """A decoded document of any kind, valid but for the drawn defects."""
    kind = draw(st.sampled_from(list(Kind)))
    entry_defect, law_defect = (draw(st.none() | st.sampled_from(d)) for d in (ENTRY_DEFECTS, LAW_DEFECTS))
    dom = _obj("a", draw(st.integers(1, 4)))
    cod = _obj("x", 0 if law_defect == "empty codomain" else draw(st.integers(1, 4)))
    rows = random_kernel(random.Random(draw(st.integers(0, 2**32))), kind, dom, cod).matrix if cod.size else []
    doc = {"kind": kind.value, "dom": list(dom.labels), "cod": list(cod.labels)}
    if kind is Kind.MULTI:
        images = [[cod.labels[i] for i in range(cod.size) if rows[i][j]] for j in range(dom.size)]
        if entry_defect in ("bad string", "float"):
            images[-1].append("nope" if entry_defect == "bad string" else 1.5)
        if law_defect == "law break first":
            images[-1].append("nope")
        if law_defect in ("negative entry", "law break first"):  # Multi breaks its law by an empty image
            images[0] = []
        if entry_defect == "short row":
            images.pop()
        doc["images"] = images
        return doc
    matrix = [[_spelled(v, draw(st.sampled_from(STYLES[:3]))) for v in row] for row in rows]
    if draw(st.booleans()):
        matrix = [[draw(st.sampled_from(("-0", "0/7"))) if v == 0 else v for v in row] for row in matrix]
    if cod.size:
        cell = lambda: (draw(st.integers(0, cod.size - 1)), draw(st.integers(0, dom.size - 1)))
        if law_defect == "negative entry":  # row 0 gives up 1, which row 1 takes where there is one
            j = cell()[1]
            matrix[0][j] = str(F(matrix[0][j]) - 1)
            if cod.size > 1:
                matrix[1][j] = str(F(matrix[1][j]) + 1)
        if law_defect == "law break first":
            matrix[0][0], matrix[-1][-1] = "7/5", "abc"
        if entry_defect in ("bad string", "float"):
            i, j = cell()
            matrix[i][j] = "1/0" if entry_defect == "bad string" else 0.5
        if entry_defect == "short row":
            matrix[cell()[0]].pop()
    doc["matrix"] = matrix
    return doc


def _ingested(read, doc):
    try:
        k = read(doc)
    except Exception as exc:  # the error's type and message are the outcome
        return "error", type(exc), str(exc)
    return "ok", k, k.columns


@settings(max_examples=300, deadline=None)
@given(_ingest_document())
@example({"kind": "stoch", "dom": ["a"], "cod": ["x", "y"], "matrix": [["-1/2"], ["3/2"]]})
def test_one_walk_ingest_matches_parse_then_validate(doc):
    want = _ingested(kernel_from_doc_then_validate, doc)
    assert _ingested(kernel_from_doc, doc) == want
    assert _ingested(lambda d: parse_kernel(json.dumps(d)), doc) == want
