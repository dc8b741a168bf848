"""Multivalued kernels read by their set bits agree with scans of every row.

Over Multi a column is an int mask.  The library reads supports,
domination, the idempotent taxonomy, restricted rows, the Cauchy-Schwarz
instance, document images and the dense view off its set bits; each is
compared here with a reference that tests every row, exhaustively on every
relation with at most three elements and by hypothesis on masks of 4 to
70 bits, so that masks wider than a machine word are covered.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from finmarkov import FinMarkovError, Kind, abs_cont, cauchy_schwarz, classify, fin_object, refute_abs_cont, validate
from finmarkov import asrel
from finmarkov.cli import kernel_to_doc
from finmarkov.kernel import _bits, _kernel, support_indices, support_mask
from finmarkov.supports import _restrict_rows
from oracles import (
    abs_cont_by_scan,
    cauchy_schwarz_multi_by_scan,
    classify_by_scan,
    images_by_scan,
    kernel_refusal,
    matrix_by_scan,
    refuting_element_by_scan,
    restrict_rows_by_scan,
    rows_by_scan,
    support_indices_by_scan,
)


def _obj(prefix: str, n: int):
    return fin_object(f"{prefix}{i}" for i in range(n))


def relations(dom, cod) -> list:
    """Every relation dom → cod, empty images included."""
    return [_kernel(Kind.MULTI, dom, cod, cols) for cols in itertools.product(range(2**cod.size), repeat=dom.size)]


# every relation between objects of at most three elements: 689 of them
SMALL = [k for a in range(4) for b in range(4) for k in relations(_obj("a", a), _obj("x", b))]


def _outcome(fn, *args):
    """The result, or the type and message of the library error raised."""
    try:
        return fn(*args)
    except FinMarkovError as exc:
        return type(exc).__name__, str(exc)


def _report(fn, e):
    r = _outcome(fn, e)
    return r if isinstance(r, tuple) else (r.flags(), list(r.witnesses.items()))


def _classify_report(e):
    """classify's report, which is the scan's, within the column law; off it
    (an empty image), the error type and message with which ``Kernel(...)``
    refuses e's rows, so that classify never meets e."""
    if validate(e) is not None:
        return "ValidationError", kernel_refusal(e.kind, e.dom, e.cod, e.matrix).message
    got = _report(classify, e)
    assert got == _report(classify_by_scan, e), e.columns
    return got


def _witness(q, p):
    w = refute_abs_cont(q, p)
    return None if w is None else w.element


def _instance(f, g, h):
    r = cauchy_schwarz(f, g, h)
    return r.antecedent, r.consequent


def test_bits_lists_the_set_bits_in_ascending_order():
    for mask in [*range(2**10), 2**64 - 1, 2**64, 2**70 + 2**63 + 5, (2**200 - 1) // 3]:
        assert list(_bits(mask)) == rows_by_scan(mask, mask.bit_length())


def test_multi_classify_matches_the_scan_on_every_endorelation_up_to_three():
    # flags, witnesses in their order, and the raised error type and message
    seen = set()
    for n in range(4):
        for e in relations(_obj("x", n), _obj("x", n)):
            got = _classify_report(e)
            seen.add(got[0] if isinstance(got[0], str) else tuple(got[0].values()))
    assert "ValidationError" in seen and "StructureViolation" not in seen and len(seen) >= 6


def test_support_matches_the_scan_on_every_small_relation():
    for k in SMALL:
        assert support_indices(k) == support_indices_by_scan(k)
        assert support_mask(k) == sum(1 << i for i in support_indices_by_scan(k))


def test_domination_and_its_witness_match_the_scan_on_every_small_relation():
    for n in range(4):
        x = _obj("x", n)
        ps = [p for a in (1, 2) for p in relations(_obj("a", a), x)]
        for q in relations(x, x):
            for p in ps:
                assert abs_cont(q, p) == abs_cont_by_scan(q, p)
                assert _witness(q, p) == refuting_element_by_scan(q, p)


def test_restrict_rows_matches_the_scan_on_every_small_relation():
    for k in SMALL:
        n = k.cod.size
        for idx in itertools.chain.from_iterable(itertools.combinations(range(n), r) for r in range(n + 1)):
            sub = fin_object(k.cod.labels[i] for i in idx)
            assert _restrict_rows(k, sub, idx).columns == restrict_rows_by_scan(k, idx)


def test_multi_cauchy_schwarz_matches_the_scan_on_small_relations():
    # every triple of endorelations on at most two elements; on three, every
    # relation in each role with the other two drawn from a seeded sample
    for n in range(3):
        rels = relations(_obj("x", n), _obj("x", n))
        for f, g, h in itertools.product(rels, repeat=3):
            assert _instance(f, g, h) == cauchy_schwarz_multi_by_scan(f, g, h)
    rng = random.Random(17)
    rels = relations(_obj("x", 3), _obj("x", 3))
    for k in rels:
        for _ in range(4):
            a, b = rng.choice(rels), rng.choice(rels)
            for f, g, h in ((k, a, b), (a, k, b), (a, b, k)):
                assert _instance(f, g, h) == cauchy_schwarz_multi_by_scan(f, g, h)
    # chains through objects of different sizes
    for sizes in itertools.product(range(1, 4), repeat=4):
        objs = [_obj(p, s) for p, s in zip("abxy", sizes)]
        for _ in range(5):
            f, g, h = (rng.choice(relations(objs[i], objs[i + 1])) for i in range(3))
            assert _instance(f, g, h) == cauchy_schwarz_multi_by_scan(f, g, h)


def test_document_images_and_dense_view_match_the_scan_on_every_small_relation():
    for k in SMALL:
        assert kernel_to_doc(k)["images"] == images_by_scan(k)
        assert k.matrix == matrix_by_scan(k)


def test_refute_abs_cont_reads_each_support_once(monkeypatch):
    x, a = _obj("x", 4), _obj("a", 2)
    q = _kernel(Kind.MULTI, x, x, (0b0011, 0b0001, 0b0011, 0b0001))
    calls = []

    def counted(k):
        calls.append(k)
        return support_mask(k)

    def refused(*args):
        raise AssertionError("refute_abs_cont asked abs_cont")

    monkeypatch.setattr(asrel, "support_mask", counted)
    monkeypatch.setattr(asrel, "abs_cont", refused)
    for cols, element in (((0b0001, 0b0110), "x2"), ((0b0010, 0b0001), None)):
        p = _kernel(Kind.MULTI, a, x, cols)
        calls.clear()
        assert _witness(q, p) == element
        assert sorted(map(id, calls)) == sorted([id(p), id(q)])


@st.composite
def wide_relations(draw):
    """An endorelation on 4 to 70 elements: arbitrary masks, a block
    idempotent (recurrent blocks, transients sent to unions of blocks), or
    such an idempotent with one bit flipped; and a second relation into
    the same object."""
    n = draw(st.integers(4, 70))
    rng = random.Random(draw(st.integers(0, 2**32)))
    shape = draw(st.sampled_from(["any", "blocks", "flipped"]))
    if shape == "any":
        cols = [rng.getrandbits(n) for _ in range(n)]
    else:
        order = rng.sample(range(n), n)
        k = rng.randrange(1, n + 1)
        recurrent = order[: k + rng.randrange(n - k + 1)]
        blocks = [0] * k
        for i, y in enumerate(recurrent):
            blocks[i % k] |= 1 << y
        block_of = {y: b for b in blocks for y in _bits(b)}
        cols = [block_of.get(y) or sum(b for b in blocks if rng.random() < 0.5) or blocks[0] for y in range(n)]
        if shape == "flipped":
            cols[rng.randrange(n)] ^= 1 << rng.randrange(n)
    x = _obj("x", n)
    other = _kernel(Kind.MULTI, _obj("a", 3), x, tuple(rng.getrandbits(n) & rng.getrandbits(n) for _ in range(3)))
    return _kernel(Kind.MULTI, x, x, tuple(cols)), other, rng


@settings(max_examples=40, deadline=None)
@given(wide_relations())
def test_wide_masks_match_the_scans(case):
    e, p, rng = case
    n = e.dom.size
    _classify_report(e)
    for k in (e, p):
        assert support_indices(k) == support_indices_by_scan(k)
        assert kernel_to_doc(k)["images"] == images_by_scan(k)
        assert k.matrix == matrix_by_scan(k)
    for q, r in ((e, p), (p, e), (e, e)):
        assert abs_cont(q, r) == abs_cont_by_scan(q, r)
        assert _witness(q, r) == refuting_element_by_scan(q, r)
    idx = sorted(rng.sample(range(n), rng.randrange(n + 1)))
    sub = fin_object(e.cod.labels[i] for i in idx)
    assert _restrict_rows(e, sub, idx).columns == restrict_rows_by_scan(e, idx)
    f = _kernel(Kind.MULTI, _obj("a", 3), e.dom, tuple(1 << rng.randrange(n) for _ in range(3)))
    assert _instance(f, e, e) == cauchy_schwarz_multi_by_scan(f, e, e)
    assert _instance(p, e, e) == cauchy_schwarz_multi_by_scan(p, e, e)
