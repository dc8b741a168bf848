"""Objects and the tensor label encoding: factors kept by tensor objects,
the injective writing of their labels, and splitting by factors or by
parsing."""

import copy
import itertools
import json
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finmarkov import (
    BadSplit,
    FinObject,
    Kind,
    UnknownLabel,
    ValidationError,
    classify,
    compose,
    fin_object,
    function_kernel,
    identity,
    marginalize,
    tensor,
    tensor_object,
)
from finmarkov import idempotents
from finmarkov.cli import kernel_to_doc, parse_kernel
from finmarkov.kernel import _kernel, split_tensor_labels
from finmarkov.rand import random_kernel
from oracles import split_by_every_label, tensor_label_by_grammar, well_formed_by_grammar


def _parsed(obj: FinObject) -> FinObject:
    """The object as a document gives it: its labels, without factors."""
    return FinObject(obj.labels)


# ---------------------------------------------------------------------------
# labels holding commas and parentheses
# ---------------------------------------------------------------------------


def test_labels_with_commas_give_distinct_tensor_labels():
    x, y = fin_object(["a", "a,b"]), fin_object(["b,c", "c"])
    t = tensor_object(x, y)
    assert t.labels == ("(a,b\\,c)", "(a,c)", "(a\\,b,b\\,c)", "(a\\,b,c)")
    assert split_tensor_labels(t, 2) == (x, y)
    assert split_tensor_labels(_parsed(t), 2) == (x, y)


def test_a_label_with_an_open_parenthesis_splits():
    x, y = fin_object(["(p", "q"]), fin_object(["r"])
    t = _parsed(tensor_object(x, y))
    assert t.labels == ("(\\(p,r)", "(q,r)")
    assert split_tensor_labels(t, 2) == (x, y)


def test_marginalize_takes_a_tensor_the_library_built():
    x, y = fin_object(["u,v", "w"]), fin_object(["0", "1"])
    k = identity(tensor_object(x, y))
    for f in (k, _kernel(Kind.STOCH, k.dom, _parsed(k.cod), k.columns)):
        assert marginalize(f, 2, "right") == function_kernel(k.dom, x, [0, 0, 1, 1], Kind.STOCH)
        assert marginalize(f, 2, "left") == function_kernel(k.dom, y, [0, 1, 0, 1], Kind.STOCH)


# ---------------------------------------------------------------------------
# what is written unchanged and what is escaped
# ---------------------------------------------------------------------------


def test_plain_labels_and_pairs_print_as_pairs():
    x, y = fin_object(["x", "é"]), fin_object(["(p,q)", "•"])
    assert tensor_object(x, y).labels == ("(x,(p,q))", "(x,•)", "(é,(p,q))", "(é,•)")
    nested = tensor_object(tensor_object(x, x), y)
    assert nested.labels[:2] == ("((x,x),(p,q))", "((x,x),•)")
    assert split_tensor_labels(_parsed(nested), 4) == (_parsed(tensor_object(x, x)), y)


def test_labels_that_are_not_pairs_are_escaped():
    x = fin_object(["", "\\", "()", "(p,q,r)", "((p,q)", "a(b,c)", "(,)"])
    assert tensor_object(x, fin_object(["y"])).labels == (
        "(,y)", "(\\\\,y)", "(\\(\\),y)", "(\\(p\\,q\\,r\\),y)", "(\\(\\(p\\,q\\),y)", "(a\\(b\\,c\\),y)", "((,),y)"
    )


def test_a_bad_escape_in_a_document_label_is_a_bad_split():
    # "\a" unescapes to "a", which is written without a backslash; the
    # writer gives "(a,b\,c)" for the pair (a, "b,c"), so "(a,b,c)" is refused
    for labels in (["(\\a,y)"], ["(a\\,y)"], ["(a,y\\)"], ["(a,(p,q)\\,r)"], ["(a,b,c)", "(a,d)"]):
        with pytest.raises(BadSplit):
            split_tensor_labels(FinObject(labels), 1)
        with pytest.raises(BadSplit):
            split_by_every_label(FinObject(labels), 1)


def test_well_formed_labels_agree_with_the_grammar_on_every_short_label():
    short = itertools.chain.from_iterable(itertools.product("(),a", repeat=n) for n in range(7))
    with_escapes = itertools.chain.from_iterable(itertools.product("(),a\\", repeat=n) for n in range(5))
    y = fin_object(["y"])
    for label in map("".join, itertools.chain(short, with_escapes)):
        written = tensor_object(fin_object([label]), y).labels[0]
        assert written == tensor_label_by_grammar(label, "y")
        assert (written == f"({label},y)") == well_formed_by_grammar(label)


def test_deeply_nested_labels_are_written_and_split_in_linear_time():
    depth = 10_000
    left_deep, right_deep = "(" * depth + "a" + ",b)" * depth, "(a," * depth + "b" + ")" * depth
    start = time.perf_counter()
    t = _parsed(tensor_object(fin_object([left_deep, right_deep]), fin_object(["c", "d"])))
    assert t.labels[0] == f"({left_deep},c)" and t.labels[3] == f"({right_deep},d)"
    assert split_tensor_labels(t, 2) == (fin_object([left_deep, right_deep]), fin_object(["c", "d"]))
    assert time.perf_counter() - start < 2.0  # about 0.2 s; repeated innermost-pair passes take minutes


# ---------------------------------------------------------------------------
# the object itself
# ---------------------------------------------------------------------------


def test_tensor_objects_keep_their_factors_and_write_labels_once():
    x, y = fin_object(["a", "b"]), fin_object(["c"])
    t = tensor_object(x, y)
    assert t.factors == (x, y) and t.size == 2 and x.factors is None
    assert t.labels is t.labels
    assert t.index("(b,c)") == 1
    with pytest.raises(UnknownLabel):
        t.index("(c,b)")
    with pytest.raises(UnknownLabel):
        t.index(["a"])
    assert repr(t) == "FinObject(['(a,c)', '(b,c)'])"
    for obj in (t, x):
        for name, value in (("labels", ("z",)), ("size", 3), ("factors", (y, x))):
            with pytest.raises(AttributeError):
                setattr(obj, name, value)
    assert t.size == 2 and t.factors == (x, y) and x.size == 2 and x.factors is None


def test_equality_by_factors_and_by_labels():
    x, y = fin_object(["a", "b"]), fin_object(["c", "d"])
    t = tensor_object(x, y)
    assert t == tensor_object(fin_object(["a", "b"]), fin_object(["c", "d"]))
    assert t == _parsed(t) and _parsed(t) == t
    assert t != tensor_object(y, x) and t != x and t != "(a,c)"
    # empty tensors are the empty object, whatever their factors
    empty = fin_object([])
    assert tensor_object(x, empty) == tensor_object(y, empty) == empty
    assert hash(tensor_object(x, empty)) == hash(empty)


@pytest.mark.parametrize("kind", list(Kind))
def test_classifying_a_tensor_endo_writes_no_labels(kind):
    # an object hashes by its size and classify reads labels only to write
    # a witness, so the deterministic tensor of two identities, which has
    # none, leaves the labels of its domain and codomain unwritten
    idempotents._classify_cached.cache_clear()
    x = fin_object(["a", "b", "c"])
    e = tensor(identity(x, kind), identity(x, kind))
    report = classify(e)
    assert report.deterministic and report.static and report.strong and not report.witnesses
    assert e.dom._labels is None and e.cod._labels is None
    assert hash(e.dom) == hash(FinObject(e.dom.labels))


def test_duplicate_labels_are_refused():
    with pytest.raises(ValidationError, match="duplicate labels"):
        FinObject(["a", "b", "a"])
    with pytest.raises(ValidationError, match="duplicate labels"):
        fin_object(iter(["(a,b)", "(a,b)"]))


# ---------------------------------------------------------------------------
# round trips over adversarial labels
# ---------------------------------------------------------------------------

LABELS = (
    st.text(alphabet=",()\\•éa", max_size=4)
    | st.sampled_from(["", "•", "(p,q)", "((p,q),r)", "(p", "p)", "a,b", "\\", "\\\\,", "ü", "(,)"])
    | st.builds(lambda a, b: f"({a},{b})", st.text(alphabet=",()\\a", max_size=2), st.text(alphabet=",()\\b", max_size=2))
)
OBJECTS = st.lists(LABELS, min_size=1, max_size=3, unique=True).map(fin_object)


@settings(max_examples=300, deadline=None)
@given(OBJECTS, OBJECTS)
def test_tensor_labels_round_trip(x, y):
    t = tensor_object(x, y)
    assert t.labels == tuple(tensor_label_by_grammar(a, b) for a in x.labels for b in y.labels)
    parsed = _parsed(t)  # refuses a duplicate label, so the writing is injective here
    assert parsed == t and t == parsed and hash(parsed) == hash(t)
    assert split_tensor_labels(t, x.size) == (x, y)
    assert split_tensor_labels(parsed, x.size) == (x, y) == split_by_every_label(parsed, x.size)


@settings(max_examples=150, deadline=None)
@given(OBJECTS, OBJECTS, OBJECTS)
def test_nested_tensor_labels_round_trip(x, y, z):
    xy_z = _parsed(tensor_object(tensor_object(x, y), z))
    xy, right = split_tensor_labels(xy_z, x.size * y.size)
    assert right == z and split_tensor_labels(xy, x.size) == (x, y)
    x_yz = _parsed(tensor_object(x, tensor_object(y, z)))
    left, yz = split_tensor_labels(x_yz, x.size)
    assert left == x and split_tensor_labels(yz, y.size) == (y, z)


@settings(max_examples=150, deadline=None)
@given(OBJECTS, OBJECTS, st.sampled_from(list(Kind)), st.integers(0, 2**32))
def test_marginals_and_documents_round_trip(x, y, kind, seed):
    a = fin_object(["s", "t"])
    f = random_kernel(random.Random(seed), kind, a, tensor_object(x, y))
    ny = y.size
    for g in (f, parse_kernel(json.dumps(kernel_to_doc(f)))):
        assert g == f
        assert split_tensor_labels(g.cod, x.size) == (x, y)
        assert marginalize(g, x.size, "right") == compose(
            function_kernel(f.cod, x, [r // ny for r in range(f.cod.size)], kind), f)
        assert marginalize(g, x.size, "left") == compose(
            function_kernel(f.cod, y, [r % ny for r in range(f.cod.size)], kind), f)


@settings(max_examples=100, deadline=None)
@given(OBJECTS, OBJECTS)
def test_tensor_objects_pickle_and_copy(x, y):
    t = tensor_object(x, y)
    for again in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
        assert again == t and again.labels == t.labels and hash(again) == hash(t)
