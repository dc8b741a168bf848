"""Every kernel and record the library builds keeps the law of its kind.

``Kernel(...)`` refuses a column off the law, so no operation checks the
law again.  The library's other kernels come from the private ``_kernel``,
which trusts its stored columns.  `SITE_REASONS` says, for each function
that calls it, why the columns it passes are within the law when its
inputs are; the test runs every call site on seeded lawful inputs of each
kind it takes and checks each kernel built there with `validate`.  In the
same way the records the library derives come from the trusted
``_lawful``, and each equals its rebuild by its checked constructor.
"""

import ast
import dataclasses
import json
import random
import sys
from pathlib import Path

import finmarkov
from finmarkov import (
    UNIT,
    Kernel,
    Kind,
    ParamMorphism,
    SplitData,
    SuppCompCell,
    SuppCompMorphism,
    SupportData,
    associator,
    balanced_cross_check,
    blackwell_split,
    compose,
    conditional,
    copy_kernel,
    delta_kernel,
    discard_kernel,
    equalizer_factor,
    factor_through_support,
    identity,
    io_relation,
    left_unitor,
    marginalize,
    multi_kernel,
    pair,
    param_compose,
    param_lift,
    param_tensor,
    perturb_off_support,
    random_class_idempotent,
    right_unitor,
    right_unitor_inv,
    scomp_compose,
    scomp_hom,
    scomp_identity,
    scomp_support,
    scomp_tensor_cell,
    search_split,
    split_support,
    support,
    swap_kernel,
    tensor,
    tensor_object,
    validate,
)
from finmarkov import asrel, cli, functors, idempotents, kernel, supports
from finmarkov.kernel import inclusion_kernel
from finmarkov.rand import random_deterministic_kernel, random_kernel, random_kernel_supported_on
from oracles import random_object

SOURCE = Path(finmarkov.__file__).parent
MODULES = (kernel, asrel, cli, functors, idempotents, supports)

# why each function that calls ``_kernel`` keeps the law on lawful inputs
SITE_REASONS = {
    ("kernel.py", "function_kernel"): "each column is a point mass: one entry, equal to one",
    ("kernel.py", "multi_kernel"): "`_stored_columns` refuses an empty image before it is built",
    ("kernel.py", "compose"): "Σ_z Σ_y g(z|y)·f(y|a) = Σ_y f(y|a) = 1, nonnegative over Stoch; "
                              "over Multi the OR of the nonempty columns a nonempty f(a) reaches",
    ("kernel.py", "tensor"): "a product column sums to the product of the two sums, 1, and is nonempty over Multi",
    ("kernel.py", "pair"): "the product column f(a)⊗g(a), as in tensor",
    ("asrel.py", "perturb_off_support"): "f's columns, or columns of a lawful random state, its rotation "
                                         "by a permutation, or a point mass",
    ("cli.py", "kernel_from_doc"): "`_stored_columns` decides the law, and ParseError is raised before building",
    ("functors.py", "io_relation"): "a Stoch column sums to one, so it has a positive entry",
    ("functors.py", "conditional"): "a block of positive mass m over m sums to one; a block of mass zero, "
                                    "all zero over Stoch, becomes a point mass",
    ("supports.py", "_restrict_rows"): "callers drop only rows that every column leaves at zero",
    ("supports.py", "canonical_rep"): "reached columns are kept, the others become a point mass; a lawful "
                                      "kernel into an empty object has an empty domain",
    ("idempotents.py", "balanced_cross_check"): "one of e's columns as a state",
    ("idempotents.py", "_class_split"): "ι takes e's column at each class's first member; π(x) is the mass "
                                        "e(x) puts on each class, which sums to e(x)'s total, as every "
                                        "element e reaches lies in a class, and over Multi meets one",
}

# the kinds of the kernels a function builds, where not all three: Signed
# kernels have no supports and no class splitting, only Stoch ones have an
# input-output relation and a conditional, and images give Multi kernels
KINDS_BUILT = {
    "multi_kernel": {Kind.MULTI},
    "io_relation": {Kind.MULTI},
    "conditional": {Kind.STOCH},
    "_restrict_rows": {Kind.STOCH, Kind.MULTI},
    "canonical_rep": {Kind.STOCH, Kind.MULTI},
    "_class_split": {Kind.STOCH, Kind.MULTI},
}


def _sites() -> dict:
    """(file name, line) of each ``_kernel`` call in the library, mapped to
    the function it is in."""
    found = {}
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_kernel":
                        found[path.name, node.lineno] = func.name
    return found


def _exercise(rng: random.Random) -> None:
    """Run every ``_kernel`` site on lawful inputs of each kind it takes."""
    for kind in Kind:
        a, x, y = (random_object(rng, 4, p) for p in "axy")
        f, g = random_kernel(rng, kind, a, x), random_kernel(rng, kind, x, y)
        compose(g, f)
        compose(g, random_deterministic_kernel(rng, kind, a, x))
        tensor(f, g)
        joint = pair(f, random_kernel(rng, kind, a, y))
        for side in ("left", "right"):
            marginalize(joint, x.size, side)
        for structural in (identity(x, kind), copy_kernel(x, kind), discard_kernel(x, kind),
                           swap_kernel(x, y, kind), delta_kernel(x, x.labels[-1], kind),
                           associator(a, x, y, kind), left_unitor(x, kind), right_unitor(x, kind),
                           right_unitor_inv(x, kind), inclusion_kernel(x, [0], kind)):
            compose(structural, identity(structural.dom, kind))
        p = random_kernel_supported_on(rng, kind, UNIT, x, [0])
        perturb_off_support(random_kernel(rng, kind, x, random_object(rng, 3, "z", min_size=2)), p, rng.randrange(99))
        cli.parse_kernel(json.dumps(cli.kernel_to_doc(f)))
        multi_kernel(a, x, [[lbl for lbl in x.labels if rng.random() < 0.5] or [x.labels[0]] for _ in a.labels])
        e = random_class_idempotent(rng, x).idempotent
        if kind is Kind.SIGNED:
            e = Kernel(kind, x, x, e.matrix)
        elif kind is Kind.MULTI:
            e = io_relation(e)
        balanced_cross_check(e)
        if kind is Kind.STOCH:
            conditional(joint, x.size)
            blackwell_split(e)
        if kind is Kind.MULTI:
            search_split(e, x.size)
        if kind is not Kind.SIGNED:
            sd = split_support(f)
            factor_through_support(compose(e, f), support(compose(e, f)))
            factor_through_support(f, sd)
            det = random_deterministic_kernel(rng, kind, x, y)
            equalizer_factor(f, det, det)
            cell = SuppCompCell(a, p := random_kernel_supported_on(rng, kind, UNIT, a, [0]))
            scomp_hom(cell, SuppCompCell(x, compose(f, p)), f)


def test_every_private_construction_keeps_the_column_law(monkeypatch):
    sites = _sites()
    assert {(path, name) for (path, _), name in sites.items()} == set(SITE_REASONS)
    built: dict = {}
    real = kernel._kernel

    def recorded(kind, dom, cod, columns):
        caller = sys._getframe(1)
        k = real(kind, dom, cod, columns)
        built.setdefault((Path(caller.f_code.co_filename).name, caller.f_lineno), []).append(k)
        return k

    for module in MODULES:
        monkeypatch.setattr(module, "_kernel", recorded)
    idempotents._classify_cached.cache_clear()
    try:
        for seed in range(25):
            _exercise(random.Random(seed))
    finally:
        idempotents._classify_cached.cache_clear()
    assert set(built) == set(sites)
    kinds: dict = {}
    for site, kernels in built.items():
        assert all(validate(k) is None for k in kernels), (site, sites[site])
        kinds.setdefault(sites[site], set()).update(k.kind for k in kernels)
    assert kinds == {name: KINDS_BUILT.get(name, set(Kind)) for _, name in SITE_REASONS}


# the records whose constructors check their laws
CHECKED = (SupportData, SplitData, SuppCompCell, SuppCompMorphism, ParamMorphism)


def _rebuilt(record):
    """``record`` built again by its checked constructor from its fields,
    the checked records among them rebuilt first."""
    fields = [getattr(record, f.name) for f in dataclasses.fields(record)]
    return type(record)(*[_rebuilt(v) if isinstance(v, CHECKED) else v for v in fields])


def _derived_records(rng: random.Random, kind: Kind, n: int) -> list:
    """The supports, splittings, completion cells and morphisms and
    parametric morphisms the library derives from seeded lawful inputs of
    ``kind`` on objects of at most ``n`` elements."""
    a, b, c, w = (random_object(rng, n, prefix) for prefix in "abcw")
    f, g = random_kernel(rng, kind, a, b), random_kernel(rng, kind, b, c)
    ca = SuppCompCell(a, random_kernel(rng, kind, UNIT, a))
    cb = SuppCompCell(b, compose(f, ca.anchor))
    m_f, m_g = scomp_hom(ca, cb, f), scomp_hom(cb, SuppCompCell(c, compose(g, cb.anchor)), g)
    e = random_class_idempotent(rng, a).idempotent
    split = blackwell_split(e) if kind is Kind.STOCH else search_split(io_relation(e), a.size)
    lifted, other = param_lift(f, w), param_lift(random_kernel(rng, kind, c, a), w)
    inner = random_kernel(rng, kind, tensor_object(w, b), c)
    through = param_compose(ParamMorphism(w, b, c, inner), lifted)
    return [support(f), split_support(f), scomp_identity(ca), scomp_compose(m_g, m_f), *scomp_support(m_f),
            scomp_tensor_cell(ca, cb), split, lifted, through, param_tensor(lifted, other)]


def test_every_derived_record_equals_its_checked_rebuild():
    # each record the library builds with `_lawful` keeps the law its
    # constructor decides: no rebuild raises, and each gives the record back
    seen = set()
    for seed in range(40):
        rng = random.Random(seed)
        for kind in (Kind.STOCH, Kind.MULTI):
            for record in _derived_records(rng, kind, 1 + seed % 6):
                seen.add(type(record))
                assert _rebuilt(record) == record, (seed, kind, type(record).__name__)
    assert seen == set(CHECKED)
