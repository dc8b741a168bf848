"""Second procedures for verdicts the library decides once.

The library decides almost-sure equality, absolute continuity, supports,
conditionals and splittings by their direct characterisations for finite
kernels.  Each function here reaches the same result another way: by the
literal defining diagram, by recomposing what a call returned, or, for the
class splittings, by Tarjan's strongly connected components.  Of the
envelope comonoid laws, which the library decides on columns, the counit
laws and coassociativity are also composed with the unitors and the
associator, and discard naturality is sampled over random endomorphisms
and searched over constant maps.  The tests compare each with the
library's answer; the library never runs these.  The public checks
`verify_split` and `scomp_abs_cont` serve as oracles as well.  The CLI's
document parser and emitter, which work on stored columns, are checked
against the `Fraction` versions they replaced, and the parser's one walk
also against the parse-then-validate reader it replaced.  The pairing ⟨f,g⟩ is
checked against the literal tensor-then-copy composite (f⊗g)∘copy, and
the conditional and parametric constructions built on it against the
same constructions composed through tensors, copies and the associator.
The idempotent taxonomy, which the library reads off the stored columns
as support tests, is checked against the dense n³ scan of the two-step
equations; the class test, which reads a stochastic idempotent off its
supports, also against the column scan through e∘e that it replaced; and
detailed balance, which the library reads as the swap symmetry of the
two-step joint, against the dense n³ formula.  The
envelope comonoid laws and `env_ase`, which the library builds as
pairings, are checked against their tensor-then-copy composites, and
cocommutativity, which holds by construction, against the literal swap.
The laws, which the library reads from the copy and one
coassociativity side tested for reversal, are also checked against the
six pairing composites they were built from before.
Determinism almost surely, which the library reads off the columns the
reference reaches, is checked against the comonoid equation compared as
joints, and the seeded off-support perturbation, built on stored
columns, against the same draws on dense columns.
The envelope cells and morphisms, which the library derives from
lawful ones without checking the envelope laws again, are checked
against the whole absorption composites, and the cell constructor,
which asks `classify`, against e∘e composed.  The lift of a kernel to a
parametric kernel, built with a projection, is checked against the
unitor after discarding the parameter.
The stored columns that dense rows and parsed documents become, which
the library builds from each column's nonzero cells, are checked against
the column builder over every entry that it replaced.  The multivalued
readings the library takes off the set bits of its column masks
(supports, domination and its witness, restricted rows, the
Cauchy-Schwarz instance, document images and the dense view) are checked
against scans that test every row.  The Cauchy-Schwarz instance, which
the library decides over Stoch from the consequent alone, is checked
against the quadratic sums it decided by before, on every kind.
Conditional uniqueness, which the
library reads off the blocks of the joint's stored columns, is checked
against the literal reconstruction through tensors followed by the
almost-sure comparison, and the tensor-grid split, which parses the
first row and column, against parsing every label.  The enumerations, comparisons and
random objects only the tests use live here too, and so do the introduction's example kernels
and `raw_kernel`, which builds kernels off the column law that ``Kernel(...)`` refuses.
"""

import itertools
import json
import math
import random
import re
from fractions import Fraction
from functools import reduce
from operator import or_
from types import MappingProxyType

from finmarkov import (
    UNIT,
    BadSplit,
    CellMismatch,
    FinMarkovError,
    FinObject,
    Kernel,
    ShapeMismatch,
    IdempotentReport,
    Kind,
    NotAConditional,
    ParamMorphism,
    SplitData,
    ValidationError,
    ase_kernels,
    compose,
    copy_kernel,
    discard_kernel,
    env_compose,
    fin_object,
    function_kernel,
    identity,
    is_deterministic,
    kernel_equal,
    make_kernel,
    marginalize,
    pair,
    tensor,
    tensor_object,
    validate,
)
from finmarkov.cli import MAX_DIGITS, ParseError, _parse_entry, kernel_to_doc
from finmarkov.envelopes import (
    EnvelopeCell,
    EnvelopeMorphism,
    Flavor,
    MarkovLawReport,
    NotBalanced,
    NotHom,
)
from finmarkov.functors import comparison_base
from finmarkov.idempotents import CauchySchwarzInstance, StructureViolation, _sum_difference
from finmarkov.kernel import (
    _bits,
    _is_point_column,
    _kernel,
    _lawful,
    _reduced,
    associator,
    left_unitor,
    right_unitor,
    split_tensor_labels,
    support_indices,
    swap_kernel,
)
from finmarkov.rand import random_column, random_kernel

# ---------------------------------------------------------------------------
# the introduction's example kernels
# ---------------------------------------------------------------------------


def intro_state() -> Kernel:
    """The half/half/zero state on {a,b,c}."""
    x = fin_object(("a", "b", "c"))
    return make_kernel(Kind.STOCH, UNIT, x, [[Fraction(1, 2)], [Fraction(1, 2)], [0]])


def intro_functions() -> tuple[Kernel, Kernel]:
    """Deterministic pair {a,b,c} → {x,y,z} agreeing on a, b and
    differing at c."""
    src = fin_object(("a", "b", "c"))
    dst = fin_object(("x", "y", "z"))
    f = make_kernel(Kind.STOCH, src, dst, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    g = make_kernel(Kind.STOCH, src, dst, [[1, 0, 0], [0, 1, 1], [0, 0, 0]])
    return f, g


# ---------------------------------------------------------------------------
# enumerations and comparisons
# ---------------------------------------------------------------------------


def random_object(rng: random.Random, max_size: int, prefix: str = "x", min_size: int = 1) -> FinObject:
    n = min_size + rng.randrange(max_size - min_size + 1)
    return fin_object(f"{prefix}{i}" for i in range(n))


def deterministic_kernels(dom: FinObject, cod: FinObject, kind: Kind = Kind.STOCH) -> list:
    """All deterministic kernels dom → cod (|cod|^|dom| of them), lexicographic."""
    return [
        function_kernel(dom, cod, assignment, kind)
        for assignment in itertools.product(range(cod.size), repeat=dom.size)
    ]


def all_multi_kernels(dom: FinObject, cod: FinObject) -> list:
    """Every Multi kernel dom → cod, enumerated by column bitmasks."""
    masks = range(1, 2**cod.size)
    return [_kernel(Kind.MULTI, dom, cod, cols) for cols in itertools.product(masks, repeat=dom.size)]


def raw_kernel(kind: Kind, dom: FinObject, cod: FinObject, rows) -> Kernel:
    """A kernel from dense rows of the given shape with no column-law check,
    which ``Kernel(...)`` makes: stored columns by `columns_by_exact_column`,
    or over Multi the masks of the true entries.  The tests feed such
    kernels, and kernels into an empty object, to operations and references
    that work on any stored columns."""
    rows = [list(row) for row in rows]
    if kind is Kind.MULTI:
        dense = zip(*rows) if rows else [()] * dom.size
        return _kernel(kind, dom, cod, tuple(sum(1 << i for i, v in enumerate(col) if v) for col in dense))
    return _kernel(kind, dom, cod, columns_by_exact_column([[Fraction(v) for v in row] for row in rows], dom.size))


def kernel_refusal(kind: Kind, dom: FinObject, cod: FinObject, rows):
    """The violation `validate` reports on `raw_kernel`'s kernel of the rows,
    after checking that ``Kernel(...)`` refuses them with ValidationError
    and that violation's message."""
    bad = validate(raw_kernel(kind, dom, cod, rows))
    try:
        Kernel(kind, dom, cod, rows)
    except ValidationError as exc:
        if bad is None or str(exc) != bad.message:
            raise AssertionError(f"Kernel(...) refused the rows with {str(exc)!r}; validate found {bad}") from None
        return bad
    raise AssertionError(f"Kernel(...) accepted the rows; validate found {bad}")


def entry(k: Kernel, out_label: str, in_label: str):
    """The weight of ``out_label`` given ``in_label``, read off the stored
    column: a ``Fraction``, or a ``bool`` over Multi."""
    i, col = k.cod.index(out_label), k.columns[k.dom.index(in_label)]
    if k.kind is Kind.MULTI:
        return bool(col >> i & 1)
    den, cells = col
    return Fraction(dict(cells).get(i, 0), den)


def emit_kernel(k: Kernel, pretty: bool = False) -> str:
    """A kernel document as the CLI prints it."""
    return json.dumps(kernel_to_doc(k), indent=2 if pretty else None)


def param_equal(f: ParamMorphism, g: ParamMorphism) -> bool:
    return f.w == g.w and f.a == g.a and f.x == g.x and kernel_equal(f.inner, g.inner)


# ---------------------------------------------------------------------------
# almost-sure equality and absolute continuity
# ---------------------------------------------------------------------------


def joint_columns(p: Kernel, f: Kernel, w_size: int) -> list:
    """Stored columns of the defining diagram's joint: copy p's output,
    feed one copy into f alongside the parameter; column (w,a) holds
    p(x|a)·f(y|w,x) at row (x,y)."""
    nx, ny = p.cod.size, f.cod.size
    fcols = f.columns
    out = []
    for base in range(0, w_size * nx, max(nx, 1)):
        for pcol in p.columns:
            if p.kind is Kind.MULTI:  # disjoint bit blocks, so + is OR
                out.append(sum(fcols[base + x] << (x * ny) for x in range(nx) if pcol >> x & 1))
                continue
            pden, pcells = pcol
            lcd = math.lcm(*[fcols[base + x][0] for x, _ in pcells])
            cells = []
            for x, a in pcells:
                fden, fcells = fcols[base + x]
                scale = a * (lcd // fden)
                cells += [(x * ny + y, scale * b) for y, b in fcells]
            out.append(_reduced(pden * lcd, cells))
    return out


def ase_by_joint(p: Kernel, f: Kernel, g: Kernel, w_size: int = 1) -> bool:
    """Almost-sure equality by the defining equation: the joints agree."""
    return joint_columns(p, f, w_size) == joint_columns(p, g, w_size)


def witness_separates(q: Kernel, p: Kernel, witness) -> bool:
    """A refutation of q ≫ p: the pair agrees q-almost surely but not
    p-almost surely, at the named element."""
    low, high = witness.low, witness.high
    differs_at = [x for x in p.cod.labels if any(entry(low, b, x) != entry(high, b, x) for b in low.cod.labels)]
    return (
        ase_by_joint(q, low, high)
        and not ase_by_joint(p, low, high)
        and witness.element in differs_at
    )


def deterministic_as_by_equation(p: Kernel, f: Kernel) -> bool:
    """f deterministic p-almost surely by the defining equation: copy∘f
    and (f⊗f)∘copy agree p-almost surely, compared as literal joints."""
    return ase_by_joint(p, compose(copy_kernel(f.cod, f.kind), f), pair_by_copy(f, f))


def perturb_off_support_by_rows(f: Kernel, p: Kernel, seed: int) -> Kernel:
    """`perturb_off_support` on dense columns: the same seeded draws, a
    constant draw list rotated as a Python list, the point mass δ_0 as a
    dense column, and the result built from dense rows."""
    nx = p.cod.size
    if nx == 0 or f.dom.size % nx != 0:
        raise ShapeMismatch("domain of f does not end in the codomain of p")
    reached = set(support_indices(p))
    off = [j for j in range(f.dom.size) if j % nx not in reached]
    if not off or f.cod.size < 2:
        return f
    rng = random.Random(seed)
    given = [[row[j] for row in f.matrix] for j in range(f.dom.size)]
    cols = [list(col) for col in given]
    for j in off:
        cols[j] = list(random_column(rng, f.kind, f.cod.size))
    if all(cols[j] == given[j] for j in off):
        j = off[0]
        cols[j] = cols[j][1:] + cols[j][:1]
        if cols[j] == given[j]:
            cols[j] = [f.kind.one] + [f.kind.zero] * (f.cod.size - 1)
    rows = tuple(tuple(cols[j][i] for j in range(f.dom.size)) for i in range(f.cod.size))
    return Kernel(f.kind, f.dom, f.cod, rows)


# ---------------------------------------------------------------------------
# the comonoid equation and tensor-then-copy composites
# ---------------------------------------------------------------------------


def deterministic_by_comonoid(f: Kernel) -> bool:
    """Literal comonoid-equation determinism test (reference oracle)."""
    lhs = compose(copy_kernel(f.cod, f.kind), f)
    rhs = compose(tensor(f, f), copy_kernel(f.dom, f.kind))
    return kernel_equal(lhs, rhs)


def pair_by_copy(f: Kernel, g: Kernel) -> Kernel:
    """The pairing as the literal composite (f⊗g)∘copy."""
    return compose(tensor(f, g), copy_kernel(f.dom, f.kind))


def reconstruct_by_tensors(f: Kernel, cond: Kernel, split: int) -> Kernel:
    """The joint rebuilt from a conditional:
    (id_X ⊗ c)∘α∘(copy_X ⊗ id_A)∘(f_X ⊗ id_A)∘copy_A."""
    x_obj, _ = split_tensor_labels(f.cod, split)
    kind = f.kind
    marg = marginalize(f, split, "right")
    base = compose(tensor(marg, identity(f.dom, kind)), copy_kernel(f.dom, kind))
    copied = compose(
        associator(x_obj, x_obj, f.dom, kind),
        compose(tensor(copy_kernel(x_obj, kind), identity(f.dom, kind)), base),
    )
    return compose(tensor(identity(x_obj, kind), cond), copied)


def param_compose_by_tensors(g: ParamMorphism, f: ParamMorphism) -> ParamMorphism:
    """g∘f = g.inner ∘ (id_W ⊗ f.inner) ∘ α ∘ (copy_W ⊗ id_A)."""
    kind = f.inner.kind
    w, a = f.w, f.a
    spread = compose(associator(w, w, a, kind), tensor(copy_kernel(w, kind), identity(a, kind)))
    inner = compose(g.inner, compose(tensor(identity(w, kind), f.inner), spread))
    return ParamMorphism(w, a, g.x, inner)


def param_lift_by_unitor(f: Kernel, w: FinObject) -> ParamMorphism:
    """The lift with inner kernel f∘λ∘(discard_W⊗id_A)."""
    kind, a = f.kind, f.dom
    inner = compose(f, compose(left_unitor(a, kind), tensor(discard_kernel(w, kind), identity(a, kind))))
    return ParamMorphism(w, a, f.cod, inner)


def param_tensor_by_tensors(f: ParamMorphism, g: ParamMorphism) -> ParamMorphism:
    """(f.inner ⊗ g.inner) after the map (w,(a,b)) ↦ ((w,a),(w,b))."""
    kind = f.inner.kind
    w = f.w
    a, b = f.a, g.a
    ab = tensor_object(a, b)
    src = tensor_object(w, ab)
    dst = tensor_object(tensor_object(w, a), tensor_object(w, b))
    na, nb, nw = a.size, b.size, w.size
    targets = [
        (wi * na + ai) * (nw * nb) + wi * nb + bi
        for wi in range(nw)
        for ai in range(na)
        for bi in range(nb)
    ]
    distribute = function_kernel(src, dst, targets, kind)
    inner = compose(tensor(f.inner, g.inner), distribute)
    return ParamMorphism(w, ab, tensor_object(f.x, g.x), inner)


# ---------------------------------------------------------------------------
# the input-output relation and conditionals
# ---------------------------------------------------------------------------


def io_relation_by_states(p: Kernel) -> Kernel:
    """The relation read through every deterministic state I → A: the
    image of the j-th state is the set of outputs p∘state reaches."""
    states = deterministic_kernels(UNIT, p.dom)
    reached = [[row[0] for row in compose(p, s).matrix] for s in states]
    rows = [[col[i] > 0 for col in reached] for i in range(p.cod.size)]
    return Kernel(Kind.MULTI, p.dom, p.cod, rows)


def reconstruct_by_pairing(f: Kernel, cond: Kernel, split: int) -> Kernel:
    """The joint rebuilt from a conditional: ⟨π_X, c⟩∘b, with π_X: X⊗A → X
    the projection and b = `comparison_base(f, split)`."""
    base = comparison_base(f, split)
    x_obj, _ = split_tensor_labels(f.cod, split)
    to_x = function_kernel(base.cod, x_obj, [r // f.dom.size for r in range(base.cod.size)], f.kind)
    return compose(pair(to_x, cond), base)


def conditional_rebuilds(f: Kernel, cond: Kernel, split: int) -> bool:
    """Pairing the conditional with the first marginal gives back f."""
    return kernel_equal(reconstruct_by_pairing(f, cond, split), f)


def conditional_unique_by_tensors(f: Kernel, c1: Kernel, c2: Kernel, split=None) -> bool:
    """`verify_conditional_unique` by the literal route: each candidate
    rebuilds f through `reconstruct_by_tensors`, then the two are compared
    almost surely w.r.t. `comparison_base`."""
    if split is None:
        if f.dom.size == 0 or c1.dom.size % f.dom.size != 0:
            raise ShapeMismatch("cannot infer the split from the candidate's domain")
        split = c1.dom.size // f.dom.size
    if c1.dom != c2.dom or c1.cod != c2.cod:
        raise ShapeMismatch("candidates must be parallel")
    for c in (c1, c2):
        if reconstruct_by_tensors(f, c, split) != f:
            raise NotAConditional("candidate does not rebuild the joint")
    return ase_kernels(comparison_base(f, split), c1, c2)


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


def formal_split_recomposes(cell, proj, incl) -> bool:
    """proj∘incl is the identity of the cell (X,e) and incl∘proj is e on
    the plain cell (X,id)."""
    e = cell.endo
    inner, outer = env_compose(proj, incl), env_compose(incl, proj)
    plain = incl.dst
    return (
        inner.src == inner.dst == cell
        and kernel_equal(inner.kernel, e)
        and outer.src == outer.dst == plain
        and kernel_equal(plain.endo, identity(e.dom, e.kind))
        and kernel_equal(outer.kernel, e)
    )


def raw_cell(x: FinObject, e: Kernel, flavor) -> EnvelopeCell:
    """The cell (x, e) with no check, which ``EnvelopeCell(...)`` makes.
    The tests hold endos off the column law, which ``Kernel(...)`` refuses,
    in such cells, and the references below build their cells this way."""
    return _lawful(EnvelopeCell, x, e, flavor)


def raw_morphism(src: EnvelopeCell, dst: EnvelopeCell, k: Kernel) -> EnvelopeMorphism:
    """The morphism src → dst of k with no check, which
    ``EnvelopeMorphism(...)`` makes."""
    return _lawful(EnvelopeMorphism, src, dst, k)


def settled_by_composing(x: FinObject, e: Kernel) -> bool:
    """Whether e lives on x, satisfies its kind's column law and equals
    e∘e, composed."""
    return e.dom == x == e.cod and validate(e) is None and compose(e, e) == e


def hom_by_composing(src: EnvelopeCell, dst: EnvelopeCell, k: Kernel) -> EnvelopeMorphism:
    """The morphism src → dst of k, raising as ``EnvelopeMorphism(...)``
    does, with both absorption equations composed whole."""
    if k.dom != src.object or k.cod != dst.object:
        raise ShapeMismatch("kernel does not connect the given cells")
    if compose(k, src.endo) != k:
        raise NotHom("source idempotent is not absorbed (f∘e_src ≠ f)")
    if compose(dst.endo, k) != k:
        raise NotHom("target idempotent is not absorbed (e_dst∘f ≠ f)")
    return raw_morphism(src, dst, k)


def tensor_cell(a, b):
    """The tensor cell (X⊗Y, e_X⊗e_Y), from its definition."""
    if a.flavor is not b.flavor:
        raise CellMismatch("cells of different flavors")
    ten = tensor(a.endo, b.endo)
    return raw_cell(ten.dom, ten, a.flavor)


def env_tensor_by_tensors(f, g):
    """f⊗g with both absorption equations checked on the whole composites
    (f⊗g)∘(e₁⊗e₂) and (e₁'⊗e₂')∘(f⊗g)."""
    return hom_by_composing(tensor_cell(f.src, g.src), tensor_cell(f.dst, g.dst), tensor(f.kernel, g.kernel))


def copy_formula_by_tensor(cell):
    """The copy formula ⟨e,e⟩∘e into the cell (X⊗X, e⊗e), with both
    absorption equations checked on the composites with e and e⊗e."""
    e = cell.endo
    k = compose(pair(e, e), e)
    return hom_by_composing(cell, raw_cell(k.cod, tensor(e, e), cell.flavor), k)


def blackwell_copy_by_tensor(cell):
    if cell.flavor is not Flavor.BLACKWELL:
        raise NotBalanced("the copy formula is defined on Blackwell cells")
    return copy_formula_by_tensor(cell)


def env_split_idempotent_by_homs(cell) -> tuple:
    """e as the checked morphisms (X,id) → (X,e) and (X,e) → (X,id)."""
    e = cell.endo
    plain = raw_cell(cell.object, identity(e.dom, e.kind), cell.flavor)
    return hom_by_composing(plain, cell, e), hom_by_composing(cell, plain, e)


def comonoid_laws_by_structure(cell) -> tuple:
    """Counit laws and coassociativity through the unitors and the
    associator: λ∘(disc⊗e)∘copy = e, ρ∘(e⊗disc)∘copy = e and
    α∘(copy⊗e)∘copy = (e⊗copy)∘copy, with copy the cell's copy formula."""
    e = cell.endo
    kind, x = e.kind, e.dom
    cpy = copy_formula_by_tensor(cell).kernel
    disc = compose(discard_kernel(x, kind), e)
    left = compose(left_unitor(x, kind), compose(tensor(disc, e), cpy))
    right = compose(right_unitor(x, kind), compose(tensor(e, disc), cpy))
    lhs = compose(associator(x, x, x, kind), compose(tensor(cpy, e), cpy))
    rhs = compose(tensor(e, cpy), cpy)
    return kernel_equal(left, e), kernel_equal(right, e), kernel_equal(lhs, rhs)


def env_check_markov_laws_by_tensors(cell) -> MarkovLawReport:
    """The comonoid laws with each composite built as a tensor after the
    copy formula: (disc⊗e)∘cpy, (e⊗disc)∘cpy, (cpy⊗e)∘cpy and (e⊗cpy)∘cpy."""
    e = cell.endo
    kind = e.kind
    cpy = copy_formula_by_tensor(cell).kernel
    disc = compose(discard_kernel(e.dom, kind), e)
    counit_left = compose(tensor(disc, e), cpy).columns == e.columns
    counit_right = compose(tensor(e, disc), cpy).columns == e.columns
    coassociative = compose(tensor(cpy, e), cpy).columns == compose(tensor(e, cpy), cpy).columns
    cocommutative = kernel_equal(compose(swap_kernel(e.dom, e.dom, kind), cpy), cpy)
    discard_natural = is_deterministic(compose(disc, e)) or not support_indices(disc)
    return MarkovLawReport(counit_left, counit_right, coassociative, cocommutative, discard_natural)


def env_check_markov_laws_by_pairings(cell) -> MarkovLawReport:
    """The comonoid laws from six composites on every cell: the copy
    cpy = ⟨e,e⟩∘e, e∘e, the counit pairings ⟨disc, e∘e⟩∘e and ⟨e∘e, disc⟩∘e,
    and both coassociativity sides ⟨cpy, e∘e⟩∘e and ⟨e∘e, cpy⟩∘e.  Within
    the column law, which every cell's endo keeps, cocommutativity and
    discard naturality hold."""
    e = cell.endo
    cpy = compose(pair(e, e), e)
    ee, de = compose(e, e), discard_kernel(e.dom, e.kind)
    counit_left = compose(pair(de, ee), e).columns == e.columns
    counit_right = compose(pair(ee, de), e).columns == e.columns
    coassociative = compose(pair(cpy, ee), e).columns == compose(pair(ee, cpy), e).columns
    return MarkovLawReport(counit_left, counit_right, coassociative, True, True)


def env_ase_by_tensors(p, f, g) -> bool:
    """Almost-sure equality in the envelope with the joints
    (e⊗f)∘cpy∘p and (e⊗g)∘cpy∘p built through a tensor."""
    if f.src != p.dst or g.src != p.dst or f.dst != g.dst:
        raise ShapeMismatch("morphisms do not form an almost-sure comparison")
    if p.dst.flavor is not Flavor.BLACKWELL:
        raise NotBalanced("almost-sure comparison needs a Blackwell middle cell")
    mid = p.dst
    cpy = copy_formula_by_tensor(mid).kernel
    joint_f = compose(tensor(mid.endo, f.kernel), compose(cpy, p.kernel))
    joint_g = compose(tensor(mid.endo, g.kernel), compose(cpy, p.kernel))
    return kernel_equal(joint_f, joint_g)


def env_ase_by_copy_formula(p, f, g) -> bool:
    """`env_ase` with the middle cell's copy checked by the literal copy
    formula and e∘e composed on its own."""
    if f.src != p.dst or g.src != p.dst or f.dst != g.dst:
        raise ShapeMismatch("morphisms do not form an almost-sure comparison")
    if p.dst.flavor is not Flavor.BLACKWELL:
        raise NotBalanced("almost-sure comparison needs a Blackwell middle cell")
    e = p.dst.endo
    copy_formula_by_tensor(p.dst)
    ee, ep = compose(e, e), compose(e, p.kernel)
    joint_f = compose(pair(ee, compose(f.kernel, e)), ep)
    joint_g = compose(pair(ee, compose(g.kernel, e)), ep)
    return kernel_equal(joint_f, joint_g)


# random cell endomorphisms drawn to test discard naturality
ENDO_SAMPLES = 5


def discard_natural_by_sampling(cell, seed: int) -> bool:
    """Discard naturality as a sample: disc∘(e∘r∘e) = disc on
    ``ENDO_SAMPLES`` random valid r.  A True answer can miss a failure."""
    e = cell.endo
    kind = e.kind
    x = e.dom
    disc = compose(discard_kernel(x, kind), e)
    rng = random.Random(seed)
    discard_natural = True
    for _ in range(ENDO_SAMPLES):
        r = random_kernel(rng, kind, x, x)
        endo = compose(e, compose(r, e))
        if not kernel_equal(compose(disc, endo), disc):
            discard_natural = False
            break
    return discard_natural


def constant_map_witness(cell):
    """The first label c whose constant map r = (x ↦ c) breaks
    disc∘(e∘r∘e) = disc, or None when every constant map keeps it."""
    e = cell.endo
    x = e.dom
    disc = compose(discard_kernel(x, e.kind), e)
    for c, label in enumerate(x.labels):
        r = function_kernel(x, x, [c] * x.size, e.kind)
        if not kernel_equal(compose(disc, compose(e, compose(r, e))), disc):
            return label
    return None


# ---------------------------------------------------------------------------
# the idempotent taxonomy
# ---------------------------------------------------------------------------


def classify_by_scan(e: Kernel) -> IdempotentReport:
    """The taxonomy by the dense scan of all n³ (input, final, intermediate)
    cells of the two-step equations, with an n × n balance block per input."""
    # e = A/d with integer A and one denominator d, the lcm of the column
    # denominators (d = 1 and A = e as 0/1 over Multi, whose sums are
    # compared by truthiness only)
    kind = e.kind
    n = e.dom.size
    labels = e.dom.labels
    multi = kind is Kind.MULTI
    stored = [(1, [(y, 1) for y in range(n) if m >> y & 1]) for m in e.columns] if multi else e.columns
    d = math.lcm(*[den for den, _ in stored])
    cols = [[0] * n for _ in range(n)]
    for col, (den, cells) in zip(cols, stored):
        for y, num in cells:
            col[y] = num * (d // den)
    rows = list(zip(*cols))

    # idempotency: (A·A)(y|x) = d·A(y|x)
    for x in range(n):
        col_x = cols[x]
        square = [0] * n
        for w, a in enumerate(col_x):
            if not a:
                continue
            for y, b in enumerate(cols[w]):
                if b:
                    if multi:
                        square[y] = True
                    else:
                        square[y] += a * b
        for y in range(n):
            if square[y] != d * col_x[y]:
                return IdempotentReport(
                    False, False, False, False, False,
                    MappingProxyType({"idempotent": (labels[x], labels[y])}),
                )

    witnesses: dict = {}
    static = strong = balanced = True
    # scan order (input, final, intermediate); at scale d², the joint is
    # L(y,z|x) = A(y|x)·A(z|y), static wants [y=z]·d·A(y|x), strong
    # A(y|x)·A(z|x); balanced compares d·L with Σ_w A(y|w)·A(z|w)·A(w|x)
    for x in range(n):
        col_x = cols[x]
        block = None
        if balanced:
            # block[z][y] = Σ_w A(y|w)·A(z|w)·A(w|x), symmetric in y and z
            block = [[0] * n for _ in range(n)]
            for w, cw in enumerate(col_x):
                if not cw:
                    continue
                col_w = cols[w]
                support = [(z, b) for z, b in enumerate(col_w) if b]
                for y, a in support:
                    row = block[y]
                    if multi:
                        for z, _ in support:
                            row[z] = True
                    else:
                        acw = a * cw
                        for z, b in support:
                            row[z] += acw * b
        for z in range(n):
            row_z = rows[z]
            block_z = block[z] if balanced else None
            for y in range(n):
                ey = col_x[y]
                lhs = ey * row_z[y]
                if static and lhs != (d * ey if y == z else 0):
                    static = False
                    witnesses.setdefault("static", (labels[x], labels[z], labels[y]))
                if strong and lhs != ey * col_x[z]:
                    strong = False
                    witnesses.setdefault("strong", (labels[x], labels[z], labels[y]))
                if balanced and d * lhs != block_z[y]:
                    balanced = False
                    witnesses.setdefault("balanced", (labels[x], labels[z], labels[y]))
        if not (static or strong or balanced):
            break
    deterministic = is_deterministic(e)
    if not deterministic:
        j = next(j for j, col in enumerate(e.columns) if not _is_point_column(kind, col))
        witnesses["deterministic"] = (labels[j],)
    if (static or strong) and not balanced:
        raise StructureViolation("a static or strong idempotent must be balanced")
    if static and strong and not deterministic:
        raise StructureViolation("a static and strong idempotent must be deterministic")
    return IdempotentReport(
        True, deterministic, static, strong, balanced, MappingProxyType(witnesses)
    )


def _support_failure(kind: Kind, A: list, off: list, want):
    """The first (input, final, intermediate) index triple failing a support
    test, or None.  The first input x with a nonzero mask ``off[x]`` of
    intermediates y fails, at the lowest final z where A(z|y) differs from
    want(x, y)[z], with the first y that differs there."""
    x = next((x for x, m in enumerate(off) if m), None)
    if x is None:
        return None
    wants = [(y, A[y], want(x, y)) for y in _bits(off[x])]
    if kind is Kind.MULTI:  # the lowest set bit of a column difference, then the first y
        return x, *min((next(_bits(a ^ b)), y) for y, a, b in wants)
    return next((x, z, y) for z in range(len(A)) for y, a, b in wants if a.get(z, 0) != b.get(z, 0))


def _balance_failure(kind: Kind, cols: tuple, A: list, d: int, same: dict):
    """The first (input, final, intermediate) index triple at which the
    idempotent e = A/d has e(y|x)·e(z|y) ≠ Σ_w e(y|w)·e(z|w)·e(w|x), or
    None; both sides are compared at scale d³, a pair (z, y) as z·n + y."""
    n = len(cols)
    if kind is Kind.MULTI:
        # only the first input whose image holds a non-block element can fail; lhs
        # ORs spread(e(y)) << y, rhs e(w)·spread(e(w)), spread(m) putting z at z·n
        loose = sum(1 << y for y, m in enumerate(cols) if not m >> y & 1 or m & ~same[m])
        x = next((x for x, m in enumerate(cols) if m & loose), None)
        lhs = rhs = 0
        for y in _bits(0 if x is None else cols[x]):
            spread = sum(1 << z * n for z in _bits(cols[y]))
            lhs, rhs = lhs | spread << y, rhs | spread * cols[y]
        return (x, *divmod(next(_bits(lhs ^ rhs)), n)) if lhs != rhs else None
    for x in range(n):
        lhs = {z * n + y: d * a * b for y, a in A[x].items() for z, b in A[y].items()}
        rhs = [(z * n + y, c * a * b) for w, c in A[x].items()
               for y, a in A[w].items() for z, b in A[w].items()]
        at = _sum_difference(rhs, lhs)
        if at is not None:
            return (x, *divmod(at, n))
    return None


def classify_by_columns(e: Kernel) -> IdempotentReport:
    """The taxonomy as the library decided it on every kernel before the
    class test: e∘e column by column over one denominator, then the support
    scans for static and strong and the two-step sums for balanced."""
    kind, labels, cols = e.kind, e.dom.labels, e.columns
    multi = kind is Kind.MULTI
    n = len(cols)
    # e = A/d over one denominator, a column of A a dict of its nonzero
    # rows; over Multi d = 1 and A = e, each column the mask of its image
    d = 1 if multi else math.lcm(*[den for den, _ in cols])
    A = cols if multi else [{y: num * (d // den) for y, num in cells} for den, cells in cols]
    for x, col in enumerate(A):
        if multi:  # (e∘e)(x) is the OR of the columns e(x) reaches
            y = next(_bits(reduce(or_, [cols[w] for w in _bits(col)], 0) ^ col), None)
        else:
            y = _sum_difference([(y, a * b) for w, a in col.items() for y, b in A[w].items()],
                                {y: d * a for y, a in col.items()})
        if y is not None:
            return IdempotentReport(
                False, False, False, False, False, MappingProxyType({"idempotent": (labels[x], labels[y])})
            )

    masks = cols if multi else [sum(1 << y for y in col) for col in A]
    same: dict = {}  # each stored column → the inputs whose column it is
    for x, col in enumerate(cols):
        same[col] = same.get(col, 0) | 1 << x
    point = [1 << y if multi else {y: d} for y in range(n)]  # the point column at y
    unfixed = sum(1 << y for y in range(n) if A[y] != point[y])
    failures = (
        ("static", _support_failure(kind, A, [m & unfixed for m in masks], lambda x, y: point[y])),
        ("strong", _support_failure(kind, A, [m & ~same[c] for m, c in zip(masks, cols)], lambda x, y: A[x])),
        ("balanced", _balance_failure(kind, cols, A, d, same)),
    )
    static, strong, balanced = (at is None for _, at in failures)
    # witnesses in the order the scan meets them, the flags in this order at one cell
    found = sorted((at, rank, name) for rank, (name, at) in enumerate(failures) if at is not None)
    witnesses = {name: tuple(labels[i] for i in at) for at, _, name in found}
    deterministic = is_deterministic(e)
    if not deterministic:
        j = next(j for j, col in enumerate(cols) if not _is_point_column(kind, col))
        witnesses["deterministic"] = (labels[j],)
    if (static or strong) and not balanced:
        raise StructureViolation("a static or strong idempotent must be balanced")
    if static and strong and not deterministic:
        raise StructureViolation("a static and strong idempotent must be deterministic")
    return IdempotentReport(True, deterministic, static, strong, balanced, MappingProxyType(witnesses))


def detailed_balance_by_scan(e: Kernel) -> bool:
    """Detailed balance e(y|z)·e(z|x) = e(z|y)·e(y|x) over all n³ triples
    of the dense view; bools multiply as 0/1, so one product serves every
    kind."""
    m, n = e.matrix, e.dom.size
    return all(m[y][z] * m[z][x] == m[z][y] * m[y][x] for x in range(n) for y in range(n) for z in range(n))



# ---------------------------------------------------------------------------
# splitting through classes
# ---------------------------------------------------------------------------


def strongly_connected_components(adjacency: list) -> list:
    """Iterative Tarjan; components listed in a deterministic order."""
    n = len(adjacency)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list = []
    components: list = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(adjacency[v])):
                u = adjacency[v][k]
                if index[u] == -1:
                    work[-1] = (v, k + 1)
                    work.append((u, 0))
                    advanced = True
                    break
                if on_stack[u]:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    comp.append(u)
                    if u == v:
                        break
                components.append(comp)
    return components


def class_decomposition(e: Kernel) -> SplitData:
    """The splitting of an idempotent through its closed classes, found by
    Tarjan's algorithm on the digraph x→y iff e(y|x) > 0 and read from the
    dense view: the closed strongly connected components, ordered by
    smallest member, are the classes; ι(t) is e's column at the first
    member of class t; π(t|x) is the mass e(x) puts on class t, or
    whether e(x) meets it over Multi.  Middle elements are C_<first
    member> over Stoch and t0, t1, … over Multi."""
    n, rows, labels = e.dom.size, e.matrix, e.dom.labels
    adjacency = [[y for y in range(n) if rows[y][x] > 0] for x in range(n)]
    components = strongly_connected_components(adjacency)
    comp_of = {v: ci for ci, comp in enumerate(components) for v in comp}
    closed = sorted(
        (sorted(comp) for ci, comp in enumerate(components)
         if all(comp_of[y] == ci for x in comp for y in adjacency[x])),
        key=min,
    )
    multi = e.kind is Kind.MULTI
    middle = FinObject(tuple(f"t{t}" if multi else "C_" + labels[comp[0]] for t, comp in enumerate(closed)))
    iota = Kernel(e.kind, middle, e.cod, [[rows[y][comp[0]] for comp in closed] for y in range(n)])

    def mass(comp, x):
        weights = [rows[y][x] for y in comp]
        return any(weights) if multi else sum(weights, Fraction(0))

    pi = Kernel(e.kind, e.dom, middle, [[mass(comp, x) for x in range(n)] for comp in closed])
    recurrent = {v for comp in closed for v in comp}
    classes = tuple(tuple(labels[v] for v in comp) for comp in closed)
    transient = tuple(labels[v] for v in range(n) if v not in recurrent)
    return SplitData(middle, pi, iota, classes, transient)


# ---------------------------------------------------------------------------
# supports
# ---------------------------------------------------------------------------


def recomposes(outer: Kernel, inner: Kernel, whole: Kernel) -> bool:
    """outer∘inner rebuilds whole: a factorization closes."""
    return kernel_equal(compose(outer, inner), whole)


def projection_is_section(p: Kernel, sd) -> bool:
    """ι∘π is p-almost surely the identity, by the defining equation."""
    return ase_by_joint(p, compose(sd.inclusion, sd.projection), identity(p.cod, p.kind))


# ---------------------------------------------------------------------------
# stored columns and kernel documents
# ---------------------------------------------------------------------------


def well_formed_by_grammar(label: str) -> bool:
    """Whether a label is written unchanged inside a tensor label: it holds
    no backslash and is an atom, holding none of , ( ), or "(a,b)" with a
    and b well-formed, tried at every comma."""
    if "\\" in label:
        return False
    if not any(ch in ",()" for ch in label):
        return True
    if not (label.startswith("(") and label.endswith(")")):
        return False
    body = label[1:-1]
    return any(ch == "," and well_formed_by_grammar(body[:k]) and well_formed_by_grammar(body[k + 1 :])
               for k, ch in enumerate(body))


def write_by_grammar(label: str) -> str:
    """A factor label inside a tensor label: unchanged when well-formed,
    else with a backslash before each of its \\ , ( )."""
    if well_formed_by_grammar(label):
        return label
    return "".join("\\" + ch if ch in "\\,()" else ch for ch in label)


def tensor_label_by_grammar(a: str, b: str) -> str:
    return "(" + write_by_grammar(a) + "," + write_by_grammar(b) + ")"


def split_by_every_label(obj: FinObject, left_size: int) -> tuple:
    """The two factors of a tensor-built object, parsing every label at
    its first comma outside parentheses and escapes, unescaping each side,
    and comparing each label with the one written from its pair."""
    n = obj.size
    if left_size <= 0 or n == 0 or n % left_size != 0:
        raise BadSplit(f"object of size {n} does not factor with left size {left_size}")
    right_size = n // left_size

    def unescape(side: str) -> str:
        out, chars = [], iter(side)
        for ch in chars:
            out.append(next(chars, ch) if ch == "\\" else ch)
        return "".join(out)

    def unpair(label: str) -> tuple:
        if not (label.startswith("(") and label.endswith(")")):
            raise BadSplit(f"label {label!r} is not a tensor pair")
        body, depth, escaped = label[1:-1], 0, False
        for k, ch in enumerate(body):
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == "," and depth == 0:
                return unescape(body[:k]), unescape(body[k + 1 :])
            else:
                depth += (ch == "(") - (ch == ")")
        raise BadSplit(f"label {label!r} has no top-level comma")

    pairs = [unpair(lbl) for lbl in obj.labels]
    left = tuple(pairs[i * right_size][0] for i in range(left_size))
    right = tuple(pairs[j][1] for j in range(right_size))
    for i in range(left_size):
        for j in range(right_size):
            if obj.labels[i * right_size + j] != tensor_label_by_grammar(left[i], right[j]):
                raise BadSplit(f"labels of {obj.labels} are not a consistent tensor grid")
    return FinObject(left), FinObject(right)


def exact_column(ratios) -> tuple:
    """Canonical stored column of dense entries given as reduced
    ``(num, den)`` pairs with ``den > 0``: the lcm of every denominator,
    zeros included, and the nonzero numerators scaled to it."""
    den = math.lcm(*[d for _, d in ratios])
    cells = tuple((i, n * (den // d)) for i, (n, d) in enumerate(ratios) if n)
    return (den, cells) if cells else (1, ())


def columns_by_exact_column(rows, width: int) -> tuple:
    """The stored columns of dense Stoch or Signed rows of ``width``
    entries, one `exact_column` per column."""
    dense = zip(*rows) if rows else [()] * width
    return tuple(exact_column([v.as_integer_ratio() for v in col]) for col in dense)


_ENTRY = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _int(text: str, where: str = "integer literal") -> int:
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise ParseError(f"{where}: numeral longer than {MAX_DIGITS} digits")
    return int(text)


def _fraction_entry(value, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError(f"{where}: entries must be integers or 'n/d' strings, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _ENTRY.fullmatch(value)
        if match is None:
            raise ParseError(f"{where}: bad fraction {value[:40]!r}")
        num = _int(match.group(1), where)
        den = _int(match.group(2) or "1", where)
        if den == 0:
            raise ParseError(f"{where}: zero denominator in {value!r}")
        return Fraction(num, den)
    raise ParseError(f"{where}: bad entry {value!r}")


def _doc_header(doc) -> tuple:
    """The kind, domain and codomain of a decoded document."""
    if not isinstance(doc, dict):
        raise ParseError("kernel document must be a JSON object")
    for field in ("kind", "dom", "cod"):
        if field not in doc:
            raise ParseError(f"missing field {field!r}")
    try:
        kind = Kind(doc["kind"])
    except ValueError:
        raise ParseError(f"unknown kind {doc['kind']!r}") from None
    for field in ("dom", "cod"):
        labels = doc[field]
        if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
            raise ParseError(f"field {field!r} must be an array of strings")
    try:
        dom = FinObject(tuple(doc["dom"]))
        cod = FinObject(tuple(doc["cod"]))
    except FinMarkovError as exc:
        raise ParseError(str(exc)) from exc
    return kind, dom, cod


def parse_kernel_by_fractions(text: str) -> Kernel:
    """The document parser over dense rows: one `Fraction` (or `bool`) per
    entry, handed to the dense constructor."""
    try:
        doc = json.loads(text, parse_int=_int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    kind, dom, cod = _doc_header(doc)
    if kind is Kind.MULTI:
        images = doc.get("images")
        if images is None:
            raise ParseError("multi kernels carry 'images'")
        if not isinstance(images, list) or len(images) != dom.size:
            raise ParseError("'images' must list one array per domain element")
        rows = [[False] * dom.size for _ in range(cod.size)]
        for j, image in enumerate(images):
            if not isinstance(image, list):
                raise ParseError(f"images[{j}] must be an array of labels")
            for lbl in image:
                if not isinstance(lbl, str) or lbl not in cod.labels:
                    raise ParseError(f"images[{j}]: unknown codomain label {lbl!r}")
                rows[cod.index(lbl)][j] = True
    else:
        matrix = doc.get("matrix")
        if matrix is None:
            raise ParseError("stoch/signed kernels carry 'matrix'")
        if not isinstance(matrix, list) or len(matrix) != cod.size:
            raise ParseError(f"'matrix' must have {cod.size} rows")
        rows = []
        for i, row in enumerate(matrix):
            if not isinstance(row, list) or len(row) != dom.size:
                raise ParseError(f"matrix row {i} must have {dom.size} entries")
            rows.append([_fraction_entry(v, f"matrix[{i}][{j}]") for j, v in enumerate(row)])
    try:
        return Kernel(kind, dom, cod, rows)
    except ValidationError as exc:  # the column law; the entries are already checked
        raise ParseError(f"validation failed: {exc}") from None


def _ratio_column(cells: list) -> tuple:
    """Canonical stored column of nonzero ``(row, (num, den))`` cells,
    ascending in row, each a reduced fraction with ``den > 0``: every
    numerator scaled to the lcm of the denominators, taken at once."""
    den = math.lcm(*{d for _, (_, d) in cells})
    return den, tuple([(i, num * (den // d)) for i, (num, d) in cells])


def kernel_from_doc_then_validate(doc) -> Kernel:
    """The stored-column reader that one-walk ingest replaced: each distinct
    entry string parsed once, each column built by `_ratio_column`, and then
    `validate` on the whole kernel; independent of the library's builder."""
    kind, dom, cod = _doc_header(doc)
    if kind is Kind.MULTI:
        images = doc.get("images")
        if images is None:
            raise ParseError("multi kernels carry 'images'")
        if not isinstance(images, list) or len(images) != dom.size:
            raise ParseError("'images' must list one array per domain element")
        masks = []
        for j, image in enumerate(images):
            if not isinstance(image, list):
                raise ParseError(f"images[{j}] must be an array of labels")
            mask = 0
            for lbl in image:
                if not isinstance(lbl, str) or lbl not in cod.labels:
                    raise ParseError(f"images[{j}]: unknown codomain label {lbl!r}")
                mask |= 1 << cod.index(lbl)
            masks.append(mask)
        columns = tuple(masks)
    else:
        matrix = doc.get("matrix")
        if matrix is None:
            raise ParseError("stoch/signed kernels carry 'matrix'")
        if not isinstance(matrix, list) or len(matrix) != cod.size:
            raise ParseError(f"'matrix' must have {cod.size} rows")
        cells: list[list] = [[] for _ in range(dom.size)]
        parsed: dict[str, tuple[int, int]] = {}
        for i, row in enumerate(matrix):
            if not isinstance(row, list) or len(row) != dom.size:
                raise ParseError(f"matrix row {i} must have {dom.size} entries")
            for j, v in enumerate(row):
                if type(v) is int:
                    r = (v, 1)
                elif (r := parsed.get(v) if type(v) is str else None) is None:
                    try:
                        r = parsed[v] = _parse_entry(v)
                    except ParseError as exc:
                        raise ParseError(f"matrix[{i}][{j}]: {exc}") from None
                if r[0]:
                    cells[j].append((i, r))
        columns = tuple(map(_ratio_column, cells))
    k = _kernel(kind, dom, cod, columns)
    bad = validate(k)
    if bad is not None:
        raise ParseError(f"validation failed: {bad.message}")
    return k


def _fraction_text(v):
    if v.denominator == 1:
        return int(v)
    return f"{v.numerator}/{v.denominator}"


def emit_kernel_by_fractions(k: Kernel, pretty: bool = False) -> str:
    """The document emitter over the dense view, one entry at a time."""
    doc = {"kind": k.kind.value, "dom": list(k.dom.labels), "cod": list(k.cod.labels)}
    if k.kind is Kind.MULTI:
        doc["images"] = [[k.cod.labels[i] for i in range(k.cod.size) if k.matrix[i][j]] for j in range(k.dom.size)]
    else:
        doc["matrix"] = [[_fraction_text(v) for v in row] for row in k.matrix]
    return json.dumps(doc, indent=2 if pretty else None)


# ---------------------------------------------------------------------------
# multivalued readings by scanning every row
# ---------------------------------------------------------------------------


def rows_by_scan(mask: int, n: int) -> list:
    """The rows i < n whose bit is set in ``mask``, testing each row."""
    return [i for i in range(n) if mask >> i & 1]


def support_indices_by_scan(k: Kernel) -> tuple:
    """The rows some column of a Multi kernel reaches, testing every row
    against every column."""
    return tuple(i for i in range(k.cod.size) if any(mask >> i & 1 for mask in k.columns))


def abs_cont_by_scan(q: Kernel, p: Kernel) -> bool:
    """p ≪ q as inclusion of the scanned supports."""
    return set(support_indices_by_scan(p)) <= set(support_indices_by_scan(q))


def refuting_element_by_scan(q: Kernel, p: Kernel):
    """The label of the first element p reaches and q does not, or None."""
    reached = set(support_indices_by_scan(q))
    return next((p.cod.labels[i] for i in support_indices_by_scan(p) if i not in reached), None)


def restrict_rows_by_scan(k: Kernel, idx) -> tuple:
    """The Multi columns of k cut down to the rows ``idx``, testing each."""
    return tuple(sum(1 << s for s, i in enumerate(idx) if mask >> i & 1) for mask in k.columns)


def images_by_scan(k: Kernel) -> list:
    """The image labels of every column of a Multi kernel, in codomain order."""
    return [[lbl for i, lbl in enumerate(k.cod.labels) if mask >> i & 1] for mask in k.columns]


def matrix_by_scan(k: Kernel) -> tuple:
    """The dense boolean view of a Multi kernel, one test per cell."""
    return tuple(tuple(bool(mask >> i & 1) for mask in k.columns) for i in range(k.cod.size))


def cauchy_schwarz_multi_by_scan(f: Kernel, g: Kernel, h: Kernel) -> tuple:
    """(antecedent, consequent) of the Cauchy-Schwarz instance along
    relations f: A→B, g: B→X, h: X→Y, from the definitions over sets.

    antecedent: at every a, the pairs (y₁, y₂) that one sample of h∘g
    reaches twice from some b ∈ f(a) are those that h reaches twice from
    some x ∈ g(b); consequent: h(x) = (h∘g)(b) for every b that f reaches
    and every x ∈ g(b)."""
    G = [rows_by_scan(mask, h.dom.size) for mask in g.columns]
    H = [set(rows_by_scan(mask, h.cod.size)) for mask in h.columns]
    HG = [set().union(*[H[x] for x in xs]) for xs in G]
    F = [rows_by_scan(mask, g.dom.size) for mask in f.columns]
    antecedent = all(
        {(y1, y2) for b in bs for y1 in HG[b] for y2 in HG[b]}
        == {(y1, y2) for b in bs for x in G[b] for y1 in H[x] for y2 in H[x]}
        for bs in F
    )
    consequent = all(H[x] == HG[b] for b in {b for bs in F for b in bs} for x in G[b])
    return antecedent, consequent


def cauchy_schwarz_by_sums(f: Kernel, g: Kernel, h: Kernel) -> CauchySchwarzInstance:
    """Both sides of the Cauchy-Schwarz instance along f: A→B, g: B→X,
    h: X→Y, decided on the stored columns for every kind: the antecedent
    by the quadratic sums P_b·P_bᵀ − G_b·T_b per column b of g weighed by
    f (pair bitmasks over Multi), the consequent against h∘g composed."""
    if f.kind is not g.kind or g.kind is not h.kind:
        raise ShapeMismatch("all three kernels must have the same kind")
    if f.cod != g.dom or g.cod != h.dom:
        raise ShapeMismatch("kernels must form a chain A→B→X→Y")
    ny = h.cod.size
    gcols, hcols = g.columns, h.columns
    hgcols = compose(h, g).columns
    # a pair (y₁, y₂) is the index y₁·ny + y₂
    if f.kind is Kind.MULTI:
        # the pairs one sample reaches from b are (hg)(b)², those two samples
        # reach from a are the union of h(x)² over x in (g∘f)(a)
        xs = [list(_bits(mask)) for mask in gcols]
        ones, twos = ([sum(m << y * ny for y in _bits(m)) for m in ms] for ms in (hgcols, hcols))  # squares
        antecedent = all(
            reduce(or_, [ones[b] for b in _bits(fm)], 0) == reduce(or_, [twos[x] for x in _bits(gfm)], 0)
            for fm, gfm in zip(f.columns, compose(g, f).columns))
    else:
        # h = A/H over one denominator; for column b of g over G_b, at scale
        # H²·G_b² the one-sample minus two-sample term is P_b(y₁)·P_b(y₂) −
        # G_b·T_b(y₁,y₂), with P_b = Σ_x A·g and T_b = Σ_x A·A·g; each term
        # is lifted to G = lcm G_b so that f's numerators weigh them directly
        H = math.lcm(*[den for den, _ in hcols])
        hnums = [[(y, num * (H // den)) for y, num in cells] for den, cells in hcols]
        G = math.lcm(*[den for den, _ in gcols])
        xs = [[x for x, _ in cells] for _, cells in gcols]
        diffs = []
        for gden, gcells in gcols:
            p: dict = {}
            diff: dict = {}
            for x, c in gcells:
                cells = hnums[x]
                for y1, a1 in cells:
                    p[y1] = p.get(y1, 0) + a1 * c
                    for y2, a2 in cells:
                        k = y1 * ny + y2
                        diff[k] = diff.get(k, 0) - gden * a1 * a2 * c
            for y1, p1 in p.items():
                for y2, p2 in p.items():
                    k = y1 * ny + y2
                    diff[k] = diff.get(k, 0) + p1 * p2
            lift = (G // gden) ** 2
            diffs.append([(k, v * lift) for k, v in diff.items() if v])
        antecedent = True
        for _, fcells in f.columns:
            acc: dict = {}
            for b, w in fcells:
                for k, v in diffs[b]:
                    acc[k] = acc.get(k, 0) + w * v
            if any(acc.values()):
                antecedent = False
                break

    # g(x|b) ≠ 0 forces h(·|x) = (hg)(·|b); stored columns are canonical
    consequent = all(hcols[x] == hgcols[b] for b in support_indices(f) for x in xs[b])
    return CauchySchwarzInstance(antecedent, consequent)
