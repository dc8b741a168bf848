"""Idempotent taxonomy, splitting of stochastic and balanced multivalued
idempotents through their classes, and the Cauchy-Schwarz implication
checker.

An idempotent endomorphism e is classified by comparing the two-step
joint L((y,z)|x) = e(y|x)·e(z|y) (first output intermediate, second
final) against three reference shapes:

    static    L(y,z|x) = [y=z]·e(y|x)
    strong    L(y,z|x) = e(y|x)·e(z|x)
    balanced  L(y,z|x) = Σ_w e(y|w)·e(z|w)·e(w|x)

`classify` decides each on the stored columns.  A stochastic or
multivalued kernel passing the class test of `classify` splits through its
classes: it is balanced, static iff every class is a singleton and strong
iff every column meets one class.  Any other kernel checks e∘e = e column
by column, an exact column over its own lcd as in `compose`; an idempotent
is then decided by the definitions, input by input: at each x the joint
column and the three reference columns are built from the stored columns,
as bitmasks over Multi and as integer sums over one common denominator
otherwise, and a flag fails at the lowest (final, intermediate) pair where
they differ.  A witness is the first failing (input, final, intermediate)
label triple in that scan order.

Both splittings come from one construction on the stored columns.  The
recurrent elements are those some column reaches, and the class of a
recurrent element is the support of its column.  Over Stoch, e = eⁿ puts
no mass on transient states, and each closed class carries a stationary
column of e with full support on it.  Over Multi, only balanced
idempotents split, and their images are unions of blocks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import itemgetter, or_
from types import MappingProxyType
from typing import Mapping

from .asrel import CausalityInstance, UnsupportedKind, ase_kernels
from .kernel import (
    UNIT,
    FinMarkovError,
    FinObject,
    Kernel,
    Kind,
    ShapeMismatch,
    _bits,
    _column_composite,
    _is_point_column,
    _kernel,
    _lawful,
    _reduced,
    compose,
    fin_object,
    identity,
    is_deterministic,
    kernel_equal,
    pair,
    support_indices,
    swap_kernel,
)
from .rand import random_full_support_column, random_stoch_column


class NotEndo(FinMarkovError):
    """Endomorphism required."""


class NotIdempotent(FinMarkovError):
    """e∘e differs from e."""


class StructureViolation(FinMarkovError):
    """Internal invariant of the splitting construction failed; indicates
    the input was not a genuine idempotent (or a defect)."""


class NotASplitting(FinMarkovError):
    """The given pair does not split the idempotent."""


def two_step(e: Kernel) -> Kernel:
    """Run the chain twice recording the intermediate value:
    result((y,z)|x) = e(y|x)·e(z|y), the pairing ⟨id, e⟩∘e."""
    if e.dom != e.cod:
        raise NotEndo("two-step chain needs an endomorphism")
    return compose(pair(identity(e.dom, e.kind), e), e)


@dataclass(frozen=True)
class IdempotentReport:
    """Flags of the idempotent taxonomy plus witnesses for failures.

    ``witnesses`` maps a failed flag name to the label tuple of the first
    violated entry: (input, output) for idempotency, (input,) for
    determinism, (input, final, intermediate) for the two-step checks.
    All flags are False when the kernel is not idempotent.
    """

    idempotent: bool
    deterministic: bool
    static: bool
    strong: bool
    balanced: bool
    witnesses: Mapping[str, tuple]

    def flags(self) -> dict:
        return {name: flag for name, flag in vars(self).items() if name != "witnesses"}


def classify(e: Kernel) -> IdempotentReport:
    """Classify an endomorphism; non-idempotents get all flags False.

    The class test: a Stoch or Multi kernel is e = ι∘π with π∘ι = id when
    each reached y lies in the support S_y of its column, the columns are
    equal on each S_y, and every other column covers each class it meets:
    proportional there to the class's column over Stoch, the OR of the
    columns it reaches over Multi.  Then static first
    fails at the first input reaching a class of two or more, at the lowest
    first member t of those classes as final, and strong at the first input
    x meeting two classes, at its lowest support element z as final.  Over
    Stoch the intermediate is t (δ_t and e(t) differ just on t's class) and
    z (e(x) has less mass at z than e(z), and each column e(x) reaches is
    zero below z).  Over Multi, where those cells agree, it is the next
    member of t's class and the lowest element of e(x) outside z's class.

    Results are memoized (kernels are immutable); the witness mapping is
    read-only.
    """
    if e.dom != e.cod:
        raise NotEndo("classification applies to endomorphisms")
    return _classify_cached(e)[0]


@lru_cache(maxsize=4096)
def _classify_cached(e: Kernel) -> tuple:
    """e's report and, if e passes the class test, its class record (reached mask, members), else None."""
    if e.kind is not Kind.SIGNED and (passed := _class_failures(e.kind, e.columns)) is not None:
        return _report(e, passed[0]), passed[1]
    cols = e.columns
    multi = e.kind is Kind.MULTI
    n = len(cols)
    for x, col in enumerate(cols):
        if multi:  # (e∘e)(x) is the OR of the columns e(x) reaches
            y = next(_bits(reduce(or_, [cols[w] for w in _bits(col)], 0) ^ col), None)
        elif (ee := _column_composite(cols, col)) == col:  # each column over its own lcd
            continue
        else:  # the lowest row where the canonical columns differ, by cross-multiplication
            a, b = dict(col[1]), dict(ee[1])
            y = min([y for y in a.keys() | b.keys() if a.get(y, 0) * ee[0] != b.get(y, 0) * col[0]])
        if y is not None:
            return IdempotentReport(
                False, False, False, False, False, MappingProxyType({"idempotent": itemgetter(x, y)(e.dom.labels)})
            ), None

    # e = A/d over one denominator, a column of A a dict of its nonzero
    # rows; over Multi d = 1 and A = e, each column the mask of its image
    d = 1 if multi else math.lcm(*[den for den, _ in cols])
    A = cols if multi else [{y: num * (d // den) for y, num in cells} for den, cells in cols]
    # at each input x, the two-step joint column against the static, strong
    # and balanced reference columns, a pair (final z, intermediate y) at
    # z·n + y: over Multi as masks, spread(m) putting z at z·n, else as
    # integer sums at scale d² (d³ for balance)
    failures = [None, None, None]  # each flag's first failing index triple
    spread = [sum([1 << z * n for z in _bits(m)]) for m in cols] if multi else ()
    for x, col in enumerate(A):
        if multi:
            joint = static = balanced = 0
            for y in _bits(col):
                joint |= spread[y] << y
                static |= 1 << y * (n + 1)
                balanced |= spread[y] * cols[y]
            for i, ref in enumerate((static, spread[x] * col, balanced)):
                if failures[i] is None and joint != ref:
                    failures[i] = (x, *divmod(next(_bits(joint ^ ref)), n))
        else:
            joint = {z * n + y: a * b for y, a in col.items() for z, b in A[y].items()}
            ats = (
                None if failures[0] else _sum_difference([(y * (n + 1), d * a) for y, a in col.items()], joint),
                None if failures[1] else _sum_difference([(z * n + y, a * b) for y, a in col.items()
                                                          for z, b in col.items()], joint),
                None if failures[2] else _sum_difference([(z * n + y, c * a * b) for w, c in col.items()
                                                          for y, a in A[w].items() for z, b in A[w].items()],
                                                         {k: d * v for k, v in joint.items()}),
            )
            for i, at in enumerate(ats):
                if failures[i] is None and at is not None:
                    failures[i] = (x, *divmod(at, n))
        if None not in failures:
            break
    return _report(e, tuple(zip(("static", "strong", "balanced"), failures))), None


def _report(e: Kernel, failures: tuple) -> IdempotentReport:
    """The idempotent e's report from each flag's first failing index triple, reading labels only for witnesses."""
    static, strong, balanced = [at is None for _, at in failures]
    # witnesses in the order the scan meets them, the flags in this order at one cell
    found = sorted([(at, rank, name) for rank, (name, at) in enumerate(failures) if at is not None])
    witnesses = {name: itemgetter(*at)(e.dom.labels) for at, _, name in found}
    j = next((j for j, col in enumerate(e.columns) if not _is_point_column(e.kind, col)), None)
    if not (deterministic := j is None):
        witnesses["deterministic"] = (e.dom.labels[j],)
    if (static or strong) and not balanced:
        raise StructureViolation("a static or strong idempotent must be balanced")
    if static and strong and not deterministic:
        raise StructureViolation("a static and strong idempotent must be deterministic")
    return IdempotentReport(True, deterministic, static, strong, balanced, MappingProxyType(witnesses))


def _classes(kind: Kind, cols: tuple) -> tuple:
    """Each column's support mask, the reached mask and the members of each
    class, the support of a reached y's column, by first member.  Raises
    StructureViolation unless y lies in it and the columns there are equal."""
    supports = cols if kind is Kind.MULTI else []
    for _, cells in () if kind is Kind.MULTI else cols:  # a comprehension per column costs more than its cells
        m = 0
        for y, _ in cells:
            m |= 1 << y
        supports.append(m)
    reached = reduce(or_, supports, 0)
    if reached & ~sum([1 << y for y, m in enumerate(supports) if m >> y & 1]):
        raise StructureViolation("a reached element lies outside its class")
    # a class is the support of the lowest reached element left, disjoint from those before
    members, rest = [], reached
    while rest:
        comp = tuple(_bits(m := supports[(rest & -rest).bit_length() - 1]))
        if m & ~rest or any(cols[y] != cols[comp[0]] for y in comp[1:]):
            raise StructureViolation("columns differ within a recurrent class")
        members.append(comp)
        rest ^= m
    return supports, reached, tuple(members)


def _class_failures(kind: Kind, cols: tuple):
    """Each flag's first failing index triple and the class record of Stoch
    or Multi columns passing the class test of `classify`."""
    try:
        supports, reached, members = _classes(kind, cols)
    except StructureViolation:
        return None
    multi = kind is Kind.MULTI
    unreached = (1 << len(cols)) - 1 & ~reached  # a reached column is its class's
    if multi and any(reduce(or_, [cols[y] for y in _bits(cols[x])]) != cols[x] for x in _bits(unreached)):
        return None  # e(x) is the OR of the columns it reaches
    first = {y: comp[0] for comp in members for y in comp}  # y's class, by its first member
    for x in () if multi else _bits(unreached):
        parts: dict = {}  # the cells of e(x) on each class t it meets
        for y, b in cols[x][1]:
            parts.setdefault(first[y], []).append((y, b))
        # over m_t, their summed numerators, the cells are t's column: b_y·D_t = m_t·a_y on all of t
        if any(_reduced(sum([b for _, b in cells]), cells) != cols[t] for t, cells in parts.items()):
            return None
    big = sum([supports[comp[0]] for comp in members if len(comp) > 1])  # the classes of two or more
    static = strong = None  # t first of its class, u the next; z = min e(x), y lowest outside z's class
    for x, m in enumerate(supports):
        if static is None and m & big:
            u = supports[t := (m & big & -(m & big)).bit_length() - 1] ^ 1 << t
            static = (x, t, (u & -u).bit_length() - 1 if multi else t)
        if strong is None and (y := m & ~supports[z := (m & -m).bit_length() - 1]):
            strong = (x, z, (y & -y).bit_length() - 1 if multi else z)
    return (("static", static), ("strong", strong), ("balanced", None)), (reached, members)


def _sum_difference(terms: list, want: dict):
    """The smallest key at which the sums of the ``(key, value)`` terms
    differ from ``want``, or None."""
    acc: dict = {}
    for k, v in terms:
        acc[k] = acc.get(k, 0) + v
    acc = {k: v for k, v in acc.items() if v}
    if acc == want:
        return None
    return min(acc.items() ^ want.items())[0]


@dataclass(frozen=True)
class BalancedCrossCheck:
    """The four equivalent readings of being balanced, each computed
    independently; they agree on every idempotent."""

    defining: bool
    detailed_balance: bool
    strong_almost_surely: bool
    self_adjoint_on_columns: bool

    def all(self) -> tuple[bool, bool, bool, bool]:
        return tuple(vars(self).values())


def balanced_cross_check(e: Kernel) -> BalancedCrossCheck:
    """Evaluate the four characterizations of balance on an idempotent.

    (i) the defining two-step equation, as `classify` decides it; (ii)
    detailed balance e(y|z)e(z|x) = e(z|y)e(y|x), which says that the
    two-step joint L((y,z)|x) = e(y|x)·e(z|y) is fixed by the swap; (iii)
    the strong equation holding e-almost surely; (iv) symmetry of the
    paired state (id⊗e)∘copy∘p for every distinct column p of e
    (sufficient: the invariant kernels of an idempotent are spanned by its
    columns and the condition is linear).
    """
    report = classify(e)
    if not report.idempotent:
        raise NotIdempotent("cross-check applies to idempotents")
    kind = e.kind

    defining = report.balanced

    paired = pair(identity(e.dom, kind), e)
    lhs = compose(paired, e)
    swap = swap_kernel(e.dom, e.dom, kind)
    detailed = kernel_equal(compose(swap, lhs), lhs)

    strong_as = ase_kernels(e, lhs, pair(e, e))

    self_adjoint = True
    for col in dict.fromkeys(e.columns):
        joint = compose(paired, _kernel(kind, UNIT, e.dom, (col,)))
        if not kernel_equal(compose(swap, joint), joint):
            self_adjoint = False
            break

    return BalancedCrossCheck(defining, detailed, strong_as, self_adjoint)


@dataclass(frozen=True)
class SplitData:
    """A splitting e = ι∘π with π∘ι = id, plus the class structure:
    recurrent classes (label sets, one per middle element) and the
    transient labels, which partition the carrier."""

    middle: FinObject
    projection: Kernel
    inclusion: Kernel
    classes: tuple[tuple[str, ...], ...]
    transient: tuple[str, ...]

    def __post_init__(self) -> None:
        seen: set = set()
        for cls in self.classes:
            if seen & set(cls):
                raise StructureViolation("recurrent classes must be disjoint")
            seen |= set(cls)
        if seen & set(self.transient):
            raise StructureViolation("transient states cannot be recurrent")


def _class_split(e: Kernel) -> SplitData:
    """Split an idempotent through the classes `classify` kept in its class
    record.  ι(t) is e's column at the first member of class t.  A
    recurrent x projects to the point mass on its class, and π(t|x) at a
    transient x is the mass e(x) puts on class t: the summed numerators
    over Stoch, whether the class meets e(x) over Multi.  Middle elements
    are C_<first member> over Stoch and t0, t1, … over Multi."""
    if (record := _classify_cached(e)[1]) is None:
        raise StructureViolation("an idempotent to split has no class record")
    (reached, members), multi, cols, labels = record, e.kind is Kind.MULTI, e.columns, e.dom.labels
    middle = fin_object([f"t{t}" if multi else "C_" + labels[comp[0]] for t, comp in enumerate(members)])
    iota = _kernel(e.kind, middle, e.cod, tuple([cols[comp[0]] for comp in members]))
    pi_cols, class_of, rest = [None] * len(cols), {}, list(_bits((1 << len(cols)) - 1 & ~reached))
    for t, comp in enumerate(members):
        point = 1 << t if multi else (1, ((t, 1),))
        for y in comp:
            pi_cols[y], class_of[y] = point, t
    for x in rest:
        if multi:  # e(x), a union of classes, meets class t at its first member
            pi_cols[x] = sum([1 << t for t, comp in enumerate(members) if cols[x] >> comp[0] & 1])
        else:
            mass = [0] * len(members)
            for y, num in cols[x][1]:
                mass[class_of[y]] += num
            pi_cols[x] = _reduced(cols[x][0], [(t, m) for t, m in enumerate(mass) if m])
    pi = _kernel(e.kind, e.dom, middle, tuple(pi_cols))
    classes = tuple([tuple([labels[y] for y in comp]) for comp in members])
    return _lawful(SplitData, middle, pi, iota, classes, tuple([labels[y] for y in rest]))


def blackwell_split(e: Kernel) -> SplitData:
    """Split a stochastic idempotent through its recurrent classes, the
    supports of its reached columns (module docstring): each class is
    included via its common column, and each state projects to a class with
    the mass e assigns to it."""
    if e.kind is not Kind.STOCH:
        raise UnsupportedKind("the class decomposition applies to stochastic kernels")
    if not classify(e).idempotent:
        raise NotIdempotent("splitting applies to idempotents")
    return _class_split(e)


@dataclass(frozen=True)
class NoSplitUpTo:
    """Negative splitting result: no splitting with a middle object of size
    up to ``max_size`` exists."""

    max_size: int


def search_split(e: Kernel, max_middle: int) -> SplitData | NoSplitUpTo:
    """Split a multivalued idempotent through its blocks, or report that no
    splitting has a middle object of size at most ``max_middle``.

    Only balanced idempotents split, and a balanced one passes the class
    test of `classify`: its blocks are the supports of its reached columns,
    and every image is a union of blocks.  The blocks by smallest member
    form the middle object t0…, ι(t) = block t and π(x) = {t : block t
    meets e(x)}.  Splittings are unique up to isomorphism, so the block
    count is the only possible middle size.
    """
    report = classify(e)
    if not report.idempotent:
        raise NotIdempotent("splitting applies to idempotents")
    if e.kind is not Kind.MULTI:
        raise UnsupportedKind("block splitting applies to multivalued kernels; "
                              "blackwell_split splits stochastic ones")
    if not report.balanced:
        return NoSplitUpTo(max_middle)
    sd = _class_split(e)
    return sd if sd.middle.size <= max_middle else NoSplitUpTo(max_middle)


def _deterministic_as(p: Kernel, f: Kernel) -> bool:
    """Whether f is deterministic p-almost surely, copy∘f = ⟨f,f⟩ p-a.s.
    At an x that p reaches, f(x)⊗f(x) = Σ_t f(t|x)·δ_(t,t) puts every
    weight in {0, 1} with at most one 1; within the column law no column
    is all zero, so f's column is a point mass."""
    cols = f.columns
    return all(_is_point_column(f.kind, cols[x]) for x in support_indices(p))


def verify_split(e: Kernel, iota: Kernel, pi: Kernel) -> tuple[IdempotentReport, bool]:
    """Check a claimed splitting and the taxonomy it induces.

    Raises NotASplitting naming the first violated equation; returns the
    classification of e together with the verdict of the induced checks
    (inclusion deterministic ⟺ static, projection deterministic ⟺
    strong, projection deterministic almost surely w.r.t. the inclusion).
    The last is read off the projection's columns where the inclusion
    reaches, each a point mass.
    """
    if pi.dom != e.dom or iota.cod != e.cod or pi.cod != iota.dom:
        raise ShapeMismatch("splitting pair does not compose with the idempotent")
    if not kernel_equal(compose(pi, iota), identity(iota.dom, e.kind)):
        raise NotASplitting("projection∘inclusion is not the identity")
    if not kernel_equal(compose(iota, pi), e):
        raise NotASplitting("inclusion∘projection does not equal the idempotent")
    report = classify(e)
    checks = (
        is_deterministic(iota) == report.static
        and is_deterministic(pi) == report.strong
        and _deterministic_as(iota, pi)
    )
    # the equivalences are theorems for the positive kinds only
    if not checks and e.kind is not Kind.SIGNED:
        raise StructureViolation("the splitting's determinism disagrees with the taxonomy")
    return report, checks


class CauchySchwarzInstance(CausalityInstance):
    """The antecedent and consequent of one Cauchy-Schwarz instance."""


def cauchy_schwarz(f: Kernel, g: Kernel, h: Kernel) -> CauchySchwarzInstance:
    """One instance of the Cauchy-Schwarz implication along f: A→B,
    g: B→X, h: X→Y.

    antecedent: the two-sample joint of h after g, averaged over f,
    factorizes through a single sample:
        Σ_b f(b|a)·(hg)(y₁|b)·(hg)(y₂|b) = Σ_b f(b|a)·Σ_x h(y₁|x)h(y₂|x)g(x|b)
    consequent: for every b reached by f, h is g(·|b)-almost surely the
    constant (hg)(·|b):
        g(x|b)·h(y|x) = g(x|b)·(hg)(y|b).

    Over Stoch the antecedent is the consequent.  Let column b of g hold
    numerators g_x ≥ 0 over G_b = Σ_x g_x and let h's columns be h_x.  At
    scale G_b² the one-sample minus two-sample term at b is
    P_b·P_bᵀ − G_b·T_b (P_b = Σ_x g_x·h_x, T_b = Σ_x g_x·h_x·h_xᵀ)
    = −½ Σ_{x,x'} g_x·g_x'·(h_x − h_x')(h_x − h_x')ᵀ ≼ 0.
    With f's weights ≥ 0 the weighted sum is zero only when h is constant,
    so equal to (hg)(b), on each g(·|b) that f reaches: only h's columns
    are compared.  Over Signed and Multi the consequent reads h∘g: its
    column b must be h's column x for every x in g(·|b).  It implies the
    antecedent, both sides at b being s·(hg)(b)⊗(hg)(b) with s the sum of
    g(·|b), as (hg)(b) = s·(hg)(b); only where it fails are the two
    pairings composed, ⟨hg, hg⟩∘f = ⟨h, h⟩∘(g∘f).
    """
    if f.kind is not g.kind or g.kind is not h.kind:
        raise ShapeMismatch("all three kernels must have the same kind")
    if f.cod != g.dom or g.cod != h.dom:
        raise ShapeMismatch("kernels must form a chain A→B→X→Y")
    gcols, hcols = g.columns, h.columns
    if f.kind is Kind.STOCH:
        same = all(len({hcols[x] for x, _ in gcols[b][1]}) == 1 for b in support_indices(f))
        return CauchySchwarzInstance(same, same)
    hg = compose(h, g)
    hgcols = hg.columns
    xs = [list(_bits(m)) for m in gcols] if f.kind is Kind.MULTI else [[x for x, _ in cells] for _, cells in gcols]
    # g(x|b) ≠ 0 forces h(·|x) = (hg)(·|b); stored columns are canonical
    consequent = all(hcols[x] == hgcols[b] for b in support_indices(f) for x in xs[b])
    # compose reduces each column it sums and returns a point mass's column
    # as stored, and a reduced column times itself is reduced: == is exact
    antecedent = consequent or compose(pair(hg, hg), f) == compose(pair(h, h), compose(g, f))
    return CauchySchwarzInstance(antecedent, consequent)


@dataclass(frozen=True)
class ClassStructure:
    """Generating data for a random splitting-built idempotent."""

    classes: tuple[tuple[str, ...], ...]
    transient: tuple[str, ...]
    iota: Kernel
    pi: Kernel

    @property
    def idempotent(self) -> Kernel:
        return compose(self.iota, self.pi)


def random_class_idempotent(rng: random.Random, x: FinObject) -> ClassStructure:
    """Random stochastic idempotent built from a random class structure.

    Partitions the elements into nonempty recurrent classes plus a
    transient remainder, draws a full-support distribution per class and
    an arbitrary class mixture per transient state, and assembles
    e = ι∘π.
    """
    n = x.size
    if n == 0:
        raise ShapeMismatch("need at least one element")
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        order[i], order[j] = order[j], order[i]
    k = 1 + rng.randrange(n)
    members: list[list[int]] = [[order[t]] for t in range(k)]
    transient: list[int] = []
    for i in order[k:]:
        slot = rng.randrange(k + 1)
        if slot == k:
            transient.append(i)
        else:
            members[slot].append(i)
    members = sorted([sorted(m) for m in members], key=min)
    transient.sort()

    middle = fin_object(f"t{t}" for t in range(k))
    weights = [dict(zip(comp, random_full_support_column(rng, len(comp)))) for comp in members]  # by row
    iota = Kernel(Kind.STOCH, middle, x, tuple(tuple(w.get(i, Fraction(0)) for w in weights) for i in range(n)))
    class_of = {i: t for t, comp in enumerate(members) for i in comp}
    mixes = {i: random_stoch_column(rng, k) for i in range(n) if i not in class_of}  # each transient's classes
    pi = Kernel(Kind.STOCH, x, middle, tuple(
        tuple(mixes[i][t] if i in mixes else Fraction(int(class_of[i] == t)) for i in range(n)) for t in range(k)))

    return ClassStructure(
        tuple(tuple(x.labels[i] for i in comp) for comp in members),
        tuple(x.labels[i] for i in transient),
        iota,
        pi,
    )
