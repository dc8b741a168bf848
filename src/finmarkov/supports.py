"""Supports, split supports, the equalizer principle, point liftings,
precise supports, and the free support completion.

The support of a kernel is the subset of codomain elements it can reach,
packaged with its deterministic inclusion and the factorization of the
kernel through it.  A split support additionally carries a projection
that retracts the inclusion.

Construction decides each record's law, as ``Kernel(...)`` decides the
column law: ``SupportData(...)``, ``SuppCompCell(...)`` and
``SuppCompMorphism(...)`` (which `scomp_hom` is) refuse values off it.
What is derived from lawful values keeps the law and is built by `_lawful`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .asrel import UnsupportedKind, abs_cont, ase_kernels, refute_abs_cont
from .kernel import (
    FinMarkovError,
    FinObject,
    Kernel,
    Kind,
    ShapeMismatch,
    _bits,
    _kernel,
    _lawful,
    compose,
    function_kernel,
    identity,
    inclusion_kernel,
    is_deterministic,
    kernel_equal,
    pair,
    support_indices,
    tensor,
    tensor_object,
)


class EmptySupport(FinMarkovError):
    """A split support needs at least one reachable element."""


class NotAbsolutelyContinuous(FinMarkovError):
    """Factorization refused; carries the first refuting element."""

    def __init__(self, element: str):
        super().__init__(f"not absolutely continuous: mass at {element!r} off the support")
        self.element = element


class NotCommutative(FinMarkovError):
    """The given square does not commute, so no induced support map exists."""


class FactorizationFailed(FinMarkovError):
    """The parts given to SupportData do not form a support factorization."""


class NotAse(FinMarkovError):
    """The morphisms are not almost surely equal, so no equalizer factorization."""


class NotDeterministic(FinMarkovError):
    """A deterministic kernel was required."""


class NotInSupport(FinMarkovError):
    """The element carries no mass under the kernel."""


class NotMember(FinMarkovError):
    """The kernel does not define a morphism of the support completion."""

    def __init__(self, element: str):
        super().__init__(f"pushforward puts mass at {element!r} outside the target anchor")
        self.element = element


class CellMismatch(FinMarkovError):
    """Completion cells do not line up for the requested operation."""


@dataclass(frozen=True)
class SupportData:
    """Support of ``base``: subset object, inclusion, factorization, and
    (for split supports) a projection retracting the inclusion.
    Construction raises UnsupportedKind on a Signed base, and
    FactorizationFailed unless the inclusion is a deterministic injection
    from ``supp_object``, through which the factorization, reaching every
    element, gives the base, and the projection, if any, retracts it."""

    base: Kernel
    supp_object: FinObject
    inclusion: Kernel
    factorization: Kernel
    projection: Optional[Kernel] = None

    def __post_init__(self) -> None:
        _require_supportable(self.base)
        if self.inclusion.dom != self.supp_object:
            raise FactorizationFailed("support object must be the inclusion's domain")
        if not kernel_equal(compose(self.inclusion, self.factorization), self.base):
            raise FactorizationFailed("inclusion∘factorization must equal the base kernel")
        if not is_deterministic(self.inclusion):
            raise FactorizationFailed("support inclusion must be deterministic")
        if len(set(self.inclusion.columns)) != self.supp_object.size:
            raise FactorizationFailed("support inclusion must be injective on columns")
        if len(support_indices(self.factorization)) != self.supp_object.size:
            raise FactorizationFailed("factorization must reach every support element")
        if self.projection is not None:
            retract = compose(self.projection, self.inclusion)
            if not kernel_equal(retract, identity(self.supp_object, self.base.kind)):
                raise FactorizationFailed("projection must retract the inclusion")


def _require_supportable(p: Kernel) -> None:
    if p.kind is Kind.SIGNED:
        raise UnsupportedKind("signed kernels have no supports in this library")


def _restrict_rows(k: Kernel, sub: FinObject, idx: Sequence[int]) -> Kernel:
    """k with its codomain cut down to ``sub``, whose element s is row
    ``idx[s]`` of k, on the stored columns.  Callers drop only zero rows,
    so no column loses mass, and each stays reduced."""
    if k.kind is Kind.MULTI:
        place = {i: 1 << s for s, i in enumerate(idx)}
        return _kernel(k.kind, k.dom, sub, tuple(sum(place.get(i, 0) for i in _bits(m)) for m in k.columns))
    cols = []
    for den, cells in k.columns:
        num = dict(cells)
        cols.append((den, tuple([(s, num[i]) for s, i in enumerate(idx) if i in num])))
    return _kernel(k.kind, k.dom, sub, tuple(cols))


def support(p: Kernel) -> SupportData:
    """Support of p: reachable elements, subset inclusion, and the
    factorization obtained by deleting unreachable rows."""
    _require_supportable(p)
    idx = support_indices(p)
    inc = inclusion_kernel(p.cod, idx, p.kind)
    return _lawful(SupportData, p, inc.dom, inc, _restrict_rows(p, inc.dom, idx), None)


def factor_through_support(f: Kernel, sd: SupportData) -> Kernel:
    """The unique kernel through the support inclusion with ι∘f̂ = f.

    Exists exactly when the support's base dominates f; otherwise raises
    with the first refuting element.
    """
    if f.cod != sd.base.cod:
        raise ShapeMismatch("kernel does not land in the supported object")
    witness = refute_abs_cont(sd.base, f)
    if witness is not None:
        raise NotAbsolutelyContinuous(witness.element)
    # support element s sits at the one row of the inclusion's point column s
    idx = [col.bit_length() - 1 if sd.inclusion.kind is Kind.MULTI else col[1][0][0] for col in sd.inclusion.columns]
    return _restrict_rows(f, sd.supp_object, idx)


def split_support(p: Kernel) -> SupportData:
    """Support with a projection: support elements map to themselves and
    every unreachable element maps to the first support element."""
    sd = support(p)
    if not sd.supp_object.size:
        raise EmptySupport("cannot project onto an empty support")
    pos = {x: s for s, x in enumerate(support_indices(p))}
    proj = function_kernel(p.cod, sd.supp_object, [pos.get(x, 0) for x in range(p.cod.size)], p.kind)
    return _lawful(SupportData, p, sd.supp_object, sd.inclusion, sd.factorization, proj)


def support_functor_map(p: Kernel, q: Kernel, f: Kernel, g: Kernel) -> Kernel:
    """The induced map between supports for a commuting square g∘p = q∘f.

    Returns the unique kernel d with ι_q∘d = g∘ι_p.  It exists because
    the square commutes: g carries the support of p into the support of
    g∘p = q∘f, which lies inside the support of q.
    """
    if not kernel_equal(compose(g, p), compose(q, f)):
        raise NotCommutative("g∘p must equal q∘f exactly")
    return factor_through_support(compose(g, support(p).inclusion), support(q))


def equalizer_factor(p: Kernel, f: Kernel, g: Kernel) -> tuple[FinObject, Kernel, Kernel]:
    """Factor p through the equalizer of a deterministic parallel pair.

    The equalizer object keeps the elements where f and g agree; p
    factors through its inclusion exactly when f and g are p-almost
    surely equal, else NotAse is raised.
    """
    if f.dom != g.dom or f.cod != g.cod:
        raise ShapeMismatch("parallel pair required")
    if not (is_deterministic(f) and is_deterministic(g)):
        raise NotDeterministic("equalizer principle applies to deterministic pairs")
    if p.cod != f.dom:
        raise ShapeMismatch("kernel must land in the domain of the pair")
    idx = tuple(j for j, col in enumerate(f.columns) if col == g.columns[j])
    eq = inclusion_kernel(f.dom, idx, p.kind)
    if not ase_kernels(p, f, g):
        raise NotAse("pair differs on the support of the kernel")
    return eq.dom, eq, _restrict_rows(p, eq.dom, idx)


def _positive_at(kind: Kind, col, i: int) -> bool:
    """Whether a stored column puts positive weight on row i, which within
    the law is whether it stores row i (Signed kernels have no supports)."""
    if kind is Kind.MULTI:
        return bool(col >> i & 1)
    return any(r == i for r, _ in col[1])


def point_lift(p: Kernel, x: str) -> str:
    """First input (label order) whose image reaches the element x."""
    _require_supportable(p)
    i = p.cod.index(x)
    for j, col in enumerate(p.columns):
        if _positive_at(p.kind, col, i):
            return p.dom.labels[j]
    raise NotInSupport(f"{x!r} carries no mass under the kernel")


@dataclass(frozen=True)
class PreciseSupportCheck:
    joint_dominates: bool
    pointwise: bool

    @property
    def agree(self) -> bool:
        return self.joint_dominates == self.pointwise


def precise_supports_equiv(p: Kernel, f: Kernel, x: str, y: str) -> PreciseSupportCheck:
    """Compare the joint-support and pointwise readings of reachability.

    joint: (x,y) is in the support of the paired state ⟨id, f⟩∘p;
    pointwise: x is reachable by p and y by the column of f at x.
    The two agree for every stochastic and multivalued input; signed
    kernels have no supports here and are refused.
    """
    _require_supportable(p)
    if p.dom.size != 1:
        raise ShapeMismatch("the reference kernel must be a state")
    if f.dom != p.cod:
        raise ShapeMismatch("second kernel must consume the state's codomain")
    joint = compose(pair(identity(p.cod, p.kind), f), p)
    xi, yi = p.cod.index(x), f.cod.index(y)
    joint_dominates = _positive_at(p.kind, joint.columns[0], xi * f.cod.size + yi)
    pointwise = _positive_at(p.kind, p.columns[0], xi) and _positive_at(p.kind, f.columns[xi], yi)
    return PreciseSupportCheck(joint_dominates, pointwise)


# ---------------------------------------------------------------------------
# Free support completion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuppCompCell:
    """Object of the support completion: a carrier with an atomic anchor
    landing in it.

    Every Stoch or Multi anchor p is atomic: supp(copy∘p) is the diagonal
    of supp(p) and supp(p⊗p) = supp(p)², so p⊗p dominates copy∘p.  A
    Signed anchor is refused, as absolute continuity is not decided there.
    """

    object: FinObject
    anchor: Kernel

    def __post_init__(self) -> None:
        if self.anchor.cod != self.object:
            raise ShapeMismatch("anchor must land in the cell's object")
        if self.anchor.kind is Kind.SIGNED:
            raise UnsupportedKind("absolute continuity is not decidable for signed kernels")


@dataclass(frozen=True)
class SuppCompMorphism:
    """The class of f as a completion morphism src → dst: construction
    raises ShapeMismatch, or NotMember unless the target anchor dominates
    the source anchor's pushforward along f, and stores f's `canonical_rep`,
    the point mass on the first codomain element at each input the source
    anchor misses, so class equality is kernel equality."""

    src: SuppCompCell
    dst: SuppCompCell
    rep: Kernel

    def __post_init__(self) -> None:
        f = self.rep
        if f.dom != self.src.object or f.cod != self.dst.object:
            raise ShapeMismatch("kernel does not connect the given cells")
        witness = refute_abs_cont(self.dst.anchor, compose(f, self.src.anchor))
        if witness is not None:
            raise NotMember(witness.element)
        object.__setattr__(self, "rep", canonical_rep(f, set(support_indices(self.src.anchor))))


#: The class of f as a completion morphism src → dst, checked by construction.
scomp_hom = SuppCompMorphism


def canonical_rep(f: Kernel, reachable: set[int]) -> Kernel:
    """Replace columns at unreachable inputs with the point mass on the
    first codomain element."""
    point = 1 if f.kind is Kind.MULTI else (1, ((0, 1),))
    cols = tuple(col if j in reachable else point for j, col in enumerate(f.columns))
    return _kernel(f.kind, f.dom, f.cod, cols)


def _member(src: SuppCompCell, dst: SuppCompCell, f: Kernel) -> SuppCompMorphism:
    """The class of a kernel f known to be a member, as ``SuppCompMorphism(...)`` stores it."""
    return _lawful(SuppCompMorphism, src, dst, canonical_rep(f, set(support_indices(src.anchor))))


def scomp_identity(cell: SuppCompCell) -> SuppCompMorphism:
    return _member(cell, cell, identity(cell.object, cell.anchor.kind))


def scomp_compose(g: SuppCompMorphism, f: SuppCompMorphism) -> SuppCompMorphism:
    """g∘f, a member: over the positive kinds domination is inclusion of
    supports, which composing with g preserves."""
    if f.dst != g.src:
        raise CellMismatch("inner cells differ")
    return _member(f.src, g.dst, compose(g.rep, f.rep))


def scomp_abs_cont(f: SuppCompMorphism, g: SuppCompMorphism) -> bool:
    """Domination of completion morphisms with a common target cell,
    decided on the pushforwards of the source anchors."""
    if f.dst != g.dst:
        raise CellMismatch("absolute continuity compares morphisms into the same cell")
    return abs_cont(compose(g.rep, g.src.anchor), compose(f.rep, f.src.anchor))


def scomp_support(f: SuppCompMorphism) -> tuple[SuppCompCell, SuppCompMorphism]:
    """Support of a completion morphism: the cell anchored by the
    pushforward, with the identity class as inclusion."""
    push = compose(f.rep, f.src.anchor)
    cell = _lawful(SuppCompCell, f.dst.object, push)
    return cell, _member(cell, f.dst, identity(f.dst.object, push.kind))


def scomp_tensor_cell(a: SuppCompCell, b: SuppCompCell) -> SuppCompCell:
    return _lawful(SuppCompCell, tensor_object(a.object, b.object), tensor(a.anchor, b.anchor))
