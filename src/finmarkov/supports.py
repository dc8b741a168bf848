"""Supports, split supports, the equalizer principle, point liftings,
precise supports, and the free support completion.

The support of a kernel is the subset of codomain elements it can reach,
packaged with its deterministic inclusion and the factorization of the
kernel through it.  A split support additionally carries a projection
that retracts the inclusion.
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
    (for split supports) a projection retracting the inclusion."""

    base: Kernel
    supp_object: FinObject
    inclusion: Kernel
    factorization: Kernel
    projection: Optional[Kernel] = None

    def __post_init__(self) -> None:
        if not kernel_equal(compose(self.inclusion, self.factorization), self.base):
            raise FactorizationFailed("inclusion∘factorization must equal the base kernel")
        if not is_deterministic(self.inclusion):
            raise FactorizationFailed("support inclusion must be deterministic")
        if len(set(self.inclusion.columns)) != self.supp_object.size:
            raise FactorizationFailed("support inclusion must be injective on columns")
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
    return SupportData(p, inc.dom, inc, _restrict_rows(p, inc.dom, idx))


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
    _require_supportable(p)
    idx = support_indices(p)
    if not idx:
        raise EmptySupport("cannot project onto an empty support")
    inc = inclusion_kernel(p.cod, idx, p.kind)
    pos = {x: s for s, x in enumerate(idx)}
    proj = function_kernel(p.cod, inc.dom, [pos.get(x, 0) for x in range(p.cod.size)], p.kind)
    return SupportData(p, inc.dom, inc, _restrict_rows(p, inc.dom, idx), proj)


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
    """Morphism class of the completion in canonical form.

    The representative's columns at elements unreachable by the source
    anchor are the point mass on the first codomain element, which makes
    class equality decidable by kernel equality.
    """

    src: SuppCompCell
    dst: SuppCompCell
    rep: Kernel


def canonical_rep(f: Kernel, reachable: set[int]) -> Kernel:
    """Replace columns at unreachable inputs with the point mass on the
    first codomain element."""
    point = 1 if f.kind is Kind.MULTI else (1, ((0, 1),))
    cols = tuple(col if j in reachable else point for j, col in enumerate(f.columns))
    return _kernel(f.kind, f.dom, f.cod, cols)


def scomp_hom(src: SuppCompCell, dst: SuppCompCell, f: Kernel) -> SuppCompMorphism:
    """Class of f as a completion morphism src → dst.

    Membership requires the pushforward of the source anchor along f to
    be dominated by the target anchor.
    """
    if f.dom != src.object or f.cod != dst.object:
        raise ShapeMismatch("kernel does not connect the given cells")
    push = compose(f, src.anchor)
    witness = refute_abs_cont(dst.anchor, push)
    if witness is not None:
        raise NotMember(witness.element)
    return SuppCompMorphism(src, dst, canonical_rep(f, set(support_indices(src.anchor))))


def scomp_identity(cell: SuppCompCell) -> SuppCompMorphism:
    return scomp_hom(cell, cell, identity(cell.object, cell.anchor.kind))


def scomp_compose(g: SuppCompMorphism, f: SuppCompMorphism) -> SuppCompMorphism:
    if f.dst != g.src:
        raise CellMismatch("inner cells differ")
    return scomp_hom(f.src, g.dst, compose(g.rep, f.rep))


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
    cell = SuppCompCell(f.dst.object, push)
    return cell, scomp_hom(cell, f.dst, identity(f.dst.object, push.kind))


def scomp_tensor_cell(a: SuppCompCell, b: SuppCompCell) -> SuppCompCell:
    return SuppCompCell(tensor_object(a.object, b.object), tensor(a.anchor, b.anchor))
