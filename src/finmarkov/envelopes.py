"""Karoubi and Blackwell envelopes as computable categories.

A cell pairs an object with a designated idempotent endomorphism; a
morphism between cells is a kernel absorbed by both endomorphisms.  The
Blackwell flavor restricts to balanced idempotents, which guarantees
that the induced copy morphism is coassociative.  Balance is sufficient,
not necessary: on multivalued (boolean) cells the copy formula is
coassociative whether or not the idempotent is balanced, and only
non-balanced signed idempotents can break it.

Construction decides both laws, as ``Kernel(...)`` decides the column
law: ``EnvelopeCell(...)`` refuses an endo that is not an idempotent on
its object, as the cached `classify` reports, and
``EnvelopeMorphism(...)`` a kernel its endpoint idempotents do not
absorb.  So every cell has e∘e = e and every morphism f∘e = f = e'∘f,
and the cells and morphisms derived from them keep both laws: no
operation checks them again.

`env_check_markov_laws` decides every comonoid law exactly on stored
columns.  Cocommutativity holds by construction: cpy = ⟨e,e⟩∘e mixes
the symmetric columns e(y)⊗e(y), so it builds no swap, and one side of
coassociativity is the other with its factors reversed.  Discard
naturality holds by the column law: discard∘e = discard for every cell
endomorphism e.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .kernel import (
    FinMarkovError,
    FinObject,
    Kernel,
    Kind,
    ShapeMismatch,
    _bits,
    compose,
    discard_kernel,
    identity,
    kernel_equal,
    pair,
    tensor,
)
from .idempotents import NotEndo, NotIdempotent, classify
from .supports import CellMismatch


class NotBalanced(FinMarkovError):
    """Blackwell cells require balanced idempotents."""


class NotHom(FinMarkovError):
    """The kernel is not absorbed by the endpoint idempotents."""


class Flavor(enum.Enum):
    KAROUBI = "karoubi"
    BLACKWELL = "blackwell"


@dataclass(frozen=True)
class EnvelopeCell:
    """(X, e) with e an idempotent on X and a `Flavor`, given or by its
    value: construction raises ValueError, NotEndo or NotIdempotent
    otherwise.  Balance is `env_cell`'s to check."""

    object: FinObject
    endo: Kernel
    flavor: Flavor

    def __post_init__(self) -> None:
        object.__setattr__(self, "flavor", Flavor(self.flavor))
        e = self.endo
        if e.dom != self.object or e.cod != self.object:
            raise NotEndo("cell endomorphism must live on the cell's object")
        if not classify(e).idempotent:
            raise NotIdempotent("cell endomorphism must be idempotent")


@dataclass(frozen=True)
class EnvelopeMorphism:
    """A kernel f: X → Y with f∘e_src = f = e_dst∘f: construction raises
    ShapeMismatch or NotHom otherwise."""

    src: EnvelopeCell
    dst: EnvelopeCell
    kernel: Kernel

    def __post_init__(self) -> None:
        f = self.kernel
        if f.dom != self.src.object or f.cod != self.dst.object:
            raise ShapeMismatch("kernel does not connect the given cells")
        if not kernel_equal(compose(f, self.src.endo), f):
            raise NotHom("source idempotent is not absorbed (f∘e_src ≠ f)")
        if not kernel_equal(compose(self.dst.endo, f), f):
            raise NotHom("target idempotent is not absorbed (e_dst∘f ≠ f)")


def _lawful(cls, *values):
    """A cell or morphism of the given fields, trusted to keep its laws:
    the constructor without its checks, for what is derived from lawful
    cells and morphisms."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(obj, name, value)
    return obj


def env_cell(x: FinObject, e: Kernel, flavor: Flavor | str) -> EnvelopeCell:
    """Validated cell: e must be an idempotent on x, which construction
    decides, and balanced for Blackwell."""
    cell = EnvelopeCell(x, e, flavor)
    if cell.flavor is Flavor.BLACKWELL and not classify(e).balanced:
        raise NotBalanced("Blackwell cells require a balanced idempotent")
    return cell


def env_identity(cell: EnvelopeCell) -> EnvelopeMorphism:
    """The identity of a cell is its designated idempotent."""
    return _lawful(EnvelopeMorphism, cell, cell, cell.endo)


#: The morphism f: src → dst, checked by construction.
env_hom = EnvelopeMorphism


def env_compose(g: EnvelopeMorphism, f: EnvelopeMorphism) -> EnvelopeMorphism:
    if f.dst != g.src:
        raise CellMismatch("inner cells differ")
    return _lawful(EnvelopeMorphism, f.src, g.dst, compose(g.kernel, f.kernel))


def cell_tensor(a: EnvelopeCell, b: EnvelopeCell) -> EnvelopeCell:
    """Tensor cell (X⊗Y, e_X⊗e_Y).  Only the flavors are checked: the
    tensor of two idempotents is idempotent, and of two balanced ones
    balanced, in every kind."""
    if a.flavor is not b.flavor:
        raise CellMismatch("cells of different flavors")
    ten = tensor(a.endo, b.endo)
    return _lawful(EnvelopeCell, ten.dom, ten, a.flavor)


def env_tensor(f: EnvelopeMorphism, g: EnvelopeMorphism) -> EnvelopeMorphism:
    """f⊗g.  Of two cell identities, the tensor cell's identity, which
    builds one tensor rather than three."""
    src = cell_tensor(f.src, g.src)
    if f == env_identity(f.src) and g == env_identity(g.src):
        return _lawful(EnvelopeMorphism, src, src, src.endo)
    return _lawful(EnvelopeMorphism, src, cell_tensor(f.dst, g.dst), tensor(f.kernel, g.kernel))


def blackwell_copy(cell: EnvelopeCell) -> EnvelopeMorphism:
    """Copy morphism of a Blackwell cell: (e⊗e)∘copy∘e from the cell to
    its tensor square."""
    if cell.flavor is not Flavor.BLACKWELL:
        raise NotBalanced("the copy formula is defined on Blackwell cells")
    return _lawful(EnvelopeMorphism, cell, cell_tensor(cell, cell), _cell_copy(cell.endo))


def _cell_copy(e: Kernel) -> Kernel:
    """The copy formula cpy = ⟨e,e⟩∘e, which e and e⊗e absorb as e∘e = e."""
    return compose(pair(e, e), e)


def env_discard(cell: EnvelopeCell) -> EnvelopeMorphism:
    """discard∘e, which is the discard: e is within the column law."""
    e = cell.endo
    k = discard_kernel(e.dom, e.kind)
    return _lawful(EnvelopeMorphism, cell, _lawful(EnvelopeCell, k.cod, identity(k.cod, e.kind), cell.flavor), k)


@dataclass(frozen=True)
class MarkovLawReport:
    counit_left: bool
    counit_right: bool
    coassociative: bool
    cocommutative: bool
    discard_natural: bool

    @property
    def all_pass(self) -> bool:
        return all(vars(self).values())


def env_check_markov_laws(cell: EnvelopeCell) -> MarkovLawReport:
    """Decide the comonoid laws of the cell's copy/discard pair exactly.

    With e∘e = e and disc = discard, both counit laws hold, as
    (disc⊗e)∘cpy = ⟨disc, e∘e⟩∘e ≅ e∘e = e, and so does discard
    naturality, as the endo is within the column law; coassociativity
    holds when e is balanced, or multivalued (both sides send x to the
    union of e(u)³ over the u ∈ e(x) with u ∈ e(u)).

    Otherwise the laws build the copy and ⟨cpy, e⟩∘e.  The associator is
    the identity on indices, so coassociativity compares the columns of
    the pairings (cpy⊗e)∘cpy = ⟨cpy, e⟩∘e and (e⊗cpy)∘cpy = ⟨e, cpy⟩∘e.
    Each column cpy(y) = Σ_u e(u|y)·e(u)⊗e(u) is symmetric, so ⟨e, cpy⟩∘e
    at (a,b,c), Σ_y e(y|x)·e(a|y)·cpy(y)[c,b], is ⟨cpy, e⟩∘e at (c,b,a):
    coassociativity holds exactly when each column of ⟨cpy, e⟩∘e is fixed
    by (a,b,c) ↦ (c,b,a).
    """
    e = cell.endo
    if e.kind is Kind.MULTI or classify(e).balanced:
        return MarkovLawReport(True, True, True, True, True)
    return MarkovLawReport(True, True, _reversal_fixed(compose(pair(_cell_copy(e), e), e), e.cod.size), True, True)


def _reversal_fixed(k: Kernel, n: int) -> bool:
    """Whether each stored column of k: X → (X⊗X)⊗X, n = |X|, is fixed by (a,b,c) ↦ (c,b,a)."""
    rev = [i % n * n * n + i // n % n * n + i // (n * n) for i in range(n**3)]
    if k.kind is Kind.MULTI:
        return all(col == sum(1 << rev[i] for i in _bits(col)) for col in k.columns)
    return all(dict(cells) == {rev[i]: v for i, v in cells} for _, cells in k.columns)


def env_ase(p: EnvelopeMorphism, f: EnvelopeMorphism, g: EnvelopeMorphism) -> bool:
    """Almost-sure equality computed inside the envelope, with the cell's
    copy morphism.  On Blackwell cells it agrees with almost-sure equality
    of the underlying kernels.

    With copy = ⟨e,e⟩∘e, the joint (e⊗f)∘copy∘p is the pairing
    ⟨e∘e, f∘e⟩∘e∘p, which is ⟨e, f⟩∘p, as e∘e = e, f∘e = f and e∘p = p."""
    if f.src != p.dst or g.src != p.dst or f.dst != g.dst:
        raise ShapeMismatch("morphisms do not form an almost-sure comparison")
    if p.dst.flavor is not Flavor.BLACKWELL:
        raise NotBalanced("almost-sure comparison needs a Blackwell middle cell")
    e = p.dst.endo
    return kernel_equal(compose(pair(e, f.kernel), p.kernel), compose(pair(e, g.kernel), p.kernel))


def env_split_idempotent(cell: EnvelopeCell) -> tuple[EnvelopeMorphism, EnvelopeMorphism]:
    """The formal splitting of a cell's idempotent inside the envelope.

    Viewing e as a morphism both (X,id) → (X,e) and (X,e) → (X,id), the
    two composites are the cell identity of (X,e) and the original
    idempotent on (X,id); e∘e = e absorbs both.
    """
    e = cell.endo
    plain = _lawful(EnvelopeCell, cell.object, identity(e.dom, e.kind), cell.flavor)
    return _lawful(EnvelopeMorphism, plain, cell, e), _lawful(EnvelopeMorphism, cell, plain, e)
