"""Karoubi and Blackwell envelopes as computable categories.

A cell pairs an object with a designated idempotent endomorphism; a
morphism between cells is a kernel absorbed by both endomorphisms.  The
Blackwell flavor restricts to balanced idempotents, which guarantees
that the induced copy morphism is coassociative.  Balance is sufficient,
not necessary: on multivalued (boolean) cells the copy formula is
coassociative whether or not the idempotent is balanced, and only
non-balanced signed idempotents can break it.

`env_check_markov_laws` decides every comonoid law exactly on stored
columns.  Cocommutativity holds by construction: cpy = ⟨e,e⟩∘e mixes
the symmetric columns e(y)⊗e(y), so it builds no swap, and one side of
coassociativity is the other with its factors reversed.  Discard
naturality holds by the column law, which construction decides for every
kernel: discard∘e = discard for every cell endomorphism e.

One predicate decides every shortcut: a cell is settled when its endo
lives on its object and is idempotent, as the cached `classify` reports.
Then e∘e = e: the cell absorbs its identity and its copy, two such
identities absorb their tensor, both counit laws hold, and nothing is
composed.  Every other cell takes the literal composites, which decide
and raise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

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
    object: FinObject
    endo: Kernel
    flavor: Flavor


@dataclass(frozen=True)
class EnvelopeMorphism:
    src: EnvelopeCell
    dst: EnvelopeCell
    kernel: Kernel


def env_cell(x: FinObject, e: Kernel, flavor: Flavor | str) -> EnvelopeCell:
    """Validated cell: e must be an idempotent on x, and balanced for
    Blackwell.  Decided once by `_settled`; a cell it rejects is checked
    again for the first error."""
    if not _settled(cell := EnvelopeCell(x, e, Flavor(flavor))):
        if e.dom != x or e.cod != x:
            raise NotEndo("cell endomorphism must live on the cell's object")
        raise NotIdempotent("cell endomorphism must be idempotent")
    if cell.flavor is Flavor.BLACKWELL and not classify(e).balanced:
        raise NotBalanced("Blackwell cells require a balanced idempotent")
    return cell


def env_identity(cell: EnvelopeCell) -> EnvelopeMorphism:
    """The identity of a cell is its designated idempotent."""
    return EnvelopeMorphism(cell, cell, cell.endo)


def env_hom(src: EnvelopeCell, dst: EnvelopeCell, f: Kernel) -> EnvelopeMorphism:
    """Check the two absorption equations f∘e_src = f = e_dst∘f."""
    if f.dom != src.object or f.cod != dst.object:
        raise ShapeMismatch("kernel does not connect the given cells")
    return _require_absorbed(EnvelopeMorphism(src, dst, f))


@lru_cache(maxsize=4096)
def _settled(cell: EnvelopeCell) -> bool:
    """Whether the cell's endo lives on its object and is idempotent.
    Memoized, so each cell is decided once."""
    e = cell.endo
    return e.dom == e.cod and classify(e).idempotent and e.dom == cell.object


def _require_absorbed(m: EnvelopeMorphism) -> EnvelopeMorphism:
    """Return m, raising NotHom unless both endpoint idempotents absorb
    the kernel."""
    if not kernel_equal(compose(m.kernel, m.src.endo), m.kernel):
        raise NotHom("source idempotent is not absorbed (f∘e_src ≠ f)")
    if not kernel_equal(compose(m.dst.endo, m.kernel), m.kernel):
        raise NotHom("target idempotent is not absorbed (e_dst∘f ≠ f)")
    return m


def env_compose(g: EnvelopeMorphism, f: EnvelopeMorphism) -> EnvelopeMorphism:
    if f.dst != g.src:
        raise CellMismatch("inner cells differ")
    return _require_absorbed(EnvelopeMorphism(f.src, g.dst, compose(g.kernel, f.kernel)))


def cell_tensor(a: EnvelopeCell, b: EnvelopeCell) -> EnvelopeCell:
    """Tensor cell (X⊗Y, e_X⊗e_Y).  Only the flavors are checked: the
    tensor of two idempotents is idempotent, and of two balanced ones
    balanced, in every kind."""
    if a.flavor is not b.flavor:
        raise CellMismatch("cells of different flavors")
    ten = tensor(a.endo, b.endo)
    return EnvelopeCell(ten.dom, ten, a.flavor)


def env_tensor(f: EnvelopeMorphism, g: EnvelopeMorphism) -> EnvelopeMorphism:
    """f⊗g, with both absorption equations checked on the whole tensor.
    Of the identities of two settled cells, the tensor is the tensor
    cell's identity, absorbed since e∘e = e, and nothing is composed."""
    src = cell_tensor(f.src, g.src)
    if f == env_identity(f.src) and g == env_identity(g.src) and _settled(f.src) and _settled(g.src):
        return EnvelopeMorphism(src, src, src.endo)
    return _require_absorbed(EnvelopeMorphism(src, cell_tensor(f.dst, g.dst), tensor(f.kernel, g.kernel)))


def blackwell_copy(cell: EnvelopeCell) -> EnvelopeMorphism:
    """Copy morphism of a Blackwell cell: (e⊗e)∘copy∘e from the cell to
    its tensor square."""
    if cell.flavor is not Flavor.BLACKWELL:
        raise NotBalanced("the copy formula is defined on Blackwell cells")
    return _copy_morphism(cell, _cell_copy(cell))


def _copy_morphism(cell: EnvelopeCell, cpy: Kernel) -> EnvelopeMorphism:
    return EnvelopeMorphism(cell, EnvelopeCell(cpy.cod, tensor(cell.endo, cell.endo), cell.flavor), cpy)


def _cell_copy(cell: EnvelopeCell) -> Kernel:
    """The copy formula cpy = ⟨e,e⟩∘e, raising NotHom unless the cell
    absorbs cpy; a settled cell absorbs it on both sides, as e∘e = e."""
    e = cell.endo
    cpy = compose(pair(e, e), e)
    if not _settled(cell):
        _require_absorbed(_copy_morphism(cell, cpy))
    return cpy


def env_discard(cell: EnvelopeCell) -> EnvelopeMorphism:
    """discard∘e, which is the discard: e is within the column law."""
    e = cell.endo
    k = discard_kernel(e.dom, e.kind)
    dst = EnvelopeCell(k.cod, identity(k.cod, e.kind), cell.flavor)
    return EnvelopeMorphism(cell, dst, k)


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

    A settled cell composes nothing for the laws it settles: with e∘e = e
    and disc = discard, both counit laws hold, as (disc⊗e)∘cpy =
    ⟨disc, e∘e⟩∘e ≅ e∘e = e, and so does discard naturality;
    coassociativity holds when e is balanced, or multivalued (both sides
    send x to the union of e(u)³ over the u ∈ e(x) with u ∈ e(u)).

    Every other cell builds the copy and the composites, a settled one only
    ⟨cpy, e⟩∘e.  The unitors and the associator are the identity on
    indices, so the counit laws compare the columns of ⟨disc, e∘e⟩∘e and
    ⟨e∘e, disc⟩∘e, the pairings (a⊗b)∘cpy = ⟨a∘e, b∘e⟩∘e, with e's.  Each
    column cpy(y) = Σ_u e(u|y)·e(u)⊗e(u) is symmetric, so swap∘cpy = cpy
    and, with ee = e∘e, ⟨ee, cpy⟩∘e at (a,b,c), Σ_y e(y|x)·ee(a|y)·cpy(y)[c,b],
    is ⟨cpy, ee⟩∘e at (c,b,a), for any endo in every kind: coassociativity
    holds exactly when each column of ⟨cpy, ee⟩∘e is fixed by (a,b,c) ↦ (c,b,a).

    Discard naturality holds too: the endo is within the column law, so
    disc = discard∘e = discard.
    """
    e = cell.endo
    settled = _settled(cell)
    if settled and (e.kind is Kind.MULTI or classify(e).balanced):
        return MarkovLawReport(True, True, True, True, True)
    cpy = _cell_copy(cell)
    ee, counits = e, (True, True)
    if not settled:
        ee, de = compose(e, e), discard_kernel(e.dom, e.kind)  # de = discard∘e∘e = discard within the law
        counits = compose(pair(de, ee), e).columns == e.columns, compose(pair(ee, de), e).columns == e.columns
    return MarkovLawReport(*counits, _reversal_fixed(compose(pair(cpy, ee), e), e.cod.size), True, True)


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
    ⟨e∘e, f∘e⟩∘e∘p."""
    if f.src != p.dst or g.src != p.dst or f.dst != g.dst:
        raise ShapeMismatch("morphisms do not form an almost-sure comparison")
    if p.dst.flavor is not Flavor.BLACKWELL:
        raise NotBalanced("almost-sure comparison needs a Blackwell middle cell")
    e = ee = p.dst.endo
    if not _settled(p.dst):  # a settled cell absorbs its copy, which is then not built
        _cell_copy(p.dst)  # raises NotHom unless the middle cell absorbs its copy
        ee = compose(e, e)
    ep = compose(e, p.kernel)
    joint_f = compose(pair(ee, compose(f.kernel, e)), ep)
    joint_g = compose(pair(ee, compose(g.kernel, e)), ep)
    return kernel_equal(joint_f, joint_g)


def env_split_idempotent(cell: EnvelopeCell) -> tuple[EnvelopeMorphism, EnvelopeMorphism]:
    """The formal splitting of a cell's idempotent inside the envelope.

    Viewing e as a morphism both (X,id) → (X,e) and (X,e) → (X,id), the
    two composites are the cell identity of (X,e) and the original
    idempotent on (X,id).  On a settled cell e∘e = e absorbs both.
    """
    e = cell.endo
    plain = EnvelopeCell(cell.object, identity(e.dom, e.kind), cell.flavor)
    if _settled(cell):
        return EnvelopeMorphism(plain, cell, e), EnvelopeMorphism(cell, plain, e)
    return env_hom(plain, cell, e), env_hom(cell, plain, e)  # raises the error
