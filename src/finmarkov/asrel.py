"""Almost-sure equality, absolute continuity, bicontinuity, atomicity.

Almost-sure equality is decided by support restriction: two kernels agree
almost surely exactly when they agree on the columns that the reference
morphism can reach, which is what the defining joint-diagram equation
says for finite kernels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .kernel import (
    UNIT,
    FinMarkovError,
    FinObject,
    Kernel,
    Kind,
    ShapeMismatch,
    _bits,
    _kernel,
    compose,
    copy_kernel,
    fin_object,
    function_kernel,
    support_indices,
    support_mask,
    tensor,
)
from .rand import random_kernel


class UnsupportedKind(FinMarkovError):
    """The requested relation has no finite characterization for this kind."""


class CodMismatch(FinMarkovError):
    """Compared kernels land in different objects."""


@dataclass(frozen=True)
class AseQuery:
    """An almost-sure-equality question with optional parameter wire.

    ``reference`` has codomain X; ``left`` and ``right`` share a domain
    that factors as W⊗X, with the W-factor size given by ``w_size``
    (1 for no parameter).
    """

    reference: Kernel
    left: Kernel
    right: Kernel
    w_size: int = 1

    def __post_init__(self) -> None:
        p, f, g = self.reference, self.left, self.right
        if not (p.kind is f.kind is g.kind):
            raise ShapeMismatch("all three kernels must have the same kind")
        if f.dom != g.dom or f.cod != g.cod:
            raise ShapeMismatch("compared kernels must be parallel")
        if self.w_size < 1:
            raise ShapeMismatch("w_size must be a positive integer")
        if f.dom.size != self.w_size * p.cod.size:
            raise ShapeMismatch(
                f"domain of size {f.dom.size} does not factor as {self.w_size}"
                f" x {p.cod.size}"
            )


def ase(query: AseQuery) -> bool:
    """Decide the almost-sure equality of ``left`` and ``right`` w.r.t.
    ``reference``: they agree at every parameter value on every column
    the reference can reach.
    """
    p, f, g, w = query.reference, query.left, query.right, query.w_size
    nx = p.cod.size
    fcols, gcols = f.columns, g.columns
    return all(fcols[wi * nx + x] == gcols[wi * nx + x] for x in support_indices(p) for wi in range(w))


def ase_kernels(p: Kernel, f: Kernel, g: Kernel, w_size: int = 1) -> bool:
    return ase(AseQuery(p, f, g, w_size))


def _unreached(q: Kernel, p: Kernel) -> int:
    """Bitmask of the elements p reaches and q does not."""
    if q.kind is not p.kind:
        raise CodMismatch("kernels of different kinds are not comparable")
    if q.kind is Kind.SIGNED:
        raise UnsupportedKind("absolute continuity is not decidable for signed kernels")
    if q.cod != p.cod:
        raise CodMismatch(f"codomains differ: {q.cod.labels} vs {p.cod.labels}")
    return support_mask(p) & ~support_mask(q)


def abs_cont(q: Kernel, p: Kernel) -> bool:
    """True iff q dominates p (p ≪ q): every q-a.s. equality is p-a.s.
    One mask test of reach(p) ⊆ reach(q); signed kernels are rejected."""
    return not _unreached(q, p)


@dataclass(frozen=True)
class AcWitness:
    """Indicator pair falsifying a domination claim q ≫ p.

    ``low`` and ``high`` are kernels X → {0,1} that agree q-almost surely
    but differ p-almost surely at ``element``.
    """

    low: Kernel
    high: Kernel
    element: str


_BIT = fin_object(("0", "1"))


def _indicator(x: FinObject, kind: Kind, hot: Optional[int]) -> Kernel:
    return function_kernel(x, _BIT, [1 if j == hot else 0 for j in range(x.size)], kind)


def refute_abs_cont(q: Kernel, p: Kernel) -> Optional[AcWitness]:
    """Witness for the failure of q ≫ p, or None when it holds.

    The witness pair is the constant-0 indicator against the indicator of
    the first element reached by p but not by q.  The two differ only at
    that element, so they are almost surely equal w.r.t. q and not w.r.t. p.
    """
    missing = _unreached(q, p)
    if not missing:
        return None
    x = next(_bits(missing))
    low = _indicator(p.cod, p.kind, None)
    high = _indicator(p.cod, p.kind, x)
    return AcWitness(low, high, p.cod.labels[x])


def acsim(p: Kernel, q: Kernel) -> bool:
    """Absolute bicontinuity: domination in both directions."""
    return abs_cont(p, q) and abs_cont(q, p)


def is_atomic(p: Kernel) -> bool:
    """Whether copying p stays dominated by two independent runs of p.

    Evaluates abs_cont(p⊗p, copy∘p) literally; in these finite models the
    answer is always True.
    """
    joint = compose(copy_kernel(p.cod, p.kind), p)
    return abs_cont(tensor(p, p), joint)


def perturb_off_support(f: Kernel, p: Kernel, seed: int) -> Kernel:
    """Replace the columns of f that p cannot reach with seeded random
    valid columns, leaving the reachable ones untouched.

    The result equals f almost surely w.r.t. p.  When an off-support
    column exists and the codomain has at least two elements, at least one
    replaced column is guaranteed to differ.  Deterministic per seed.
    """
    nx = p.cod.size
    if nx == 0 or f.dom.size % nx != 0:
        raise ShapeMismatch("domain of f does not end in the codomain of p")
    w = f.dom.size // nx
    reached = set(support_indices(p))
    off = [wi * nx + x for wi in range(w) for x in range(nx) if x not in reached]
    if not off or f.cod.size < 2:
        return f
    rng = random.Random(seed)
    draws = [random_kernel(rng, f.kind, UNIT, f.cod) for _ in off]
    cols = list(f.columns)
    if all(d.columns[0] == cols[j] for d, j in zip(draws, off)):
        # move each row of the first draw up by one, cyclically
        n = f.cod.size
        draws[0] = compose(function_kernel(f.cod, f.cod, [(i - 1) % n for i in range(n)], f.kind), draws[0])
        if draws[0].columns[0] == cols[off[0]]:
            # a column fixed by rotation is constant, so the point mass on
            # the first element differs from it
            draws[0] = function_kernel(UNIT, f.cod, [0], f.kind)
    for j, d in zip(off, draws):
        cols[j] = d.columns[0]
    return _kernel(f.kind, f.dom, f.cod, tuple(cols))


@dataclass(frozen=True)
class CausalityInstance:
    """Whether one instance of an implication meets its antecedent and its consequent."""

    antecedent: bool
    consequent: bool

    @property
    def implication_ok(self) -> bool:
        return (not self.antecedent) or self.consequent


def check_causality_instance(f: Kernel, g: Kernel, h1: Kernel, h2: Kernel) -> CausalityInstance:
    """One instance of the causality implication along a chain A→X→Y→Z.

    antecedent: h1 and h2 agree almost surely w.r.t. g∘f;
    consequent: h1∘g and h2∘g agree almost surely w.r.t. f.
    """
    if f.cod != g.dom or g.cod != h1.dom or h1.dom != h2.dom or h1.cod != h2.cod:
        raise ShapeMismatch("kernels do not form a chain A→X→Y with parallel Y→Z pair")
    antecedent = ase_kernels(compose(g, f), h1, h2)
    consequent = ase_kernels(f, compose(h1, g), compose(h2, g))
    return CausalityInstance(antecedent, consequent)
