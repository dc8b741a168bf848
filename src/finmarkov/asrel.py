"""Almost-sure equality, absolute continuity, bicontinuity, atomicity.

Two independent procedures decide almost-sure equality and are
cross-checked on every call: a support-restriction shortcut (compare the
two kernels on the columns that the reference morphism can reach) and a
literal evaluation of the defining joint-diagram equation.
"""

from __future__ import annotations

import math
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
    _reduced,
    compose,
    copy_kernel,
    fin_object,
    function_kernel,
    support_indices,
    tensor,
)
from .rand import random_column


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


def _joint_columns(p: Kernel, f: Kernel, w_size: int) -> list:
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


def ase(query: AseQuery) -> bool:
    """Decide the almost-sure equality of ``left`` and ``right`` w.r.t.
    ``reference``.

    Both the support-restriction shortcut and the joint-diagram equation
    are evaluated; a disagreement would be a library bug and raises.
    """
    p, f, g, w = query.reference, query.left, query.right, query.w_size
    nx = p.cod.size
    fcols, gcols = f.columns, g.columns
    shortcut = all(fcols[wi * nx + x] == gcols[wi * nx + x] for x in support_indices(p) for wi in range(w))
    literal = _joint_columns(p, f, w) == _joint_columns(p, g, w)
    if shortcut != literal:  # pragma: no cover - would indicate a defect
        raise AssertionError("almost-sure equality procedures disagree")
    return shortcut


def ase_kernels(p: Kernel, f: Kernel, g: Kernel, w_size: int = 1) -> bool:
    return ase(AseQuery(p, f, g, w_size))


def abs_cont(q: Kernel, p: Kernel) -> bool:
    """True iff q dominates p (p ≪ q): every q-a.s. equality is p-a.s.

    Decided by support inclusion: reach(p) ⊆ reach(q).  Signed kernels
    are rejected; no finite characterization is available for them.
    """
    if q.kind is not p.kind:
        raise CodMismatch("kernels of different kinds are not comparable")
    if q.kind is Kind.SIGNED:
        raise UnsupportedKind("absolute continuity is not decidable for signed kernels")
    if q.cod != p.cod:
        raise CodMismatch(f"codomains differ: {q.cod.labels} vs {p.cod.labels}")
    return set(support_indices(p)) <= set(support_indices(q))


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
    the first element reached by p but not by q; replaying it through
    :func:`ase` yields (True w.r.t. q, False w.r.t. p).
    """
    if abs_cont(q, p):
        return None
    qs = set(support_indices(q))
    x = next(i for i in support_indices(p) if i not in qs)
    low = _indicator(p.cod, p.kind, None)
    high = _indicator(p.cod, p.kind, x)
    if not ase_kernels(q, low, high) or ase_kernels(p, low, high):
        raise AssertionError("indicator witness does not replay through ase")
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
    cols = [list(f.column(j)) for j in range(f.dom.size)]
    for j in off:
        cols[j] = list(random_column(rng, f.kind, f.cod.size))
    if all(tuple(cols[j]) == f.column(j) for j in off):
        j = off[0]
        cols[j] = cols[j][1:] + cols[j][:1]
        if tuple(cols[j]) == f.column(j):
            # a column fixed by rotation is constant, so the point mass on
            # the first element differs from it
            cols[j] = list(function_kernel(UNIT, f.cod, [0], f.kind).column(0))
    rows = tuple(tuple(cols[j][i] for j in range(f.dom.size)) for i in range(f.cod.size))
    out = Kernel(f.kind, f.dom, f.cod, rows)
    if not ase_kernels(p, f, out, w):
        raise AssertionError("perturbed kernel is not almost surely equal to the original")
    return out


@dataclass(frozen=True)
class CausalityInstance:
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
