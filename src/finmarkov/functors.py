"""The input-output relation functor, parametric kernels, and conditionals.

The input-output relation of a stochastic kernel is its possibilistic
shadow: the multivalued kernel relating each input to the outputs it can
produce with positive probability.
"""

from __future__ import annotations

from dataclasses import dataclass

from .asrel import UnsupportedKind
from .kernel import (
    DomainMismatch,
    FinMarkovError,
    FinObject,
    Kernel,
    Kind,
    ShapeMismatch,
    _kernel,
    _reduced,
    _require_same_kind,
    compose,
    copy_kernel,
    discard_kernel,
    function_kernel,
    identity,
    kernel_equal,
    marginalize,
    pair,
    split_tensor_labels,
    tensor,
    tensor_object,
)


class ParamMismatch(FinMarkovError):
    """Parametric kernels over different parameter objects."""


class NotAConditional(FinMarkovError):
    """The candidate does not reconstruct the joint kernel."""


def io_relation(p: Kernel) -> Kernel:
    """Multi kernel relating each input to its positive-probability
    outputs; objects are carried over unchanged.

    In this model the deterministic states of an object are exactly its
    elements, so the relation is read off column by column: within the law
    every stored numerator is positive and every image nonempty.
    """
    if p.kind is not Kind.STOCH:
        raise UnsupportedKind("the input-output relation is taken of stochastic kernels")
    masks = tuple([sum([1 << i for i, _ in cells]) for _, cells in p.columns])
    return _kernel(Kind.MULTI, p.dom, p.cod, masks)


@dataclass(frozen=True)
class RelationFunctorCheck:
    composition_ok: bool
    tensor_ok: bool
    copy_ok: bool


def upsilon_check(p: Kernel, g: Kernel) -> RelationFunctorCheck:
    """Functor laws of the relation on a composable pair p: A→X, g: X→Y:
    compatibility with composition, with the monoidal product, and with
    copying."""
    if p.cod != g.dom:
        raise ShapeMismatch("pair must compose as g∘p")
    composition_ok = kernel_equal(io_relation(compose(g, p)), compose(io_relation(g), io_relation(p)))
    tensor_ok = kernel_equal(io_relation(tensor(p, g)), tensor(io_relation(p), io_relation(g)))
    copy_ok = kernel_equal(io_relation(copy_kernel(p.dom)), copy_kernel(p.dom, Kind.MULTI))
    return RelationFunctorCheck(composition_ok, tensor_ok, copy_ok)


# ---------------------------------------------------------------------------
# Parametric kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamMorphism:
    """A kernel A → X with an extra parameter wire W: the inner kernel
    has domain W⊗A."""

    w: FinObject
    a: FinObject
    x: FinObject
    inner: Kernel

    def __post_init__(self) -> None:
        if self.inner.dom != tensor_object(self.w, self.a):
            raise ShapeMismatch("inner domain must be the parameter tensor the input")
        if self.inner.cod != self.x:
            raise ShapeMismatch("inner codomain must be the declared output")


def param_lift(f: Kernel, w: FinObject) -> ParamMorphism:
    """Lift an ordinary kernel by discarding the parameter: f∘π_A, with
    π_A: W⊗A → A the projection."""
    wa = tensor_object(w, f.dom)
    to_a = function_kernel(wa, f.dom, [j % f.dom.size for j in range(wa.size)], f.kind)
    return ParamMorphism(w, f.dom, f.cod, compose(f, to_a))


def param_identity(w: FinObject, a: FinObject, kind: Kind = Kind.STOCH) -> ParamMorphism:
    return param_lift(identity(a, kind), w)


def param_copy(w: FinObject, a: FinObject, kind: Kind = Kind.STOCH) -> ParamMorphism:
    return param_lift(copy_kernel(a, kind), w)


def param_discard(w: FinObject, a: FinObject, kind: Kind = Kind.STOCH) -> ParamMorphism:
    return param_lift(discard_kernel(a, kind), w)


def param_compose(g: ParamMorphism, f: ParamMorphism) -> ParamMorphism:
    """Composition sharing the parameter: g∘f = g.inner ∘ ⟨π_W, f.inner⟩,
    with π_W: W⊗A → W the projection."""
    if f.w != g.w:
        raise ParamMismatch("parameter objects differ")
    if f.x != g.a:
        raise ShapeMismatch("middle objects differ")
    w, wa = f.w, f.inner.dom
    to_w = function_kernel(wa, w, [j // f.a.size for j in range(wa.size)], f.inner.kind)
    return ParamMorphism(w, f.a, g.x, compose(g.inner, pair(to_w, f.inner)))


def param_tensor(f: ParamMorphism, g: ParamMorphism) -> ParamMorphism:
    """Monoidal product sharing the parameter: ⟨f.inner∘ρ_A, g.inner∘ρ_B⟩,
    with ρ_A, ρ_B the projections W⊗(A⊗B) → W⊗A and W⊗(A⊗B) → W⊗B."""
    if f.w != g.w:
        raise ParamMismatch("parameter objects differ")
    kind = f.inner.kind
    ab = tensor_object(f.a, g.a)
    src = tensor_object(f.w, ab)
    # (w,(a,b)) sits at (w·|A| + a)·|B| + b
    nab, nb = ab.size, g.a.size
    to_a = function_kernel(src, f.inner.dom, [j // nb for j in range(src.size)], kind)
    to_b = function_kernel(src, g.inner.dom, [j // nab * nb + j % nb for j in range(src.size)], kind)
    inner = pair(compose(f.inner, to_a), compose(g.inner, to_b))
    return ParamMorphism(f.w, ab, tensor_object(f.x, g.x), inner)


# ---------------------------------------------------------------------------
# Conditionals
# ---------------------------------------------------------------------------


def _block_columns(f: Kernel, ny: int) -> list | None:
    """Entry x·|A|+a is f's column a on rows x·|Y| … x·|Y|+|Y|−1 (its block at
    x) over the block's mass m, stored canonically (over Multi, the block
    mask), or None where m = 0; the list is None if such a block is not empty."""
    nx, na = f.cod.size // ny, f.dom.size
    if f.kind is Kind.MULTI:
        return [col >> lo & (1 << ny) - 1 or None for lo in range(0, nx * ny, ny) for col in f.columns]
    parts: list = [[] for _ in range(nx * na)]
    for a, (_, cells) in enumerate(f.columns):
        for i, num in cells:
            parts[i // ny * na + a].append((i % ny, num))
    out = []
    for part in parts:
        mass = sum(num for _, num in part)
        if part and not mass:
            return None
        out.append(_reduced(abs(mass), part if mass > 0 else [(y, -num) for y, num in part]) if mass else None)
    return out


def conditional(f: Kernel, split: int) -> Kernel:
    """Conditional of a joint kernel f: A → X⊗Y given its first factor.

    Returns c: X⊗A → Y with c(y|x,a) = f((x,y)|a) / Σ_y' f((x,y')|a);
    where the marginal mass vanishes the column is the point mass on the
    first element of Y, so pairing c with the first marginal rebuilds f.
    """
    if f.kind is not Kind.STOCH:
        raise UnsupportedKind("conditionals are implemented for stochastic kernels")
    x_obj, y_obj = split_tensor_labels(f.cod, split)
    cols = tuple((1, ((0, 1),)) if col is None else col for col in _block_columns(f, y_obj.size))
    return _kernel(Kind.STOCH, tensor_object(x_obj, f.dom), y_obj, cols)


def comparison_base(f: Kernel, split: int) -> Kernel:
    """The reference kernel for conditional uniqueness: pair the first
    marginal with the input, b = ⟨f_X, id_A⟩ : A → X⊗A."""
    return pair(marginalize(f, split, "right"), identity(f.dom, f.kind))


def verify_conditional_unique(f: Kernel, c1: Kernel, c2: Kernel, split: int | None = None) -> bool:
    """Check that two conditionals of the same joint agree almost surely
    w.r.t. the paired marginal b = `comparison_base(f, split)`; candidates
    that fail to reconstruct the joint are rejected.  The split is
    inferred from the candidates' domain when not given.

    Decided on stored columns, building no kernel: the reconstruction
    ⟨π_X, c⟩∘b is m·c(·|x,a) on the block of column a at x, m its mass, so
    it is f iff c has Y's labels, equals block/m where m ≠ 0, and every
    block of mass 0 is empty.  b reaches (x,a) iff m ≠ 0, so two such
    candidates agree b-almost surely: the verdict is True."""
    if split is None:
        if f.dom.size == 0 or c1.dom.size % f.dom.size != 0:
            raise ShapeMismatch("cannot infer the split from the candidate's domain")
        split = c1.dom.size // f.dom.size
    if c1.dom != c2.dom or c1.cod != c2.cod:
        raise ShapeMismatch("candidates must be parallel")
    x_obj, y_obj = split_tensor_labels(f.cod, split)
    blocks = _block_columns(f, y_obj.size)
    for c in (c1, c2):
        _require_same_kind(f, c)
        if c.dom != tensor_object(x_obj, f.dom):
            raise DomainMismatch(f"candidate domain {c.dom.labels} is not X⊗A")
        if blocks is None or c.cod != y_obj or any(b not in (None, col) for b, col in zip(blocks, c.columns)):
            raise NotAConditional("candidate does not satisfy the conditional equation")
    return True
