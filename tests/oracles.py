"""Second procedures for verdicts the library decides once.

The library decides almost-sure equality, absolute continuity, supports,
conditionals and splittings by their direct characterisations for finite
kernels.  Each function here reaches the same result another way: by the
literal defining diagram, or by recomposing what a call returned.  The
tests compare each with the library's answer; the library never runs
these.  The public checks `verify_split` and `scomp_abs_cont` serve as
oracles as well.
"""

import math

from finmarkov import (
    UNIT,
    Kernel,
    Kind,
    compose,
    env_compose,
    identity,
    kernel_equal,
)
from finmarkov.functors import _reconstruct
from finmarkov.kernel import _reduced, deterministic_kernels

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
    differs_at = [p.cod.labels[j] for j in range(p.cod.size) if low.column(j) != high.column(j)]
    return (
        ase_by_joint(q, low, high)
        and not ase_by_joint(p, low, high)
        and witness.element in differs_at
    )


# ---------------------------------------------------------------------------
# the input-output relation and conditionals
# ---------------------------------------------------------------------------


def io_relation_by_states(p: Kernel) -> Kernel:
    """The relation read through every deterministic state I → A: the
    image of the j-th state is the set of outputs p∘state reaches."""
    states = deterministic_kernels(UNIT, p.dom)
    reached = [compose(p, s).column(0) for s in states]
    rows = [[col[i] > 0 for col in reached] for i in range(p.cod.size)]
    return Kernel(Kind.MULTI, p.dom, p.cod, rows)


def conditional_rebuilds(f: Kernel, cond: Kernel, split: int) -> bool:
    """Pairing the conditional with the first marginal gives back f."""
    return kernel_equal(_reconstruct(f, cond, split), f)


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


# ---------------------------------------------------------------------------
# supports
# ---------------------------------------------------------------------------


def recomposes(outer: Kernel, inner: Kernel, whole: Kernel) -> bool:
    """outer∘inner rebuilds whole: a factorization closes."""
    return kernel_equal(compose(outer, inner), whole)


def projection_is_section(p: Kernel, sd) -> bool:
    """ι∘π is p-almost surely the identity, by the defining equation."""
    return ase_by_joint(p, compose(sd.inclusion, sd.projection), identity(p.cod, p.kind))
