"""The worked example kernels and the golden verification suite.

These are small matrices with known classification and splitting data:
a strong-but-not-static idempotent, a static-but-not-strong one, a
balanced one that is neither, two non-balanced multivalued idempotents,
a non-balanced signed idempotent, and the domination pair whose
pre-composition with a point collapses one support but not the other.
`FIXTURES` names the checked-in document of each, and `CHECKS` is the
suite `finmarkov verify-paper` runs on those documents.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType

from .asrel import abs_cont
from .idempotents import NoSplitUpTo, blackwell_split, classify, search_split, verify_split
from .kernel import Kernel, Kind, compose, delta_kernel, fin_object, kernel_equal, make_kernel, multi_kernel

F = Fraction


def strong_idempotent() -> Kernel:
    """2x2 fair-mixing kernel: strong, not static, balanced."""
    x = fin_object(("0", "1"))
    return make_kernel(Kind.STOCH, x, x, [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])


def strong_split() -> tuple[Kernel, Kernel]:
    x = fin_object(("0", "1"))
    t = fin_object(("C_0",))
    iota = make_kernel(Kind.STOCH, t, x, [[F(1, 2)], [F(1, 2)]])
    pi = make_kernel(Kind.STOCH, x, t, [[1, 1]])
    return iota, pi


def static_idempotent() -> Kernel:
    """3x3 kernel fixing two states and mixing the third into them:
    static, not strong, balanced."""
    x = fin_object(("1", "2", "3"))
    return make_kernel(
        Kind.STOCH,
        x,
        x,
        [[1, 0, F(1, 2)], [0, 1, F(1, 2)], [0, 0, 0]],
    )


def static_split() -> tuple[Kernel, Kernel]:
    x = fin_object(("1", "2", "3"))
    t = fin_object(("C_1", "C_2"))
    iota = make_kernel(Kind.STOCH, t, x, [[1, 0], [0, 1], [0, 0]])
    pi = make_kernel(Kind.STOCH, x, t, [[1, 0, F(1, 2)], [0, 1, F(1, 2)]])
    return iota, pi


def balanced_idempotent() -> Kernel:
    """4x4 kernel with a two-state mixing class, a fixed state, and a
    transient state: balanced, neither static nor strong."""
    x = fin_object(("1", "2", "3", "4"))
    return make_kernel(
        Kind.STOCH,
        x,
        x,
        [
            [F(1, 2), F(1, 2), 0, F(1, 4)],
            [F(1, 2), F(1, 2), 0, F(1, 4)],
            [0, 0, 1, F(1, 2)],
            [0, 0, 0, 0],
        ],
    )


def balanced_split() -> tuple[Kernel, Kernel]:
    x = fin_object(("1", "2", "3", "4"))
    t = fin_object(("C_1", "C_3"))
    iota = make_kernel(Kind.STOCH, t, x, [[F(1, 2), 0], [F(1, 2), 0], [0, 1], [0, 0]])
    pi = make_kernel(Kind.STOCH, x, t, [[1, 1, 0, F(1, 2)], [0, 0, 1, F(1, 2)]])
    return iota, pi


def multi_upset_idempotent() -> Kernel:
    """Multivalued idempotent 0 ↦ {0,1}, 1 ↦ {1}: not balanced and
    provably unsplittable."""
    x = fin_object(("0", "1"))
    return multi_kernel(x, x, [["0", "1"], ["1"]])


def multi_chain3_idempotent() -> Kernel:
    """The same upward-closure pattern on a 3-chain (x ↦ {y : y ≥ x}):
    idempotent and not balanced."""
    x = fin_object(("0", "1", "2"))
    return multi_kernel(x, x, [["0", "1", "2"], ["1", "2"], ["2"]])


def signed_idempotent() -> Kernel:
    """3x3 signed idempotent with a negative entry: not balanced."""
    x = fin_object(("a", "b", "c"))
    return make_kernel(
        Kind.SIGNED,
        x,
        x,
        [[1, 0, 0], [1, 0, 0], [-1, 1, 1]],
    )


def signed_coassoc_counterexample() -> Kernel:
    """Rank-3 signed idempotent whose envelope copy morphism fails
    coassociativity (counitality and cocommutativity still hold).

    A middle object of size 2 forces coassociativity for any counital
    cocommutative comultiplication and the boolean column law forces it at
    every size, so three mixing classes and signed weights are the
    smallest setting where the failure appears.
    """
    x = fin_object(("a", "b", "c", "d"))
    return make_kernel(
        Kind.SIGNED,
        x,
        x,
        [
            [F(1, 9), F(4, 9), F(-5, 9), F(1, 9)],
            [F(64, 27), F(-5, 27), F(40, 27), F(-8, 27)],
            [F(32, 27), F(-16, 27), F(47, 27), F(-4, 27)],
            [F(-8, 3), F(4, 3), F(-5, 3), F(4, 3)],
        ],
    )


def domination_pair() -> tuple[Kernel, Kernel]:
    """(q, p) on {0,1} with q dominating p, while the pushforwards along
    the point 0 fail to dominate (q∘δ₀ misses an element p∘δ₀ reaches)."""
    x = fin_object(("0", "1"))
    q = make_kernel(Kind.STOCH, x, x, [[1, F(1, 2)], [0, F(1, 2)]])
    p = make_kernel(Kind.STOCH, x, x, [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
    return q, p


# each fixture document under fixtures/, by file name without ".json", and the built-in it holds
FIXTURES = MappingProxyType({
    "e_strong": strong_idempotent,
    "e_static": static_idempotent,
    "e_balanced4": balanced_idempotent,
    "e_multi_upset": multi_upset_idempotent,
    "e_multi_chain3": multi_chain3_idempotent,
    "e_signed3": signed_idempotent,
    "remark_q": lambda: domination_pair()[0],
    "remark_p": lambda: domination_pair()[1],
})


def _flags(e: Kernel, *flags: bool) -> bool:
    """Whether e is idempotent with these deterministic, static, strong and balanced flags."""
    return tuple(classify(e).flags().values()) == (True, *flags)


def _splits(e: Kernel, classes: list, transient: list, iota: Kernel, pi: Kernel) -> bool:
    """Whether e's class splitting is a splitting, is (iota, pi) and has these classes."""
    sd = blackwell_split(e)
    return (verify_split(e, sd.inclusion, sd.projection)[1]
            and kernel_equal(sd.inclusion, iota) and kernel_equal(sd.projection, pi)
            and set(map(frozenset, sd.classes)) == set(map(frozenset, classes))
            and set(sd.transient) == set(transient))


def _not_balanced(e: Kernel) -> bool:
    r = classify(e)
    return r.idempotent and not r.balanced


# (name, check) in report order; a check reads the loaded fixtures by name
CHECKS = (
    ("fixtures match built-ins", lambda fx: all(fx[name] == built() for name, built in FIXTURES.items())),
    ("strong example flags", lambda fx: _flags(fx["e_strong"], False, False, True, True)),
    ("static example flags", lambda fx: _flags(fx["e_static"], False, True, False, True)),
    ("balanced example flags", lambda fx: _flags(fx["e_balanced4"], False, False, False, True)),
    ("strong example splitting", lambda fx: _splits(fx["e_strong"], [("0", "1")], [], *strong_split())),
    ("static example splitting", lambda fx: _splits(fx["e_static"], [("1",), ("2",)], ["3"], *static_split())),
    ("balanced example splitting",
     lambda fx: _splits(fx["e_balanced4"], [("1", "2"), ("3",)], ["4"], *balanced_split())),
    ("multi upset not balanced", lambda fx: _not_balanced(fx["e_multi_upset"])),
    ("3-chain pattern not balanced", lambda fx: _not_balanced(fx["e_multi_chain3"])),
    ("signed example not balanced", lambda fx: _not_balanced(fx["e_signed3"])),
    ("multi upset does not split", lambda fx: isinstance(search_split(fx["e_multi_upset"], 2), NoSplitUpTo)),
    ("domination holds", lambda fx: abs_cont(fx["remark_q"], fx["remark_p"])),
    ("domination breaks after the point", lambda fx: not abs_cont(
        *(compose(k, delta_kernel(k.dom, "0", k.kind)) for k in (fx["remark_q"], fx["remark_p"])))),
)
