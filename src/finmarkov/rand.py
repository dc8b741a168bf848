"""Seeded generators for objects and kernels.

Only `random.Random.randrange` is used, so outputs are reproducible
across platforms and Python versions for a fixed seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .kernel import FinObject, Kernel, Kind, function_kernel


def random_stoch_column(rng: random.Random, n: int) -> list[Fraction]:
    """Random distribution over n outcomes, weights 0 to 4; zero entries are common."""
    weights = [rng.randrange(5) for _ in range(n)]
    if not any(weights):
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def random_full_support_column(rng: random.Random, n: int) -> list[Fraction]:
    weights = [1 + rng.randrange(4) for _ in range(n)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def random_signed_column(rng: random.Random, n: int) -> list[Fraction]:
    """Entries in [-3, 3]/4 with the last one fixed so the sum is 1."""
    col = [Fraction(rng.randrange(-3, 4), 4) for _ in range(n - 1)]
    col.append(Fraction(1) - sum(col, Fraction(0)))
    return col


def random_multi_column(rng: random.Random, n: int) -> list[bool]:
    mask = 1 + rng.randrange(2**n - 1)
    return [bit == "1" for bit in reversed(f"{mask:0{n}b}")]


def random_kernel(rng: random.Random, kind: Kind, dom: FinObject, cod: FinObject) -> Kernel:
    if cod.size == 0 and dom.size != 0:
        raise ValueError("no valid kernel into an empty object from a nonempty one")
    return random_kernel_supported_on(rng, kind, dom, cod, list(range(cod.size)))


def random_deterministic_kernel(rng: random.Random, kind: Kind, dom: FinObject, cod: FinObject) -> Kernel:
    assignment = [rng.randrange(cod.size) for _ in range(dom.size)]
    return function_kernel(dom, cod, assignment, kind)


def random_column(rng: random.Random, kind: Kind, n: int):
    if kind is Kind.STOCH:
        return random_stoch_column(rng, n)
    if kind is Kind.SIGNED:
        return random_signed_column(rng, n)
    return random_multi_column(rng, n)


def random_kernel_supported_on(
    rng: random.Random, kind: Kind, dom: FinObject, cod: FinObject, allowed_rows: list[int]
) -> Kernel:
    """Random kernel whose columns only hit the given codomain rows."""
    cols = [dict(zip(allowed_rows, random_column(rng, kind, len(allowed_rows)))) for _ in range(dom.size)]
    return Kernel(kind, dom, cod, tuple(tuple(col.get(i, kind.zero) for col in cols) for i in range(cod.size)))
