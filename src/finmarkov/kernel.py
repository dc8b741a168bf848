"""Exact finite kernels over three scalar structures.

A kernel is a matrix whose column at a domain element gives the
distribution (Stoch), signed distribution (Signed) or set of possible
outputs (Multi) over the codomain.  All arithmetic is exact: at the API,
Stoch and Signed entries are `fractions.Fraction` and Multi entries are
`bool`; inside, the cubic loops of `compose` and `classify` run over
integer numerators with a common denominator, and Multi `compose` ORs
int bitmasks.
Floating point is rejected everywhere.

Matrix layout: ``matrix[i][j]`` is the weight of codomain element ``i``
given domain element ``j`` (rows indexed by the codomain, columns by the
domain), so a column reads off the image of one input.

Every deterministic kernel (identity, copy, discard, swap, point masses,
the associator and unitors, subset inclusions) is built by
:func:`function_kernel` from one codomain index per domain element.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

ZERO = Fraction(0)
ONE = Fraction(1)

Entry = Union[Fraction, bool]


class FinMarkovError(Exception):
    """Base class for all library errors."""


class ValidationError(FinMarkovError):
    """A kernel or object violates a structural law."""


class DomainMismatch(FinMarkovError):
    """Composition attempted along non-matching objects."""


class KindMismatch(FinMarkovError):
    """Operation mixing kernels of different kinds."""


class UnknownLabel(FinMarkovError):
    """A label does not belong to the given object."""


class BadSplit(FinMarkovError):
    """A codomain does not factor as a tensor at the requested position."""


class ShapeMismatch(FinMarkovError):
    """Kernel shapes do not fit the requested operation."""


class Kind(enum.Enum):
    """Scalar structure of a kernel.

    The value is the name used in kernel documents; ``zero`` and ``one``
    are the scalars of the kind (``False`` and ``True`` for MULTI).
    """

    STOCH = ("stoch", ZERO, ONE)
    SIGNED = ("signed", ZERO, ONE)
    MULTI = ("multi", False, True)

    def __new__(cls, value: str, zero: Entry, one: Entry) -> "Kind":
        member = object.__new__(cls)
        member._value_ = value
        member.zero = zero
        member.one = one
        return member


@dataclass(frozen=True)
class FinObject:
    """An ordered finite set of distinct string labels.

    The listed order is the tie-breaking order used everywhere (first
    support element, witness scans, minimal class members).
    """

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError(f"duplicate labels in object: {self.labels}")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(f"label {label!r} not in object {self.labels}") from None

    def __repr__(self) -> str:
        return f"FinObject({list(self.labels)!r})"


#: The monoidal unit: a single element written "•".
UNIT = FinObject(("•",))


def fin_object(labels: Iterable[str]) -> FinObject:
    return FinObject(tuple(labels))


def tensor_object(x: FinObject, y: FinObject) -> FinObject:
    """Product object with elements "(x,y)" in x-major order."""
    return FinObject(tuple(f"({a},{b})" for a in x.labels for b in y.labels))


def split_tensor_labels(obj: FinObject, left_size: int) -> tuple[FinObject, FinObject]:
    """Recover the two factors of a tensor-built object.

    Requires every label to have the form "(a,b)" consistently with an
    x-major ``left_size`` by ``obj.size // left_size`` grid.
    """
    n = obj.size
    if left_size <= 0 or n % left_size != 0:
        raise BadSplit(f"object of size {n} does not factor with left size {left_size}")
    right_size = n // left_size

    def unpair(label: str) -> tuple[str, str]:
        if not (label.startswith("(") and label.endswith(")")):
            raise BadSplit(f"label {label!r} is not a tensor pair")
        body = label[1:-1]
        depth = 0
        for k, ch in enumerate(body):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                return body[:k], body[k + 1 :]
        raise BadSplit(f"label {label!r} has no top-level comma")

    pairs = [unpair(lbl) for lbl in obj.labels]
    left = tuple(pairs[i * right_size][0] for i in range(left_size))
    right = tuple(pairs[j][1] for j in range(right_size))
    for i in range(left_size):
        for j in range(right_size):
            if pairs[i * right_size + j] != (left[i], right[j]):
                raise BadSplit(f"labels of {obj.labels} are not a consistent tensor grid")
    return FinObject(left), FinObject(right)


def _coerce_entry(kind: Kind, value) -> Entry:
    if kind is Kind.MULTI:
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            return bool(value)
        raise ValidationError(f"multi entries must be bool, got {value!r}")
    if isinstance(value, bool) or isinstance(value, float):
        raise ValidationError(f"exact kernels take Fraction or int entries, got {value!r}")
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    raise ValidationError(f"bad matrix entry {value!r}")


@dataclass(frozen=True)
class Kernel:
    """A morphism: matrix over one of the three scalar structures.

    Construction performs shape checks only; use :func:`validate` or
    :func:`make_kernel` to enforce the column law of the kind.
    """

    kind: Kind
    dom: FinObject
    cod: FinObject
    matrix: tuple[tuple[Entry, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", tuple(tuple(row) for row in self.matrix))
        if len(self.matrix) != self.cod.size:
            raise ShapeMismatch(
                f"{len(self.matrix)} rows for codomain of size {self.cod.size}"
            )
        for row in self.matrix:
            if len(row) != self.dom.size:
                raise ShapeMismatch(
                    f"row of length {len(row)} for domain of size {self.dom.size}"
                )

    def entry(self, i: int, j: int) -> Entry:
        return self.matrix[i][j]

    def column(self, j: int) -> tuple[Entry, ...]:
        return tuple(row[j] for row in self.matrix)

    def at(self, out_label: str, in_label: str) -> Entry:
        return self.matrix[self.cod.index(out_label)][self.dom.index(in_label)]

    def __repr__(self) -> str:
        return (
            f"Kernel({self.kind.value}, dom={list(self.dom.labels)}, "
            f"cod={list(self.cod.labels)})"
        )


@dataclass(frozen=True)
class Violation:
    """First structural defect found by :func:`validate`."""

    column: Optional[int]
    message: str


def validate(k: Kernel) -> Optional[Violation]:
    """Check the column law of the kernel's kind; None means valid.

    Stoch: entries nonnegative, every column sums to 1.
    Signed: every column sums to 1.
    Multi: every column has at least one true entry.
    """
    for j in range(k.dom.size):
        col = k.column(j)
        if k.kind is Kind.MULTI:
            if not any(col):
                return Violation(j, f"column {j} has empty image")
            continue
        if k.kind is Kind.STOCH and any(v < 0 for v in col):
            bad = next(v for v in col if v < 0)
            return Violation(j, f"column {j} has negative entry {bad}")
        total = sum(col, ZERO)
        if total != ONE:
            return Violation(j, f"column {j} sums to {total}")
    return None


def make_kernel(kind: Kind, dom: FinObject, cod: FinObject, rows: Sequence[Sequence]) -> Kernel:
    """Build a kernel, coercing int entries, and enforce the column law."""
    matrix = tuple(tuple(_coerce_entry(kind, v) for v in row) for row in rows)
    k = Kernel(kind, dom, cod, matrix)
    bad = validate(k)
    if bad is not None:
        raise ValidationError(bad.message)
    return k


def multi_kernel(dom: FinObject, cod: FinObject, images: Sequence[Iterable[str]]) -> Kernel:
    """Multi kernel from per-input images given as label collections."""
    if len(images) != dom.size:
        raise ShapeMismatch(f"{len(images)} images for domain of size {dom.size}")
    idx = [{cod.index(lbl) for lbl in img} for img in images]
    rows = [[i in idx[j] for j in range(dom.size)] for i in range(cod.size)]
    return make_kernel(Kind.MULTI, dom, cod, rows)


def function_kernel(dom: FinObject, cod: FinObject, targets: Sequence[int], kind: Kind) -> Kernel:
    """Deterministic kernel sending domain element ``j`` to codomain
    element ``targets[j]``: column ``j`` is ``kind.one`` at that row and
    ``kind.zero`` elsewhere."""
    if len(targets) != dom.size:
        raise ShapeMismatch(f"{len(targets)} targets for domain of size {dom.size}")
    rows = [[kind.zero] * dom.size for _ in range(cod.size)]
    for j, i in enumerate(targets):
        if not 0 <= i < cod.size:
            raise ShapeMismatch(f"target {i!r} outside codomain of size {cod.size}")
        rows[i][j] = kind.one
    return Kernel(kind, dom, cod, rows)


def _require_same_kind(f: Kernel, g: Kernel) -> None:
    if f.kind is not g.kind:
        raise KindMismatch(f"{f.kind.value} vs {g.kind.value}")


def _integer_numerators(entries: Sequence[Entry]) -> tuple[int, Sequence]:
    """Integer numerators of ``entries`` over their least common
    denominator, with that denominator; bool entries come back unchanged
    over 1."""
    if entries and entries[0].__class__ is bool:
        return 1, entries
    den = math.lcm(*[v.denominator for v in entries])
    return den, [v.numerator * (den // v.denominator) for v in entries]


def compose(g: Kernel, f: Kernel) -> Kernel:
    """Sequential composite g∘f, with (g∘f)(z|a) = Σ_y g(z|y)·f(y|a).

    Over Multi the sum is boolean OR of ANDs (relational composition).
    Each output column visits only the nonzero entries of f's column and
    reads only the columns of g they reach, each once per call.  Exact
    sums run over integer numerators with one denominator per output
    column; Multi columns are OR-ed as int bitmasks.
    """
    _require_same_kind(f, g)
    if f.cod != g.dom:
        raise DomainMismatch(
            f"cannot compose: middle objects differ ({f.cod.labels} vs {g.dom.labels})"
        )
    kind = f.kind
    n = g.cod.size
    gm = g.matrix
    zero = kind.zero
    # most zeros are the kind's own zero object: `v is not zero` skips them
    # without a call into Fraction
    columns = zip(*f.matrix) if f.matrix else [()] * f.dom.size
    fcols = [[(y, v) for y, v in enumerate(col) if v is not zero and v] for col in columns]
    gcols: dict = {}
    out = []
    if kind is Kind.MULTI:
        # one byte per codomain element, so bytes() and to_bytes() convert
        for col in fcols:
            mask = 0
            for y, _ in col:
                gmask = gcols.get(y)
                if gmask is None:
                    gmask = gcols[y] = int.from_bytes(bytes([row[y] for row in gm]), "little")
                mask |= gmask
            out.append(tuple(map(bool, mask.to_bytes(n, "little"))))
    else:
        for col in fcols:
            if not col:
                out.append((zero,) * n)
                continue
            fden, fnums = _integer_numerators([v for _, v in col])
            terms = []
            for (y, _), a in zip(col, fnums):
                gcol = gcols.get(y)
                if gcol is None:
                    cells = [(i, v) for i, row in enumerate(gm) if (v := row[y]) is not zero and v]
                    gden, gnums = _integer_numerators([v for _, v in cells])
                    gcol = gcols[y] = gden, [(i, b) for (i, _), b in zip(cells, gnums)]
                terms.append((gcol, a))
            lcd = math.lcm(*[gden for (gden, _), _ in terms])
            acc = [0] * n
            for (gden, gnums), a in terms:
                scale = a * (lcd // gden)
                for i, b in gnums:
                    acc[i] += scale * b
            den = fden * lcd
            out.append([Fraction(num, den) if num else zero for num in acc])
    rows = tuple(zip(*out)) if out else ((),) * n
    return Kernel(kind, f.dom, g.cod, rows)


def tensor(f: Kernel, g: Kernel) -> Kernel:
    """Monoidal product (f⊗g)((y,z)|(a,b)) = f(y|a)·g(z|b), x-major indexing."""
    _require_same_kind(f, g)
    kind = f.kind
    multi = kind is Kind.MULTI
    dom = tensor_object(f.dom, g.dom)
    cod = tensor_object(f.cod, g.cod)
    zero = kind.zero
    zero_row = (zero,) * dom.size
    nd2 = g.dom.size
    rows = []
    for i1 in range(f.cod.size):
        frow = f.matrix[i1]
        for i2 in range(g.cod.size):
            grow = g.matrix[i2]
            if not any(frow) or not any(grow):
                rows.append(zero_row)
                continue
            row = []
            for j1 in range(f.dom.size):
                fv = frow[j1]
                if not fv:
                    row.extend([zero] * nd2)
                elif multi:
                    row.extend(grow)
                else:
                    row.extend(fv * gv if gv else zero for gv in grow)
            rows.append(tuple(row))
    return Kernel(kind, dom, cod, tuple(rows))


def identity(x: FinObject, kind: Kind = Kind.STOCH) -> Kernel:
    return function_kernel(x, x, range(x.size), kind)


def copy_kernel(x: FinObject, kind: Kind = Kind.STOCH) -> Kernel:
    """copy(x₁,x₂|x) = [x₁ = x = x₂]; deterministic."""
    n = x.size
    return function_kernel(x, tensor_object(x, x), [j * n + j for j in range(n)], kind)


def discard_kernel(x: FinObject, kind: Kind = Kind.STOCH) -> Kernel:
    """The unique morphism to the unit: a single all-one row."""
    return function_kernel(x, UNIT, [0] * x.size, kind)


def swap_kernel(x: FinObject, y: FinObject, kind: Kind = Kind.STOCH) -> Kernel:
    """swap((y,x)|(x,y)) = 1."""
    targets = [j2 * x.size + j1 for j1 in range(x.size) for j2 in range(y.size)]
    return function_kernel(tensor_object(x, y), tensor_object(y, x), targets, kind)


def delta_kernel(x: FinObject, label: str, kind: Kind = Kind.STOCH) -> Kernel:
    """Point mass at ``label``, as a state I → X."""
    return function_kernel(UNIT, x, [x.index(label)], kind)


def associator(x: FinObject, y: FinObject, z: FinObject, kind: Kind = Kind.STOCH) -> Kernel:
    """Relabeling iso (X⊗Y)⊗Z → X⊗(Y⊗Z); the underlying matrix is the identity."""
    dom = tensor_object(tensor_object(x, y), z)
    cod = tensor_object(x, tensor_object(y, z))
    return function_kernel(dom, cod, range(dom.size), kind)


def left_unitor(x: FinObject, kind: Kind = Kind.STOCH) -> Kernel:
    """Relabeling iso I⊗X → X."""
    return function_kernel(tensor_object(UNIT, x), x, range(x.size), kind)


def right_unitor(x: FinObject, kind: Kind = Kind.STOCH) -> Kernel:
    """Relabeling iso X⊗I → X."""
    return function_kernel(tensor_object(x, UNIT), x, range(x.size), kind)


def right_unitor_inv(x: FinObject, kind: Kind = Kind.STOCH) -> Kernel:
    """Relabeling iso X → X⊗I."""
    return function_kernel(x, tensor_object(x, UNIT), range(x.size), kind)


def marginalize(f: Kernel, split: int, side: str) -> Kernel:
    """Sum (OR) out one factor of a tensor-shaped codomain.

    ``split`` is the size of the left factor; ``side`` names the factor
    that gets discarded.  Equals post-composition with id⊗discard
    (side="right") or discard⊗id (side="left").
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    left, right = split_tensor_labels(f.cod, split)
    m = right.size
    if side == "right":
        keep = left
        groups = [[i * m + r for r in range(m)] for i in range(left.size)]
    else:
        keep = right
        groups = [[l * m + i for l in range(left.size)] for i in range(m)]
    multi = f.kind is Kind.MULTI
    rows = []
    for group in groups:
        row = []
        for j in range(f.dom.size):
            cells = [f.matrix[i][j] for i in group]
            row.append(any(cells) if multi else sum(cells, ZERO))
        rows.append(tuple(row))
    return Kernel(f.kind, f.dom, keep, tuple(rows))


def is_point_mass(kind: Kind, col: Sequence[Entry]) -> bool:
    if kind is Kind.MULTI:
        return sum(1 for v in col if v) == 1
    return sum(1 for v in col if v != 0) == 1 and any(v == 1 for v in col)


def is_deterministic(f: Kernel) -> bool:
    """True iff every column is a point mass.

    Shortcut for the comonoid equation copy∘f = (f⊗f)∘copy; the
    equivalence is property-tested against the literal equation.
    """
    return all(is_point_mass(f.kind, f.column(j)) for j in range(f.dom.size))


def deterministic_by_comonoid(f: Kernel) -> bool:
    """Literal comonoid-equation determinism test (reference oracle)."""
    lhs = compose(copy_kernel(f.cod, f.kind), f)
    rhs = compose(tensor(f, f), copy_kernel(f.dom, f.kind))
    return kernel_equal(lhs, rhs)


def kernel_equal(f: Kernel, g: Kernel) -> bool:
    """Exact equality: same kind, same dom/cod labels, identical matrices."""
    return (
        f.kind is g.kind
        and f.dom.labels == g.dom.labels
        and f.cod.labels == g.cod.labels
        and f.matrix == g.matrix
    )


def same_matrix(f: Kernel, g: Kernel) -> bool:
    """Matrix equality ignoring label decoration (for unitor/associator moves)."""
    return f.kind is g.kind and f.matrix == g.matrix


def support_indices(k: Kernel) -> tuple[int, ...]:
    """Indices of codomain elements hit with nonzero weight by some column.

    For Stoch this is the positive support; for Signed any nonzero entry
    counts; for Multi it is the union of images.
    """
    out = []
    for i in range(k.cod.size):
        if any(v != 0 for v in k.matrix[i]):
            out.append(i)
    return tuple(out)


def subset_object(x: FinObject, indices: Sequence[int]) -> FinObject:
    """Subset object keeping original labels and label order."""
    return FinObject(tuple(x.labels[i] for i in indices))


def inclusion_kernel(x: FinObject, indices: Sequence[int], kind: Kind) -> Kernel:
    """Deterministic inclusion of the subset at ``indices`` into ``x``."""
    return function_kernel(subset_object(x, indices), x, indices, kind)


def deterministic_states(x: FinObject, kind: Kind = Kind.STOCH) -> list[Kernel]:
    """All point-mass states I → X, in label order."""
    return [delta_kernel(x, lbl, kind) for lbl in x.labels]


def deterministic_kernels(dom: FinObject, cod: FinObject, kind: Kind = Kind.STOCH) -> list[Kernel]:
    """All deterministic kernels dom → cod (|cod|^|dom| of them), lexicographic."""
    return [
        function_kernel(dom, cod, assignment, kind)
        for assignment in itertools.product(range(cod.size), repeat=dom.size)
    ]


def all_multi_kernels(dom: FinObject, cod: FinObject) -> list[Kernel]:
    """Every Multi kernel dom → cod, enumerated by column bitmasks."""
    n, m = cod.size, dom.size
    cols = list(range(1, 2**n))
    out = []
    for masks in itertools.product(cols, repeat=m):
        rows = tuple(
            tuple(bool(masks[j] >> i & 1) for j in range(m)) for i in range(n)
        )
        out.append(Kernel(Kind.MULTI, dom, cod, rows))
    return out
