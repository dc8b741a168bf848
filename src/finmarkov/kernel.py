"""Exact finite kernels over three scalar structures.

A kernel is a matrix whose column at a domain element gives the
distribution (Stoch), signed distribution (Signed) or set of possible
outputs (Multi) over the codomain.  All arithmetic is exact and floating
point is rejected everywhere.

Storage: ``Kernel.columns`` holds one entry per domain element.  A Stoch
or Signed column is ``(den, ((row, num), ...))``: rows ascending, zero
cells left out, ``den > 0`` and ``gcd(den, *nums) == 1``, so equal
columns are equal tuples; the all-zero column is ``(1, ())``.  A Multi
column is an int bitmask with bit ``i`` for codomain row ``i``, read by
its set bits (`_bits`).  `compose`, `tensor`, the pairing `pair`,
`function_kernel`, equality and `classify` work on these integers alone.

Dense view: ``matrix[i][j]`` is the weight of codomain element ``i``
given domain element ``j`` (rows indexed by the codomain, columns by the
domain), as `fractions.Fraction` or `bool`.  It is the rows given to the
constructor, or is built from the columns on first access and cached.
It is for callers only: no library function reads it.

Ingestion decides the column law: a kernel built from dense rows
(``Kernel(...)``), a document or images gets its stored columns and its
law verdict from `_stored_columns`.  It scales each exact column to the
lcm of its denominators, taking the sum and the sign in the same walk,
and once all are built refuses the first column off the law with
ValidationError.  Every library operation maps kernels within the law to
kernels within it, so no operation checks the law again.

Every deterministic kernel (identity, copy, discard, swap, point masses,
the associator and unitors, subset inclusions) is built by
:func:`function_kernel` from one codomain index per domain element.

Tensor labels: `tensor_object` keeps its factors, and `split_tensor_labels`
returns them without parsing.  The element (a,b) of X⊗Y is written "(A,B)",
A being a itself when a is well-formed: no backslash, and either none of
, ( ) or "(a',b')" with a' and b' well-formed.  Any other label gets a
backslash before each of its \\ , ( ).  An escaped label holds a backslash
and a well-formed one none, so the writing is injective; a label without
those four characters, a pair such as "(p,q)" and their nested tensors
are written unescaped, e.g. "(x,(p,q))".  Objects from documents are split
by parsing, honouring the escapes.
"""

from __future__ import annotations

import enum
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import attrgetter, or_
from typing import Iterable, Optional, Sequence, Union

ZERO = Fraction(0)
ONE = Fraction(1)

# Longest numeral converted between int and str.  CPython 3.11 refuses longer
# ones by default; 3.10 converts them in time quadratic in their length.
MAX_DIGITS = 4300
_DIGITS_BOUND = 10**MAX_DIGITS  # the least int of MAX_DIGITS + 1 digits

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


class FinObject:
    """An ordered finite set of distinct string labels.

    The listed order is the tie-breaking order used everywhere (first
    support element, witness scans, minimal class members).  A tensor
    object keeps its ``factors`` (x, y) and writes its labels on first
    read; any other has ``factors`` None.  ``labels``, ``size`` and
    ``factors`` are read-only.  Equal objects have equal labels and hash by
    their size; pickling and copying go through the labels.
    """

    __slots__ = ("_labels", "_size", "_index", "_factors")

    # C-level getters: ``size`` is read on every hot path
    size = property(attrgetter("_size"))
    factors = property(attrgetter("_factors"))

    def __init__(self, labels: Iterable[str]) -> None:
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate labels in object: {labels}")
        self._labels, self._size, self._index, self._factors = labels, len(labels), None, None

    @property
    def labels(self) -> tuple[str, ...]:
        if self._labels is None:
            self._labels = _tensor_labels(self._factors[0].labels, self._factors[1].labels)
        return self._labels

    def index(self, label: str) -> int:
        index = self._index
        if index is None:
            index = self._index = {lbl: i for i, lbl in enumerate(self.labels)}
        try:
            return index[label]
        except (KeyError, TypeError):
            raise UnknownLabel(f"label {label!r} not in object {self.labels}") from None

    def __eq__(self, other) -> bool:
        if other.__class__ is not FinObject:
            return NotImplemented
        if self._factors is not None and other._factors is not None and self._size:
            return self._factors == other._factors  # a nonempty tensor's factors and labels determine each other
        return self is other or self._size == other._size and self.labels == other.labels

    def __hash__(self) -> int:
        return self._size

    def __reduce__(self):
        return FinObject, (self.labels,)

    def __repr__(self) -> str:
        return f"FinObject({list(self.labels)!r})"


#: The monoidal unit: a single element written "•".
UNIT = FinObject(("•",))


def fin_object(labels: Iterable[str]) -> FinObject:
    return FinObject(tuple(labels))


_SPECIAL = re.compile(r"[\\,()]")
_STRUCTURE = re.compile(r"\\.|[(),]", re.DOTALL)
_UNESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _scan(label: str) -> tuple[int, bool]:
    """One pass over ``label``: the offset of its first comma at depth one,
    escapes skipped (-1 if none), and whether it is well-formed: no
    backslash, and each "(" opens at the start or after "(" or ",", takes
    one comma and closes before "," ")" or the end."""
    top, well, commas = -1, "\\" not in label, []  # commas: per open "(", whether its comma came
    for m in _STRUCTURE.finditer(label):
        tok, at = m[0], m.start()
        if tok == "(":
            well = well and label[at - 1 : at] in ("", "(", ",")
            commas.append(False)
        elif tok == "," and commas:
            if top < 0 and len(commas) == 1:
                top = at
            well = well and not commas[-1]
            commas[-1] = True
        elif tok == ")" and commas:
            closed = commas.pop()
            well = well and closed and label[at + 1 : at + 2] in ("", ",", ")")
        else:  # an escape, or a "," or ")" outside every pair
            well = False
    return top, well and not commas


def _tensor_labels(left: Sequence[str], right: Sequence[str]) -> tuple[str, ...]:
    """The labels of the tensor of objects labelled ``left`` and ``right``,
    x-major, each factor label well-formed or escaped (module docstring)."""
    left, right = ([lbl if _scan(lbl)[1] else _SPECIAL.sub(r"\\\g<0>", lbl) for lbl in side] for side in (left, right))
    return tuple([f"({a},{b})" for a in left for b in right])


def _unpair(label: str) -> tuple[str, str]:
    """The two factor labels of a tensor label, split at its first comma
    outside parentheses and escapes, each side unescaped."""
    if not (label.startswith("(") and label.endswith(")")):
        raise BadSplit(f"label {label!r} is not a tensor pair")
    top = _scan(label)[0]
    if top < 0:
        raise BadSplit(f"label {label!r} has no top-level comma")
    return _UNESCAPE.sub(r"\1", label[1:top]), _UNESCAPE.sub(r"\1", label[top + 1 : -1])


def tensor_object(x: FinObject, y: FinObject) -> FinObject:
    """Product object with elements "(x,y)" in x-major order, carrying its
    factors; its labels are written when first read."""
    t = object.__new__(FinObject)
    t._labels, t._size, t._index, t._factors = None, x._size * y._size, None, (x, y)
    return t


def split_tensor_labels(obj: FinObject, left_size: int) -> tuple[FinObject, FinObject]:
    """The two factors of a tensor object: those it carries when the left
    one has ``left_size`` elements, else those its labels name as an x-major
    grid, parsed from the first row and column and checked by writing the
    grid's labels again."""
    n, factors = obj._size, obj._factors
    if factors is not None and n and factors[0]._size == left_size:
        return factors
    if left_size <= 0 or n == 0 or n % left_size != 0:
        raise BadSplit(f"object of size {n} does not factor with left size {left_size}")
    right_size = n // left_size
    labels = obj.labels
    left = tuple([_unpair(labels[i * right_size])[0] for i in range(left_size)])
    right = tuple([_unpair(labels[j])[1] for j in range(right_size)])
    if labels != _tensor_labels(left, right):
        raise BadSplit(f"labels of {labels} are not a consistent tensor grid")
    return FinObject(left), FinObject(right)


#: The stored form of an all-zero Stoch or Signed column.
_EMPTY = (1, ())


def _stored_columns(kind: Kind, raw: Iterable) -> tuple:
    """The stored columns of ``raw``: a bitmask per Multi column, or per exact
    column its nonzero ``(row, (num, den))`` cells, ascending in row, each
    reduced with ``den > 0``, scaled to the lcm of the denominators, which
    leaves the column reduced.  Once all are built, raises ValidationError
    at the first column off the kind's law."""
    if kind is Kind.MULTI:
        columns = tuple(raw)
        broken = columns.index(0) if 0 in columns else None
    else:
        columns, broken, stoch = [], None, kind is Kind.STOCH
        for j, cells in enumerate(raw):
            den = 1
            for _, (_, d) in cells:
                if den % d:
                    den = math.lcm(den, d)
            total, negative, column = 0, False, []
            for i, (n, d) in cells:
                if d != den:
                    n *= den // d
                negative = negative or n < 0
                total += n
                column.append((i, n))
            columns.append((den, tuple(column)))
            if broken is None and (total != den or negative and stoch):
                broken = j
    if broken is not None:
        raise ValidationError(_law_break(kind, broken, columns[broken]))
    return tuple(columns)


def _reduced(den: int, cells: list) -> tuple:
    """Canonical stored column of nonzero ``(row, num)`` cells, ascending
    in row, over the positive denominator ``den``."""
    if not cells:
        return _EMPTY
    c = math.gcd(den, *[num for _, num in cells])
    if c == 1:
        return den, tuple(cells)
    return den // c, tuple((i, num // c) for i, num in cells)


class Kernel:
    """A morphism: matrix over one of the three scalar structures.

    ``Kernel(kind, dom, cod, rows)`` takes dense rows and checks, in this
    order, shapes, entry types (Multi entries are bools or the ints 0 and
    1) and the column law, raising ValidationError with the first column
    that breaks it.
    Immutable; equal iff kind, objects and ``columns`` agree.
    The rows become ``columns`` when the kernel is built and stay its
    ``matrix`` view.  Kernels from documents, images or operations hold
    columns alone and build the view when read.
    """

    __slots__ = ("kind", "dom", "cod", "columns", "_hash", "_matrix")

    def __init__(self, kind: Kind, dom: FinObject, cod: FinObject, rows: Iterable[Iterable]) -> None:
        rows = tuple(tuple(row) for row in rows)
        if len(rows) != cod.size:
            raise ShapeMismatch(f"{len(rows)} rows for codomain of size {cod.size}")
        for row in rows:
            if len(row) != dom.size:
                raise ShapeMismatch(f"row of length {len(row)} for domain of size {dom.size}")
        multi = kind is Kind.MULTI
        if not set(map(type, itertools.chain(*rows))) <= ({bool} if multi else {Fraction, int}):
            for v in itertools.chain(*rows):
                if not isinstance(v, int if multi else (int, Fraction)) or (
                        v not in (0, 1) if multi else isinstance(v, bool)):
                    want = "bool" if multi else "Fraction or int"
                    raise ValidationError(f"{kind.value} entries must be {want}, got {v!r}")
        dense = zip(*rows) if rows else [()] * dom.size
        if multi:
            bits = [1 << i for i in range(cod.size)]
            raw = [sum(itertools.compress(bits, col)) for col in dense]
        else:
            raw = [[(i, v.as_integer_ratio()) for i, v in enumerate(col) if v] for col in dense]
        columns = _stored_columns(kind, raw)
        _SET_KIND(self, kind)
        _SET_DOM(self, dom)
        _SET_COD(self, cod)
        _SET_COLUMNS(self, columns)
        _SET_HASH(self, None)
        _SET_MATRIX(self, rows)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"Kernel is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not Kernel:
            return NotImplemented
        return self is other or (self.kind, self.columns, self.dom, self.cod) == (
            other.kind, other.columns, other.dom, other.cod
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.kind, self.dom, self.cod, self.columns))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def matrix(self) -> tuple[tuple[Entry, ...], ...]:
        """Dense read-only view: the given rows, or for a computed kernel
        ``Fraction`` or ``bool`` entries built on first access."""
        m = self._matrix
        if m is None:
            rows = [[self.kind.zero] * self.dom.size for _ in range(self.cod.size)]
            for j, col in enumerate(self.columns):
                cells = [(i, True) for i in _bits(col)] if self.kind is Kind.MULTI else [
                    (i, Fraction(num, col[0])) for i, num in col[1]]
                for i, v in cells:
                    rows[i][j] = v
            m = tuple(map(tuple, rows))
            object.__setattr__(self, "_matrix", m)
        return m

    def __reduce__(self):
        return _kernel, (self.kind, self.dom, self.cod, self.columns)

    def __repr__(self) -> str:
        return f"Kernel({self.kind.value}, dom={list(self.dom.labels)}, cod={list(self.cod.labels)})"


#: Each slot's own setter, cheaper than ``object.__setattr__`` by name.
_SET_KIND, _SET_DOM, _SET_COD, _SET_COLUMNS, _SET_HASH, _SET_MATRIX = (
    getattr(Kernel, slot).__set__ for slot in Kernel.__slots__)


def _kernel(kind: Kind, dom: FinObject, cod: FinObject, columns: tuple) -> Kernel:
    """Kernel from stored columns, trusted to be canonical, of the right
    shape and within the column law."""
    k = object.__new__(Kernel)
    _SET_KIND(k, kind)
    _SET_DOM(k, dom)
    _SET_COD(k, cod)
    _SET_COLUMNS(k, columns)
    _SET_HASH(k, None)
    _SET_MATRIX(k, None)
    return k


@dataclass(frozen=True)
class Violation:
    """First structural defect found by :func:`validate`."""

    column: Optional[int]
    message: str


def _fraction_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))``, or where a part is longer than MAX_DIGITS
    digits, which ``str`` may refuse, the sizes of its parts."""
    f = Fraction(num, den)
    if max(abs(f.numerator), f.denominator) < _DIGITS_BOUND:
        return str(f)
    sign = "negative " if f < 0 else ""
    return f"a {sign}fraction of {f.numerator.bit_length()} bits over {f.denominator.bit_length()} bits"


def _law_break(kind: Kind, j: int, col) -> Optional[str]:
    """What stored column ``j`` breaks of the column law, or None."""
    if kind is Kind.MULTI:
        return None if col else f"column {j} has empty image"
    den, cells = col
    total = 0
    for _, num in cells:
        if num < 0 and kind is Kind.STOCH:
            return f"column {j} has negative entry {_fraction_text(num, den)}"
        total += num
    return None if total == den else f"column {j} sums to {_fraction_text(total, den)}"


def validate(k: Kernel) -> Optional[Violation]:
    """Check the column law of the kernel's kind; None means valid.

    Stoch: entries nonnegative, every column sums to 1.
    Signed: every column sums to 1.
    Multi: every column has at least one true entry.

    ``Kernel(...)`` refuses any column this reports, so every kernel built
    by it or by a library operation on such kernels is valid.
    """
    for j, col in enumerate(k.columns):
        message = _law_break(k.kind, j, col)
        if message is not None:
            return Violation(j, message)
    return None


def make_kernel(kind: Kind, dom: FinObject, cod: FinObject, rows: Sequence[Sequence]) -> Kernel:
    """Build a kernel from dense rows; ``Kernel`` enforces the column law."""
    return Kernel(kind, dom, cod, rows)


def multi_kernel(dom: FinObject, cod: FinObject, images: Sequence[Iterable[str]]) -> Kernel:
    """Multi kernel from per-input images given as label collections."""
    if len(images) != dom.size:
        raise ShapeMismatch(f"{len(images)} images for domain of size {dom.size}")
    masks = [reduce(or_, [1 << cod.index(lbl) for lbl in img], 0) for img in images]
    return _kernel(Kind.MULTI, dom, cod, _stored_columns(Kind.MULTI, masks))


def function_kernel(dom: FinObject, cod: FinObject, targets: Sequence[int], kind: Kind) -> Kernel:
    """Deterministic kernel sending domain element ``j`` to codomain
    element ``targets[j]``: column ``j`` is ``kind.one`` at that row and
    ``kind.zero`` elsewhere."""
    if len(targets) != dom.size:
        raise ShapeMismatch(f"{len(targets)} targets for domain of size {dom.size}")
    for i in targets:
        if not 0 <= i < cod.size:
            raise ShapeMismatch(f"target {i!r} outside codomain of size {cod.size}")
    if kind is Kind.MULTI:
        return _kernel(kind, dom, cod, tuple(1 << i for i in targets))
    return _kernel(kind, dom, cod, tuple((1, ((i, 1),)) for i in targets))


def _require_same_kind(f: Kernel, g: Kernel) -> None:
    if f.kind is not g.kind:
        raise KindMismatch(f"{f.kind.value} vs {g.kind.value}")


def _column_composite(gcols: Sequence, col: tuple) -> tuple:
    """The stored column Σ_y col(y)·g(y) for g's stored columns ``gcols``:
    numerators summed over the lcm of the denominators of the g columns that
    the exact column ``col`` reaches; a point mass reuses g's column as stored."""
    fden, fcells = col
    if len(fcells) == 1 and fcells[0][1] == fden:
        return gcols[fcells[0][0]]
    lcd = math.lcm(*[gcols[y][0] for y, _ in fcells])
    acc: dict = {}
    for y, a in fcells:
        gden, gcells = gcols[y]
        scale = a * (lcd // gden)
        for i, b in gcells:
            acc[i] = acc.get(i, 0) + scale * b
    return _reduced(fden * lcd, [(i, acc[i]) for i in sorted(acc) if acc[i]])


def compose(g: Kernel, f: Kernel) -> Kernel:
    """Sequential composite g∘f, with (g∘f)(z|a) = Σ_y g(z|y)·f(y|a).

    Over Multi the sum is boolean OR of ANDs (relational composition), an
    OR of g's column bitmasks; an exact column is `_column_composite`'s.
    """
    _require_same_kind(f, g)
    if f.cod != g.dom:
        raise DomainMismatch(
            f"cannot compose: middle objects differ ({f.cod.labels} vs {g.dom.labels})"
        )
    gcols = g.columns
    if f.kind is Kind.MULTI:
        out = []
        for mask in f.columns:
            acc = 0
            while mask:
                low = mask & -mask
                acc |= gcols[low.bit_length() - 1]
                mask ^= low
            out.append(acc)
        return _kernel(f.kind, f.dom, g.cod, tuple(out))
    return _kernel(f.kind, f.dom, g.cod, tuple([_column_composite(gcols, col) for col in f.columns]))


def _column_products(f: Kernel, g: Kernel, walk) -> tuple:
    """Stored columns of f(a)⊗g(b) for the column pairs ``walk`` yields
    from f's and g's columns: `itertools.product` for `tensor`, `zip`
    for `pair`.  Rows are x-major over ``f.cod`` ⊗ ``g.cod``.

    An exact product multiplies numerators over the product of the two
    column denominators.  Within the column law a column's numerators sum
    to its denominator, so their gcd is 1, and so is the gcd of the
    products: the product column is reduced.
    """
    m = g.cod.size
    if f.kind is Kind.MULTI:
        fshifts = [[y * m for y in _bits(fmask)] for fmask in f.columns]
        # the shifted copies of g's mask occupy disjoint bits, so + is OR
        return tuple(sum(gmask << s for s in shifts) for shifts, gmask in walk(fshifts, g.columns))
    fcols = [(fden, [(y * m, a) for y, a in fcells]) for fden, fcells in f.columns]
    return tuple((fden * gden, tuple([(s + z, a * b) for s, a in shifted for z, b in gcells]))
                 for (fden, shifted), (gden, gcells) in walk(fcols, g.columns))


def tensor(f: Kernel, g: Kernel) -> Kernel:
    """Monoidal product (f⊗g)((y,z)|(a,b)) = f(y|a)·g(z|b), x-major indexing."""
    _require_same_kind(f, g)
    dom = tensor_object(f.dom, g.dom)
    cod = tensor_object(f.cod, g.cod)
    return _kernel(f.kind, dom, cod, _column_products(f, g, itertools.product))


def pair(f: Kernel, g: Kernel) -> Kernel:
    """Pairing ⟨f,g⟩ = (f⊗g)∘copy: A → X⊗Y with ⟨f,g⟩((y,z)|a) = f(y|a)·g(z|a).

    Builds one column per input, f(a)⊗g(a), where the composite would
    build the |A|² columns of f⊗g and keep |A| of them.
    """
    _require_same_kind(f, g)
    if f.dom != g.dom:
        raise DomainMismatch(f"cannot pair: domains differ ({f.dom.labels} vs {g.dom.labels})")
    return _kernel(f.kind, f.dom, tensor_object(f.cod, g.cod), _column_products(f, g, zip))


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
    that gets discarded.  Computed as post-composition with id⊗discard
    (side="right") or discard⊗id (side="left").
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    left, right = split_tensor_labels(f.cod, split)
    m = right.size
    if side == "right":
        keep, targets = left, [r // m for r in range(f.cod.size)]
    else:
        keep, targets = right, [r % m for r in range(f.cod.size)]
    return compose(function_kernel(f.cod, keep, targets, f.kind), f)


def _is_point_column(kind: Kind, col) -> bool:
    """Whether a stored column is a point mass (one entry, equal to one)."""
    if kind is Kind.MULTI:
        return col != 0 and not col & (col - 1)
    return col[0] == 1 and len(col[1]) == 1 and col[1][0][1] == 1


def is_deterministic(f: Kernel) -> bool:
    """True iff every column is a point mass.

    Shortcut for the comonoid equation copy∘f = (f⊗f)∘copy; the
    equivalence is property-tested against the literal equation.
    """
    return all(_is_point_column(f.kind, col) for col in f.columns)


def kernel_equal(f: Kernel, g: Kernel) -> bool:
    """Exact equality: same kind, same dom/cod labels, identical columns."""
    return f == g


def _bits(mask: int):
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def support_mask(k: Kernel) -> int:
    """Bitmask of `support_indices`; over Multi the OR of the columns."""
    if k.kind is Kind.MULTI:
        return reduce(or_, k.columns, 0)
    return sum([1 << i for i in support_indices(k)])


def support_indices(k: Kernel) -> tuple[int, ...]:
    """Ascending indices of the codomain elements some column reaches with nonzero weight."""
    if k.kind is Kind.MULTI:
        return tuple(_bits(support_mask(k)))
    return tuple(sorted({i for _, cells in k.columns for i, _ in cells}))


def subset_object(x: FinObject, indices: Sequence[int]) -> FinObject:
    """Subset object keeping original labels and label order."""
    return FinObject(tuple(x.labels[i] for i in indices))


def inclusion_kernel(x: FinObject, indices: Sequence[int], kind: Kind) -> Kernel:
    """Deterministic inclusion of the subset at ``indices`` into ``x``."""
    return function_kernel(subset_object(x, indices), x, indices, kind)

