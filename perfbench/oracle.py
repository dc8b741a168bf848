"""Reference answers that do not come from finmarkov.

Every verdict the benchmark checks is either known from how the input was
built (see workloads.py) or recomputed here with plain exact arithmetic on
nested lists: `Fraction` for stochastic and signed matrices, `bool` for
multivalued ones.  Nothing in this module imports finmarkov, so a defect in
the library cannot also hide in its own reference.

Matrices use the library's layout: ``m[i][j]`` is the weight of output ``i``
given input ``j`` (rows are the codomain, columns the domain).
"""

from __future__ import annotations

from fractions import Fraction

ONE = Fraction(1)
ZERO = Fraction(0)

# Documented properties of the checked-in fixtures (src/finmarkov/fixtures),
# taken from the docstrings in golden.py and the `verify-paper` suite.
FIXTURE_FLAGS = {
    "e_strong.json": dict(idempotent=True, deterministic=False, static=False, strong=True, balanced=True),
    "e_static.json": dict(idempotent=True, deterministic=False, static=True, strong=False, balanced=True),
    "e_balanced4.json": dict(idempotent=True, deterministic=False, static=False, strong=False, balanced=True),
    "e_multi_upset.json": dict(idempotent=True, deterministic=False, static=False, strong=False, balanced=False),
    "e_multi_chain3.json": dict(idempotent=True, deterministic=False, static=False, strong=False, balanced=False),
    "e_signed3.json": dict(idempotent=True, deterministic=False, static=False, strong=False, balanced=False),
    "remark_p.json": dict(idempotent=True, deterministic=False, static=False, strong=True, balanced=True),
    "remark_q.json": dict(idempotent=False, deterministic=False, static=False, strong=False, balanced=False),
}

# Recurrent classes and transient states of the three stochastic splitting
# examples, as `verify-paper` documents them.
FIXTURE_SPLITS = {
    "e_strong.json": ([["0", "1"]], []),
    "e_static.json": ([["1"], ["2"]], ["3"]),
    "e_balanced4.json": ([["1", "2"], ["3"]], ["4"]),
}

# remark_q dominates remark_p; after pushing both forward along the point "0"
# the domination fails (golden.domination_pair).
FIXTURE_DOMINATION = {("remark_q.json", "remark_p.json"): True}


def is_multi(m) -> bool:
    return any(isinstance(v, bool) for row in m for v in row)


def matmul(a, b, multi: bool):
    """a∘b for matrices a (n×m) and b (m×p)."""
    n, m = len(a), len(b)
    p = len(b[0]) if b else 0
    if multi:
        return [[any(a[i][y] and b[y][j] for y in range(m)) for j in range(p)] for i in range(n)]
    return [[sum((a[i][y] * b[y][j] for y in range(m)), ZERO) for j in range(p)] for i in range(n)]


def kron(a, b, multi: bool):
    """Tensor product, rows (i1,i2) and columns (j1,j2) in first-major order."""
    out = []
    for ra in a:
        for rb in b:
            if multi:
                out.append([x and y for x in ra for y in rb])
            else:
                out.append([x * y for x in ra for y in rb])
    return out


def eye(n: int, multi: bool):
    one, zero = (True, False) if multi else (ONE, ZERO)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def column(m, j):
    return [row[j] for row in m]


def is_point_mass(col, multi: bool) -> bool:
    if multi:
        return sum(1 for v in col if v) == 1
    return sum(1 for v in col if v != 0) == 1 and any(v == 1 for v in col)


def reached_rows(m) -> list[int]:
    """Codomain indices that some column gives nonzero weight (true)."""
    return [i for i, row in enumerate(m) if any(v != 0 for v in row)]


def classify_flags(m) -> dict:
    """The idempotent taxonomy by its defining equations.

    static: e(y|x)e(z|y) = [y=z]e(y|x); strong: e(y|x)e(z|y) = e(y|x)e(z|x);
    balanced: e(y|x)e(z|y) = Σ_w e(y|w)e(z|w)e(w|x).  A non-idempotent gets
    all flags False.
    """
    multi = is_multi(m)
    n = len(m)
    if matmul(m, m, multi) != [list(r) for r in m]:
        return dict(idempotent=False, deterministic=False, static=False, strong=False, balanced=False)
    zero = False if multi else ZERO

    def mul(a, b):
        return (a and b) if multi else a * b

    def total(vals):
        return any(vals) if multi else sum(vals, ZERO)

    static = strong = balanced = True
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = mul(m[y][x], m[z][y])
                static &= lhs == (m[y][x] if y == z else zero)
                strong &= lhs == mul(m[y][x], m[z][x])
                balanced &= lhs == total([mul(mul(m[y][w], m[z][w]), m[w][x]) for w in range(n)])
    deterministic = all(is_point_mass(column(m, j), multi) for j in range(n))
    return dict(idempotent=True, deterministic=deterministic, static=static, strong=strong, balanced=balanced)


def cauchy_schwarz(f, g, h) -> tuple[bool, bool]:
    """(antecedent, consequent) of the Cauchy-Schwarz implication along
    f: A→B, g: B→X, h: X→Y, evaluated from the defining sums."""
    multi = is_multi(f)
    hg = matmul(h, g, multi)
    na, nb, nx, ny = len(f[0]), len(f), len(g), len(h)

    def mul(*vals):
        out = True if multi else ONE
        for v in vals:
            out = (out and v) if multi else out * v
        return out

    def total(vals):
        return any(vals) if multi else sum(vals, ZERO)

    antecedent = all(
        total([mul(f[b][a], hg[y1][b], hg[y2][b]) for b in range(nb)])
        == total([mul(f[b][a], h[y1][x], h[y2][x], g[x][b]) for b in range(nb) for x in range(nx)])
        for a in range(na)
        for y1 in range(ny)
        for y2 in range(ny)
    )
    reached = reached_rows(f)
    consequent = all(
        mul(g[x][b], h[y][x]) == mul(g[x][b], hg[y][b])
        for b in reached
        for x in range(nx)
        for y in range(ny)
    )
    return antecedent, consequent


def conditional(f, nx: int):
    """Conditional c((y)|(x,a)) = f((x,y)|a) / Σ_y' f((x,y')|a) of a joint
    f: A → X⊗Y; a column of zero mass becomes the point mass on the first y."""
    na = len(f[0])
    ny = len(f) // nx
    cols = []
    for x in range(nx):
        for a in range(na):
            mass = sum((f[x * ny + y][a] for y in range(ny)), ZERO)
            if mass:
                cols.append([f[x * ny + y][a] / mass for y in range(ny)])
            else:
                cols.append([ONE if y == 0 else ZERO for y in range(ny)])
    return [[cols[j][y] for j in range(nx * na)] for y in range(ny)]


def marginal_mass(f, nx: int) -> list[Fraction]:
    """Mass of each (x, a) cell of a joint f: A → X⊗Y, in (x, a) order."""
    na = len(f[0])
    ny = len(f) // nx
    return [sum((f[x * ny + y][a] for y in range(ny)), ZERO) for x in range(nx) for a in range(na)]


def envelope_laws(e) -> dict:
    """Comonoid laws of the envelope copy (e⊗e)∘copy∘e with discard∘e.

    Unitors and the associator are relabelings, so their composites compare
    as plain matrices.  Discard naturality holds for every kind here because
    every column of a stochastic or signed kernel sums to 1 and every
    multivalued column is nonempty.
    """
    multi = is_multi(e)
    n = len(e)
    one, zero = (True, False) if multi else (ONE, ZERO)
    copy = [[one if i1 == j and i2 == j else zero for j in range(n)] for i1 in range(n) for i2 in range(n)]
    cpy = matmul(kron(e, e, multi), matmul(copy, e, multi), multi)
    disc = matmul([[one] * n], e, multi)
    counit_left = matmul(kron(disc, e, multi), cpy, multi) == e
    counit_right = matmul(kron(e, disc, multi), cpy, multi) == e
    coassociative = matmul(kron(cpy, e, multi), cpy, multi) == matmul(kron(e, cpy, multi), cpy, multi)
    cocommutative = all(
        cpy[i1 * n + i2][j] == cpy[i2 * n + i1][j] for i1 in range(n) for i2 in range(n) for j in range(n)
    )
    return dict(
        counit_left=counit_left,
        counit_right=counit_right,
        coassociative=coassociative,
        cocommutative=cocommutative,
        discard_natural=True,
    )


# ---------------------------------------------------------------------------
# kernel documents (the CLI's JSON format), written without the library
# ---------------------------------------------------------------------------


def entry_to_json(v: Fraction):
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def to_doc(kind: str, dom, cod, m) -> dict:
    doc = {"kind": kind, "dom": list(dom), "cod": list(cod)}
    if kind == "multi":
        doc["images"] = [[cod[i] for i in range(len(cod)) if m[i][j]] for j in range(len(dom))]
    else:
        doc["matrix"] = [[entry_to_json(v) for v in row] for row in m]
    return doc


def from_doc(doc: dict):
    """(kind, dom, cod, matrix) of a kernel document."""
    dom, cod = doc["dom"], doc["cod"]
    if doc["kind"] == "multi":
        m = [[cod[i] in doc["images"][j] for j in range(len(dom))] for i in range(len(cod))]
    else:
        m = [[Fraction(v) for v in row] for row in doc["matrix"]]
    return doc["kind"], dom, cod, m
