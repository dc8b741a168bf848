"""The four seeded workloads of verdict queries.

Each builder turns a `random.Random` into a fixed list of `Query` objects:
the types and sizes of the queries depend only on the workload, the contents
only on the seed.  Every query knows its expected verdict from how its input
was built, or from the exact reference in oracle.py; the check never calls
finmarkov a second time.

Program functions are looked up on their module at call time (``I.classify``
rather than a bound name), so the traced run sees the same calls as the
untraced one.  Builders import finmarkov lazily because the worker times the
import as part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import oracle

WORKLOADS = ("stoch-large", "envelope-laws", "multi-split", "cli-small")


@dataclass
class Query:
    """One verdict query: ``call`` runs it against the program, ``check``
    receives its return value (or the exception it raised) and says whether
    the verdict is right."""

    op: str
    size: int
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def _lib():
    import finmarkov.asrel as A
    import finmarkov.cli as C
    import finmarkov.envelopes as E
    import finmarkov.functors as F
    import finmarkov.golden as G
    import finmarkov.idempotents as I
    import finmarkov.kernel as K
    import finmarkov.rand as R

    return A, C, E, F, G, I, K, R


def memo(fn):
    """Compute a reference answer once, on first use (outside any timing)."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


def rows(m):
    return [list(r) for r in m]


def from_columns(cols, n_rows):
    return [[cols[j][i] for j in range(len(cols))] for i in range(n_rows)]


# ---------------------------------------------------------------------------
# input builders shared by the workloads
# ---------------------------------------------------------------------------


class Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.A, self.C, self.E, self.F, self.G, self.I, self.K, self.R = _lib()

    def obj(self, prefix: str, n: int):
        return self.K.fin_object(f"{prefix}{i}" for i in range(n))

    def kernel(self, kind, dom, cod, m):
        return self.K.Kernel(kind, dom, cod, tuple(tuple(r) for r in m))

    def class_idempotent(self, n: int, k: int, prefix: str = "s"):
        """(e, structure, expected flags) for e = ι∘π with k recurrent classes.

        Like `random_class_idempotent`, but the shape is fixed: n // 4
        transient states (none when k = n) and k classes of near-equal size.
        The seed draws which states go where, the class distributions and the
        transient mixtures.  With the shape drawn too, the cost of one query
        moved by 2.5x between seeds.
        """
        I, K, R, rng = self.I, self.K, self.R, self.rng
        x = self.obj(prefix, n)
        t = 0 if k >= n else min(n // 4, n - k)
        order = list(range(n))
        rng.shuffle(order)
        members = sorted((sorted(order[c : n - t : k]) for c in range(k)), key=min)
        transient = sorted(order[n - t :])
        iota_cols = []
        for comp in members:
            dist = R.random_full_support_column(rng, len(comp))
            col = [Fraction(0)] * n
            for pos, i in enumerate(comp):
                col[i] = dist[pos]
            iota_cols.append(col)
        class_of = {i: c for c, comp in enumerate(members) for i in comp}
        pi_cols = [
            [Fraction(int(c == class_of[i])) for c in range(k)] if i in class_of else R.random_stoch_column(rng, k)
            for i in range(n)
        ]
        middle = self.obj("t", k)
        cs = I.ClassStructure(
            tuple(tuple(x.labels[i] for i in comp) for comp in members),
            tuple(x.labels[i] for i in transient),
            self.kernel(K.Kind.STOCH, middle, x, from_columns(iota_cols, n)),
            self.kernel(K.Kind.STOCH, x, middle, from_columns(pi_cols, k)),
        )
        e = oracle.matmul(cs.iota.matrix, cs.pi.matrix, False)
        static = all(len(c) == 1 for c in cs.classes)
        strong = all(oracle.is_point_mass(col, False) for col in pi_cols)
        # every stochastic idempotent is balanced; e is deterministic exactly
        # when its inclusion (singleton classes) and projection both are
        flags = dict(idempotent=True, deterministic=static and strong, static=static, strong=strong, balanced=True)
        return self.kernel(K.Kind.STOCH, x, x, e), cs, flags

    def full_support_non_idempotent(self, n: int, prefix: str = "s"):
        """A full-support stochastic idempotent has identical columns, so
        full-support columns that are not all equal cannot be idempotent."""
        x = self.obj(prefix, n)
        while True:
            cols = [self.R.random_full_support_column(self.rng, n) for _ in range(n)]
            if any(c != cols[0] for c in cols):
                return self.kernel(self.K.Kind.STOCH, x, x, from_columns(cols, n))

    def other_column(self, kind, col):
        while True:
            new = self.R.random_column(self.rng, kind, len(col))
            if list(new) != list(col):
                return new

    def ase_case(self, kind, n: int, ny: int, w: int, equal: bool):
        """(p, f, g, w): g differs from f only off p's support when ``equal``,
        and on one column p reaches otherwise."""
        K = self.K
        a, x, y = self.obj("a", n), self.obj("x", n), self.obj("y", ny)
        dom = x if w == 1 else K.tensor_object(self.obj("w", w), x)
        allowed = sorted(self.rng.sample(range(n), max(1, n // 2)))
        p = self.R.random_kernel_supported_on(self.rng, kind, a, x, allowed)
        f = self.R.random_kernel(self.rng, kind, dom, y)
        reached = oracle.reached_rows(p.matrix)
        if equal:
            targets = [wi * n + xi for wi in range(w) for xi in range(n) if xi not in reached]
        else:
            targets = [self.rng.randrange(w) * n + self.rng.choice(reached)]
        cols = [oracle.column(f.matrix, j) for j in range(dom.size)]
        for j in targets:
            cols[j] = self.other_column(kind, cols[j])
        g = self.kernel(kind, dom, y, from_columns(cols, ny))
        return p, f, g, w

    def domination_case(self, kind, n: int, holds: bool):
        """(q, p, first element p reaches and q does not, or None)."""
        a, x = self.obj("a", n), self.obj("x", n)
        q = self.R.random_kernel_supported_on(self.rng, kind, a, x, sorted(self.rng.sample(range(n), max(1, n // 2))))
        q_reach = oracle.reached_rows(q.matrix)
        allowed = sorted(self.rng.sample(q_reach, max(1, len(q_reach) // 2)))
        extra = None
        if not holds:
            extra = self.rng.choice([i for i in range(n) if i not in q_reach])
            allowed = sorted(allowed + [extra])
        p = self.R.random_kernel_supported_on(self.rng, kind, a, x, allowed)
        if not holds and extra not in oracle.reached_rows(p.matrix):
            cols = [oracle.column(p.matrix, j) for j in range(n)]
            one = True if kind is self.K.Kind.MULTI else Fraction(1)
            zero = False if kind is self.K.Kind.MULTI else Fraction(0)
            cols[0] = [one if i == extra else zero for i in range(n)]
            p = self.kernel(kind, a, x, from_columns(cols, n))
        missing = [i for i in oracle.reached_rows(p.matrix) if i not in q_reach]
        return q, p, (x.labels[missing[0]] if missing else None)

    def cs_triple(self, kind, na: int, nb: int, nx: int, ny: int, deterministic: bool):
        a, b, x, y = self.obj("a", na), self.obj("b", nb), self.obj("x", nx), self.obj("y", ny)
        R = self.R
        f = R.random_kernel(self.rng, kind, a, b)
        pick = R.random_deterministic_kernel if deterministic else R.random_kernel
        return f, pick(self.rng, kind, b, x), pick(self.rng, kind, x, y)

    def joint_case(self, na: int, nx: int, ny: int, unique: bool):
        """(f, c2): a joint f: A → X⊗Y whose X-marginal misses some cells, and a
        second candidate conditional that differs from the reference only on
        zero-mass cells (``unique``) or on one cell with mass."""
        K = self.K
        a, xo, yo = self.obj("a", na), self.obj("u", nx), self.obj("v", ny)
        xy = K.tensor_object(xo, yo)
        blocks = sorted(self.rng.sample(range(nx), max(1, nx // 2)))
        f = self.R.random_kernel_supported_on(
            self.rng, K.Kind.STOCH, a, xy, [bx * ny + y for bx in blocks for y in range(ny)]
        )
        ref = oracle.conditional(f.matrix, nx)
        mass = oracle.marginal_mass(f.matrix, nx)
        cols = [oracle.column(ref, j) for j in range(nx * na)]
        if unique:
            targets = [j for j, m in enumerate(mass) if not m]
        else:
            targets = [self.rng.choice([j for j, m in enumerate(mass) if m])]
        for j in targets:
            cols[j] = self.other_column(K.Kind.STOCH, cols[j])
        c2 = self.kernel(K.Kind.STOCH, K.tensor_object(xo, a), yo, from_columns(cols, ny))
        return f, c2, ref


def ladder(n: int, count: int) -> list[int]:
    """``count`` class counts spread evenly over 1..n-1."""
    top = max(1, n - 1)
    return [1 + (i * (top - 1)) // max(1, count - 1) for i in range(count)]


def bool_idempotents(n: int) -> list[list[list[bool]]]:
    """Every multivalued idempotent on n elements, by brute force."""
    out = []
    for cols in itertools.product(range(1, 2**n), repeat=n):
        m = [[bool(cols[j] >> i & 1) for j in range(n)] for i in range(n)]
        if oracle.matmul(m, m, True) == m:
            out.append(m)
    return out


def split_pair(rng: random.Random, n: int, t: int):
    """A random multivalued ι: T → X, π: X → T with π∘ι = id_T: disjoint
    nonempty images for ι, π sends each image back to its middle element and
    every other element to a random nonempty subset of T."""
    owner = [rng.randrange(t + 1) for _ in range(n)]  # t marks "in no image"
    for s, i in enumerate(rng.sample(range(n), t)):
        owner[i] = s
    iota = [[owner[i] == s for s in range(t)] for i in range(n)]
    pi_cols = []
    for i in range(n):
        if owner[i] < t:
            pi_cols.append([s == owner[i] for s in range(t)])
        else:
            mask = 1 + rng.randrange(2**t - 1)
            pi_cols.append([bool(mask >> s & 1) for s in range(t)])
    return iota, from_columns(pi_cols, t)


# ---------------------------------------------------------------------------
# stoch-large: Fraction arithmetic in compose, classify and ase
# ---------------------------------------------------------------------------

# Class counts of the idempotent split pipelines per pass at each size; each
# size also gets one non-idempotent input.  classify costs n^3 and denser
# idempotents cost more, so large sizes appear less often and with n/8 to n/4
# classes (one class at n = 32 takes 0.8 s per query).
SPLIT_MIX = ((8, (1, 2, 3, 4, 4)), (16, (2, 4, 8)), (24, (3, 6)), (32, (4, 8)))


def build_stoch_large(g: Gen, mix=SPLIT_MIX, copies: int = 2) -> list[Query]:
    K = g.K
    qs = []
    for n, classes in mix:
        for k in classes:
            qs.append(split_query(g, n, k))
        qs.append(split_query(g, n, None))
        for c in range(copies):
            for kind, w, equal in ((K.Kind.STOCH, 1, c == 0), (K.Kind.SIGNED, 2, c == 0),
                                   (K.Kind.STOCH, 2, c == 1), (K.Kind.SIGNED, 1, c == 1)):
                qs.append(ase_query(g, kind, n, max(2, n // 4), w, equal))
            for det in (False, True):
                f, gg, h = g.cs_triple(K.Kind.STOCH, 3, n // 2, n // 2, 3, det)
                qs.append(cs_query(g, n, f, gg, h))
            nx, ny = 4 if n > 8 else 2, {8: 4, 16: 4, 24: 6, 32: 8}[n]
            for unique in (True, False):
                qs.append(conditional_query(g, n, 4, nx, ny, unique))
    return qs


def split_query(g: Gen, n: int, k) -> Query:
    """parse → classify → blackwell_split → verify_split → kernel_to_doc."""
    C, I = g.C, g.I
    if k is None:
        e, cs = g.full_support_non_idempotent(n), None
        flags = dict(idempotent=False, deterministic=False, static=False, strong=False, balanced=False)
    else:
        e, cs, flags = g.class_idempotent(n, k)
    text = json.dumps(oracle.to_doc("stoch", e.dom.labels, e.cod.labels, e.matrix))

    def call():
        e = C.parse_kernel(text)
        report = I.classify(e)
        try:
            sd = I.blackwell_split(e)
        except I.NotIdempotent as exc:
            return report, exc, None, None
        _, checks = I.verify_split(e, sd.inclusion, sd.projection)
        return report, sd, checks, (C.kernel_to_doc(sd.inclusion), C.kernel_to_doc(sd.projection))

    def check(out):
        report, sd, checks, docs = out
        if report.flags() != flags:
            return False
        if cs is None:
            return isinstance(sd, I.NotIdempotent)
        return (
            checks is True
            and sd.classes == cs.classes
            and sd.transient == cs.transient
            and oracle.from_doc(docs[0])[3] == rows(cs.iota.matrix)
            and oracle.from_doc(docs[1])[3] == rows(cs.pi.matrix)
        )

    return Query("split-pipeline", n, call, check)


def ase_query(g: Gen, kind, n: int, ny: int, w: int, equal: bool) -> Query:
    p, f, gk, w = g.ase_case(kind, n, ny, w, equal)
    A = g.A
    return Query(f"ase-w{w}", n, lambda: A.ase_kernels(p, f, gk, w), lambda out: out is equal)


def cs_query(g: Gen, size: int, f, gk, h) -> Query:
    I = g.I
    expected = memo(lambda: oracle.cauchy_schwarz(f.matrix, gk.matrix, h.matrix))

    def check(out):
        return (out.antecedent, out.consequent) == expected()

    return Query("cauchy-schwarz", size, lambda: I.cauchy_schwarz(f, gk, h), check)


def conditional_query(g: Gen, size: int, na: int, nx: int, ny: int, unique: bool) -> Query:
    F = g.F
    f, c2, ref = g.joint_case(na, nx, ny, unique)

    def call():
        c = F.conditional(f, nx)
        try:
            verdict = F.verify_conditional_unique(f, c, c2, nx)
        except F.NotAConditional as exc:
            verdict = exc
        return c, verdict

    def check(out):
        c, verdict = out
        if rows(c.matrix) != ref:
            return False
        return verdict is True if unique else isinstance(verdict, F.NotAConditional)

    return Query("conditional", size, call, check)


# ---------------------------------------------------------------------------
# envelope-laws: tensor and the dense structural matrices
# ---------------------------------------------------------------------------

# Per pass: (size, cells).  Cost grows like n^6 (the associator on X⊗X⊗X is
# n^3 × n^3), so small cells are repeated more to keep the pass short.  The
# tail percentile of the 52 queries then falls inside the n = 8 group rather
# than on the edge between two sizes.
ENVELOPE_MIX = ((4, 24), (6, 12), (8, 8), (10, 4))


def build_envelope_laws(g: Gen, mix=ENVELOPE_MIX, karoubi: int = 2) -> list[Query]:
    E, G = g.E, g.G
    qs = []
    for n, count in mix:
        # at least n/2 classes: denser idempotents at n = 10 take seconds
        for i, k in enumerate(ladder(n - n // 2 + 1, count)):
            e, _, _ = g.class_idempotent(n, n // 2 - 1 + k)
            qs.append(envelope_query(g, e, E.Flavor.BLACKWELL, 2 + i % 2))
    # golden.signed_coassoc_counterexample documents a counital, cocommutative,
    # not coassociative copy
    counter = dict(counit_left=True, counit_right=True, coassociative=False, cocommutative=True)
    for i in range(karoubi):
        qs.append(envelope_query(g, G.signed_idempotent(), E.Flavor.KAROUBI, 2 + i % 2))
        qs.append(envelope_query(g, G.signed_coassoc_counterexample(), E.Flavor.KAROUBI, 2 + i % 2, counter))
    return qs


def envelope_query(g: Gen, e, flavor, small: int, documented: dict | None = None) -> Query:
    """env_cell → env_check_markov_laws → env_tensor with a small cell →
    env_split_idempotent."""
    E, K = g.E, g.K
    s, _, _ = g.class_idempotent(small, small - 1, prefix="r")
    s = g.kernel(e.kind, s.dom, s.cod, s.matrix)
    x, y = e.dom, s.dom
    multi = e.kind is K.Kind.MULTI
    if flavor is E.Flavor.BLACKWELL:
        laws = lambda: dict(counit_left=True, counit_right=True, coassociative=True,
                            cocommutative=True, discard_natural=True)  # balanced cells
    else:
        laws = memo(lambda: oracle.envelope_laws(rows(e.matrix)))
    documented = documented or {}
    tensor_ref = memo(lambda: oracle.kron(e.matrix, s.matrix, multi))

    def call():
        cell = E.env_cell(x, e, flavor)
        report = E.env_check_markov_laws(cell)
        ten = E.env_tensor(E.env_identity(cell), E.env_identity(E.env_cell(y, s, flavor)))
        proj, incl = E.env_split_idempotent(cell)
        return report, ten, proj, incl

    def check(out):
        report, ten, proj, incl = out
        got = {name: getattr(report, name) for name in laws()}
        return (
            got == laws()
            and all(got[k] == v for k, v in documented.items())
            and rows(ten.kernel.matrix) == tensor_ref()
            and rows(proj.kernel.matrix) == rows(e.matrix)
            and rows(incl.kernel.matrix) == rows(e.matrix)
        )

    return Query(f"envelope-{flavor.value}", e.dom.size, call, check)


# ---------------------------------------------------------------------------
# multi-split: boolean kernels and the exhaustive splitting search
# ---------------------------------------------------------------------------

MULTI_SIZES = (8, 16, 32)


def build_multi_split(g: Gen, full: bool = True) -> list[Query]:
    K = g.K
    qs = []
    # every idempotent at n = 2 and every balanced one at n = 3 (they split
    # fast); the 42 non-balanced ones at n = 3 each exhaust the same ~10^5
    # candidates, so a pass takes one of them, drawn by the seed.  These
    # inputs are the same for every seed, so warm-up leaves them out.
    if full:
        for m in bool_idempotents(2):
            qs.append(search_query(g, m, 2, None))
        pop3 = bool_idempotents(3)
        balanced = [m for m in pop3 if oracle.classify_flags(m)["balanced"]]
        rest = [m for m in pop3 if not oracle.classify_flags(m)["balanced"]]
        for m in balanced + [g.rng.choice(rest)]:
            qs.append(search_query(g, m, 3, None))
    for t in (1, 2, 1, 2) if full else (1,):
        iota, pi = split_pair(g.rng, 4, t)
        qs.append(search_query(g, oracle.matmul(iota, pi, True), 2, True))
    for n in MULTI_SIZES if full else MULTI_SIZES[:1]:
        for c in range(2):
            qs.append(compose_chain_query(g, n))
            qs.append(ase_query(g, K.Kind.MULTI, n, max(2, n // 4), 1, c == 0))
            qs.append(domination_query(g, K.Kind.MULTI, n, c == 1))
            qs.append(io_relation_query(g, n))
    for n, det in ((3, False), (4, True), (5, False), (6, True)) if full else ((3, True),):
        f, gg, h = g.cs_triple(K.Kind.MULTI, n, n, n, n, det)
        qs.append(cs_query(g, n, f, gg, h))
    return qs


def search_query(g: Gen, m, max_middle: int, splits) -> Query:
    """classify + search_split; at n ≤ 3 a multivalued idempotent splits
    exactly when it is balanced, and ι∘π inputs split by construction."""
    I, K = g.I, g.K
    n = len(m)
    x = K.fin_object(str(i) for i in range(n))
    e = g.kernel(K.Kind.MULTI, x, x, m)
    flags = memo(lambda: oracle.classify_flags(m))

    def check(out):
        report, result = out
        expected = flags()["balanced"] if splits is None else splits
        if report.flags() != flags():
            return False
        if not expected:
            return isinstance(result, I.NoSplitUpTo) and result.max_size == max_middle
        if not isinstance(result, I.SplitData):
            return False
        iota, pi = rows(result.inclusion.matrix), rows(result.projection.matrix)
        return (oracle.matmul(pi, iota, True) == oracle.eye(len(pi), True)
                and oracle.matmul(iota, pi, True) == m)

    return Query("classify-search", n, lambda: (I.classify(e), I.search_split(e, max_middle)), check)


def compose_chain_query(g: Gen, n: int) -> Query:
    K, R = g.K, g.R
    objs = [g.obj(p, n) for p in "abcd"]
    k1, k2, k3 = (R.random_kernel(g.rng, K.Kind.MULTI, objs[i], objs[i + 1]) for i in range(3))
    ref = memo(lambda: oracle.matmul(k3.matrix, oracle.matmul(k2.matrix, k1.matrix, True), True))
    return Query("compose-chain", n, lambda: K.compose(k3, K.compose(k2, k1)),
                 lambda out: rows(out.matrix) == ref())


def domination_query(g: Gen, kind, n: int, holds: bool) -> Query:
    A = g.A
    q, p, missing = g.domination_case(kind, n, holds)

    def check(out):
        verdict, witness = out
        if holds:
            return verdict is True and witness is None
        return verdict is False and witness.element == missing

    return Query("abs-cont", n, lambda: (A.abs_cont(q, p), A.refute_abs_cont(q, p)), check)


def io_relation_query(g: Gen, n: int) -> Query:
    F, K, R = g.F, g.K, g.R
    p = R.random_kernel(g.rng, K.Kind.STOCH, g.obj("a", n), g.obj("x", n))
    ref = [[v > 0 for v in row] for row in p.matrix]
    return Query("io-relation", n, lambda: F.io_relation(p),
                 lambda out: out.kind is K.Kind.MULTI and rows(out.matrix) == ref)


# ---------------------------------------------------------------------------
# cli-small: many tiny in-process CLI calls on documents
# ---------------------------------------------------------------------------

LAWS = ("counit_left", "counit_right", "coassociative", "cocommutative", "discard_natural")


class Docs:
    """Writes kernel documents into one directory and returns their paths."""

    def __init__(self, directory: str):
        self.directory = directory
        self.count = 0

    def write(self, doc: dict) -> str:
        path = os.path.join(self.directory, f"k{self.count}.json")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def kernel(self, k) -> str:
        return self.write(oracle.to_doc(k.kind.value, k.dom.labels, k.cod.labels, k.matrix))


def cli_query(g: Gen, op: str, size: int, argv: list[str], code, payload: Callable[[dict], bool]) -> Query:
    """``code`` is the expected exit code, or a function computing it."""
    C = g.C

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = C.run(argv)
        return rc, out.getvalue()

    def check(out):
        rc, text = out
        return rc == (code() if callable(code) else code) and payload(json.loads(text))

    return Query(op, size, call, check)


def build_cli_small(g: Gen, docs: Docs, fixture_dir: str, full: bool = True) -> list[Query]:
    K, G = g.K, g.G
    STOCH, SIGNED, MULTI = K.Kind.STOCH, K.Kind.SIGNED, K.Kind.MULTI
    qs = []
    q = lambda *a: qs.append(cli_query(g, *a))

    def labels(k, idx):
        return [k.cod.labels[i] for i in idx]

    for n in range(2, 7):
        kind = (STOCH, SIGNED, MULTI)[n % 3]
        k = g.R.random_kernel(g.rng, kind, g.obj("a", n), g.obj("x", n))
        q("validate", n, ["validate", docs.kernel(k)], 0, lambda d, k=k: d["valid"] is True and d["kind"] == k.kind.value)
        bad = rows(g.R.random_kernel(g.rng, STOCH, g.obj("a", n), g.obj("x", n)).matrix)
        bad[0][0] += 1
        path = docs.write(oracle.to_doc("stoch", [f"a{i}" for i in range(n)], [f"x{i}" for i in range(n)], bad))
        if n % 2 == 0:
            q("validate", n, ["validate", path], 1, lambda d: d["valid"] is False)

        e, cs, flags = g.class_idempotent(n, 1 + n // 3)
        q("classify", n, ["classify", docs.kernel(e)], 0, lambda d, f=flags: {k: d[k] for k in f} == f)
        q("split", n, ["split", docs.kernel(e)], 0,
          lambda d, cs=cs: [tuple(c) for c in d["split"]["classes"]] == list(cs.classes)
          and tuple(d["split"]["transient"]) == cs.transient)
        ne = g.full_support_non_idempotent(n)
        q("classify", n, ["classify", docs.kernel(ne)], 1, lambda d: d["idempotent"] is False)
        if n == 2:
            q("split", n, ["split", docs.kernel(ne)], 1, lambda d: d["split"] is None)

        sk = g.R.random_kernel_supported_on(g.rng, (STOCH, MULTI)[n % 2], g.obj("a", n), g.obj("x", n),
                                             sorted(g.rng.sample(range(n), max(1, n // 2))))
        supp = labels(sk, oracle.reached_rows(sk.matrix))
        q("support", n, ["support", docs.kernel(sk)], 0, lambda d, s=supp: d["support"] == s)
        q("split-support", n, ["split-support", docs.kernel(sk)], 0,
          lambda d, s=supp, sk=sk: d["support"] == s and oracle.from_doc(d["projection"])[3] == split_projection(sk, s))

        qk, pk, missing = g.domination_case((STOCH, MULTI)[n % 2], n, n % 2 == 0)
        q("abscont", n, ["abscont", docs.kernel(qk), docs.kernel(pk)], 0 if missing is None else 1,
          lambda d, m=missing: d["abs_cont"] is (m is None) and (m is None or d["witness"]["element"] == m))

        w = 1 + n % 2
        p, f, gk, _ = g.ase_case(kind, n, 2, w, n % 2 == 1)
        q("ase", n, ["ase", docs.kernel(p), docs.kernel(f), docs.kernel(gk), "--w-size", str(w)],
          0 if n % 2 else 1, lambda d, v=n % 2 == 1: d["almost_surely_equal"] is v)

        st = g.R.random_kernel(g.rng, STOCH, g.obj("a", n), g.obj("x", n))
        q("upsilon", n, ["upsilon", docs.kernel(st)], 0,
          lambda d, st=st: oracle.from_doc(d)[3] == [[v > 0 for v in r] for r in st.matrix])

        ny = 2 + n % 2
        f, _, ref = g.joint_case(1 + n // 3, 2, ny, True)
        q("conditional", n, ["conditional", docs.kernel(f), "--split", "2"], 0,
          lambda d, ref=ref: oracle.from_doc(d)[3] == ref)

        ckind = (STOCH, MULTI)[n % 2]
        f3, g3, h3 = g.cs_triple(ckind, 2, n, n, 2, n % 3 == 0)
        cs_ref = memo(lambda f3=f3, g3=g3, h3=h3: oracle.cauchy_schwarz(f3.matrix, g3.matrix, h3.matrix))
        q("cauchy-schwarz", n, ["cauchy-schwarz", docs.kernel(f3), docs.kernel(g3), docs.kernel(h3)],
          lambda r=cs_ref: 0 if (not r()[0] or r()[1]) else 1,
          lambda d, r=cs_ref: (d["antecedent"], d["consequent"]) == r())

    for n in (2, 3):
        e, _, _ = g.class_idempotent(n, 1 + n // 3)
        path = docs.kernel(e)
        for flavor in ("blackwell", "karoubi"):
            q("envelope-check", n, ["envelope-check", path, "--flavor", flavor], 0,
              lambda d: d["accepted"] and all(d[k] for k in LAWS))
    if full:
        signed = docs.kernel(G.signed_idempotent())
        q("envelope-check", 3, ["envelope-check", signed, "--flavor", "blackwell"], 1,
          lambda d: d["accepted"] is False)
        counter = docs.kernel(G.signed_coassoc_counterexample())
        q("envelope-check", 4, ["envelope-check", counter, "--flavor", "karoubi"], 1,
          lambda d: d["accepted"] is True and d["coassociative"] is False
          and all(d[k] for k in LAWS if k != "coassociative"))

    for t in (1, 2):
        iota, pi = split_pair(g.rng, 3, t)
        m = oracle.matmul(iota, pi, True)
        x = [str(i) for i in range(3)]
        path = docs.write(oracle.to_doc("multi", x, x, m))
        q("split", 3, ["--max-size", "2", "split", path], 0,
          lambda d, m=m: multi_split_ok(d["split"], m))
    if not full:
        # verify-paper, the golden kernels and the fixtures are the same for
        # every seed, so warm-up leaves them out
        return qs
    q("verify-paper", 0, ["verify-paper"], 0, lambda d: d["all_pass"] is True and all(c["pass"] for c in d["checks"]))

    # the checked-in fixtures against their documented properties
    fx = {name: os.path.join(fixture_dir, name) for name in oracle.FIXTURE_FLAGS}
    for name, flags in oracle.FIXTURE_FLAGS.items():
        q("fixture-classify", 0, ["classify", fx[name]], 0 if flags["idempotent"] else 1,
          lambda d, f=flags: {k: d[k] for k in f} == f)
    for name, (classes, transient) in oracle.FIXTURE_SPLITS.items():
        q("fixture-split", 0, ["split", fx[name]], 0,
          lambda d, c=classes, t=transient: d["split"]["classes"] == c and d["split"]["transient"] == t)
    q("fixture-split", 2, ["--max-size", "2", "split", fx["e_multi_upset.json"]], 1,
      lambda d: d["split"] is None and d["no_split_up_to"] == 2)
    q("fixture-split", 3, ["--max-size", "2", "split", fx["e_multi_chain3.json"]], 1,
      lambda d: d["split"] is None and d["no_split_up_to"] == 2)
    for (qn, pn), holds in oracle.FIXTURE_DOMINATION.items():
        q("fixture-abscont", 2, ["abscont", fx[qn], fx[pn]], 0 if holds else 1, lambda d, h=holds: d["abs_cont"] is h)
        # pushed forward along the point "0" the domination fails
        pushed = []
        for name in (qn, pn):
            with open(fx[name], encoding="utf-8") as fh:
                kind, dom, cod, m = oracle.from_doc(json.load(fh))
            pushed.append(docs.write(oracle.to_doc(kind, ["•"], cod, [[row[dom.index("0")]] for row in m])))
        q("fixture-abscont", 2, ["abscont", *pushed], 1, lambda d: d["abs_cont"] is False)
    return qs



def split_projection(k, support_labels):
    """Support elements map to themselves, the rest to the first one."""
    pos = {lbl: s for s, lbl in enumerate(support_labels)}
    multi = k.kind.value == "multi"
    one, zero = (True, False) if multi else (Fraction(1), Fraction(0))
    return [[one if pos.get(lbl, 0) == s else zero for lbl in k.cod.labels] for s in range(len(support_labels))]


def multi_split_ok(split, m) -> bool:
    if split is None:
        return False
    iota = oracle.from_doc(split["inclusion"])[3]
    pi = oracle.from_doc(split["projection"])[3]
    return oracle.matmul(pi, iota, True) == oracle.eye(len(pi), True) and oracle.matmul(iota, pi, True) == m


# ---------------------------------------------------------------------------


def build(name: str, rng: random.Random, workdir: str, fixture_dir: str, warmup: bool = False) -> list[Query]:
    """The measured query list of a workload, or a short warm-up list that
    leaves out the inputs which are the same for every seed."""
    g = Gen(rng)
    if name == "stoch-large":
        return build_stoch_large(g, ((8, (2,)), (16, (4,))), 1) if warmup else build_stoch_large(g)
    if name == "envelope-laws":
        return build_envelope_laws(g, ((4, 3), (6, 1)), 0) if warmup else build_envelope_laws(g)
    if name == "multi-split":
        return build_multi_split(g, full=not warmup)
    if name == "cli-small":
        return build_cli_small(g, Docs(workdir), fixture_dir, full=not warmup)
    raise ValueError(f"unknown workload {name!r}")
