"""Checks on the library source itself."""

import ast
import re
from pathlib import Path

import finmarkov

SOURCE = Path(finmarkov.__file__).parent


def _raises_assertion_error(node):
    return isinstance(node, ast.Raise) and node.exc is not None and _called_name(node.exc) == "AssertionError"


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so invariants must raise a typed
    # error; a raised AssertionError is a self-check whose second procedure
    # belongs in the tests' oracles
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert) or _raises_assertion_error(node)
        ]
    assert found == []


def test_library_has_no_function_local_relative_imports():
    # module-level imports keep the dependency graph visible; none is needed to break a cycle
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, ast.ImportFrom) and node.level > 0
                ]
    assert found == []


MUTABLE_CALLS = {"dict", "list", "set", "defaultdict"}
CACHE_DECORATORS = {"lru_cache", "cache"}


def _import_time_statements(tree):
    """Statements run at import: the module body, top-level if/try/with
    blocks and class bodies, but no function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack += [c for c in ast.iter_child_nodes(node) if isinstance(c, (ast.stmt, ast.excepthandler))]


def _called_name(node):
    """The name behind ``f``, ``f(...)``, ``mod.f`` or ``mod.f(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_mutable_container(value):
    containers = (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)
    return isinstance(value, containers) or (
        isinstance(value, ast.Call) and _called_name(value) in MUTABLE_CALLS
    )


def test_library_memos_are_clearable():
    # the benchmark clears memos between passes only through `cache_clear`,
    # so no state may live in a module-level container or a nested cache
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in _import_time_statements(tree):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets, value = [node.target], node.value
            else:
                continue
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                continue
            if value is not None and _is_mutable_container(value):
                found.append(f"{path.name}:{node.lineno} mutable container")
        allowed = set()
        for func in tree.body:
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in func.decorator_list:
                    allowed |= {id(deco), id(getattr(deco, "func", deco))}
        found += [
            f"{path.name}:{node.lineno} cache off a module-level function"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and _called_name(node) in CACHE_DECORATORS
            and id(node) not in allowed
        ]
    assert found == []


# these build kernels from stored integer columns; building one from dense
# rows here would bring the dense cost back
COLUMN_ONLY = {
    "_stored_columns", "compose", "tensor", "pair", "_column_products", "function_kernel", "kernel_equal",
    "_classify_cached", "_report", "_classes", "_class_failures",
    "_sum_difference", "_column_composite",
    "cauchy_schwarz", "blackwell_split", "_class_split", "kernel_from_doc", "kernel_to_doc",
    "support", "factor_through_support", "equalizer_factor", "point_lift",
    "precise_supports_equiv", "canonical_rep", "env_check_markov_laws", "_cmd_verify_paper",
    "balanced_cross_check", "verify_split", "_deterministic_as",
}

# the one function that may read the dense view: the view itself
DENSE_VIEW = "Kernel.matrix"


def _units(tree):
    """Each module-level statement and each statement of a class body,
    named by the function it defines (qualified by its class) or its line."""
    for node in tree.body:
        owner = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        for item in node.body if owner else [node]:
            yield owner + getattr(item, "name", f"line {item.lineno}"), item


def _dense_reads(tree):
    """Reads of ``.matrix`` and calls of ``.column(`` or ``entry(`` anywhere
    outside `DENSE_VIEW`."""
    found = []
    for name, unit in _units(tree):
        if name == DENSE_VIEW:
            continue
        for node in ast.walk(unit):
            if isinstance(node, ast.Attribute) and node.attr == "matrix":
                found.append(f"{name}:{node.lineno} reads .matrix")
            if isinstance(node, ast.Call) and _called_name(node) in ("column", "entry"):
                found.append(f"{name}:{node.lineno} calls .{_called_name(node)}(")
    return found


def test_hot_paths_do_not_read_the_dense_view():
    # no library function reads the dense view: each builds a Fraction or
    # bool per cell; and the column-only functions build no kernel from rows
    seen, names, found = set(), set(), []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names |= {name for name, _ in _units(tree)}
        found += [f"{path.name} {where}" for where in _dense_reads(tree)]
        for func in ast.walk(tree):
            if not (isinstance(func, ast.FunctionDef) and func.name in COLUMN_ONLY):
                continue
            seen.add(func.name)
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and _called_name(node) == "Kernel":
                    found.append(f"{path.name}:{node.lineno} {func.name} builds a Kernel from dense rows")
    assert DENSE_VIEW in names
    assert seen == COLUMN_ONLY
    assert found == []
    assert not hasattr(finmarkov.Kernel, "column")


DENSE_READS = """
class Kernel:
    @property
    def matrix(self):
        return self._matrix or self.matrix

    def column(self, j):
        return tuple(row[j] for row in self.matrix)

def helper(k):
    return k.column(0), entry(k, "a", "b")

def nested(k):
    def inner():
        return k.matrix
    return inner

VIEW = Kernel.matrix
"""


def test_dense_view_check_flags_every_reader_but_the_view():
    assert _dense_reads(ast.parse(DENSE_READS)) == [
        "Kernel.column:8 reads .matrix",
        "helper:11 calls .column(",
        "helper:11 calls .entry(",
        "nested:15 reads .matrix",
        "line 18:18 reads .matrix",
    ]


def _calls_within(node, name, bound, seen=()):
    """Whether ``node`` calls ``name`` anywhere inside it, following the
    names that ``bound`` maps to the values assigned to them."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and _called_name(sub) == name:
            return True
        if isinstance(sub, ast.Name) and sub.id in bound and sub.id not in seen:
            if any(_calls_within(value, name, bound, seen + (sub.id,)) for value in bound[sub.id]):
                return True
    return False


# what builds a copy: the comonoid's, and an envelope cell's copy formula
COPIES = ("copy_kernel", "_copy_formula", "_cell_copy")


def _tensor_then_copy(tree):
    """Lines where a function composes a tensor on a copy, nested or through
    a local name: ``compose(.. tensor(..) .., .. copy_kernel(..) ..)``, or
    the same with ``_copy_formula(..)`` or ``_cell_copy(..)`` as the copy."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    # each name unpacked from a tuple is bound to the whole value
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            bound.setdefault(name.id, []).append(node.value)
        found += [
            f"{func.name}:{node.lineno}"
            for node in ast.walk(func)
            if isinstance(node, ast.Call)
            and _called_name(node) == "compose"
            and len(node.args) == 2
            and _calls_within(node.args[0], "tensor", bound)
            and any(_calls_within(node.args[1], copy, bound) for copy in COPIES)
        ]
    return found


def test_library_pairs_instead_of_composing_a_tensor_with_a_copy():
    # (f⊗g)∘copy builds |A|² columns of f⊗g and keeps |A|; pair(f, g)
    # builds the |A| it needs
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name} {where}" for where in _tensor_then_copy(tree)]
    assert found == []


TENSOR_THEN_COPY = """
def direct(e):
    return compose(tensor(e, e), copy_kernel(e.dom, e.kind))

def nested(e):
    return compose(tensor(e, e), compose(copy_kernel(e.dom, e.kind), e))

def through_names(e):
    cop = copy_kernel(e.dom, e.kind)
    paired = compose(tensor(identity(e.dom), e), cop)
    return paired

def through_the_associator(w, a, f):
    spread = compose(associator(w, w, a), tensor(copy_kernel(w), identity(a)))
    return compose(tensor(identity(w), f), spread)

def pairs(e):
    return compose(pair(e, e), e), compose(copy_kernel(e.dom), e), tensor(e, e)
"""


def test_tensor_then_copy_check_flags_each_form():
    found = _tensor_then_copy(ast.parse(TENSOR_THEN_COPY))
    assert found == ["direct:3", "nested:6", "through_names:10", "through_the_associator:15"]


COPY_FORMULA = """
def laws(cell):
    e = cell.endo
    cpy = _copy_formula(cell).kernel
    left = compose(tensor(e, e), cpy)
    return compose(tensor(e, e), compose(cpy, e))

def pairs(cell):
    e = cell.endo
    cpy = _copy_formula(cell).kernel
    return compose(pair(e, e), e), compose(swap_kernel(e.dom, e.dom), cpy)
"""


def test_tensor_then_copy_check_flags_the_copy_formula():
    found = _tensor_then_copy(ast.parse(COPY_FORMULA))
    assert found == ["laws:5", "laws:6"]


CELL_COPY = """
def laws(cell):
    e = cell.endo
    cpy, ee = _cell_copy(cell)
    return compose(tensor(e, ee), cpy)

def pairs(cell):
    e = cell.endo
    cpy, ee = _cell_copy(cell)
    return compose(pair(ee, e), e), tensor(e, e)

def coassociativity(cell):
    e = cell.endo
    return compose(tensor(_cell_copy(e), e), _cell_copy(e)), compose(pair(_cell_copy(e), e), e)
"""


def test_tensor_then_copy_check_flags_the_unpacked_cell_copy():
    # `_cell_copy` unpacked from a cell, or called on the endo itself
    found = _tensor_then_copy(ast.parse(CELL_COPY))
    assert found == ["laws:5", "coassociativity:14"]


def _is_self_composite(node, bound, seen=()):
    """Whether ``node``, past any attribute reads, is ``compose(x, x)``, or
    a local name that ``bound`` maps to one."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Call) and _called_name(node) == "compose" and len(node.args) == 2:
        return ast.dump(node.args[0]) == ast.dump(node.args[1])
    if isinstance(node, ast.Name) and node.id in bound and node.id not in seen:
        return any(_is_self_composite(value, bound, seen + (node.id,)) for value in bound[node.id])
    return False


# the one unit that decides e∘e = e, by asking `classify`
CELL_CONSTRUCTOR = "EnvelopeCell.__post_init__"


def _self_composites_compared(tree):
    """Lines where a function compares a composite ``compose(x, x)`` with
    ``==`` or ``!=``, directly or through a local name."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    # a tuple unpacked from a tuple binds element by element
                    if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                        pairs = zip(target.elts, node.value.elts)
                    else:
                        pairs = [(target, node.value)]
                    for names, value in pairs:
                        for name in ast.walk(names):
                            if isinstance(name, ast.Name):
                                bound.setdefault(name.id, []).append(value)
        found += [
            f"{func.name}:{node.lineno}"
            for node in ast.walk(func)
            if isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
            and any(_is_self_composite(operand, bound) for operand in [node.left, *node.comparators])
        ]
    return found


def test_envelopes_decide_e_e_only_in_the_settled_cell_test():
    # a cell's e∘e = e is `classify`'s cached verdict, which the cell
    # constructor asks; no unit composes e∘e to compare it
    path = SOURCE / "envelopes.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _self_composites_compared(tree) == []
    constructor = dict(_units(tree))[CELL_CONSTRUCTOR]
    assert any(isinstance(node, ast.Call) and _called_name(node) == "classify" for node in ast.walk(constructor))


SELF_COMPOSITES = """
class Cell:
    def __post_init__(self):
        return compose(self.endo, self.endo) == self.endo

def direct(e):
    return compose(e, e) == e, e != compose(e, e)

def through_names(e):
    ee = compose(e, e)
    same = ee
    return disc if same == e else compose(disc, e)

def unpacked(e, disc):
    ee, de = compose(e, e), compose(disc, e)
    return ee.columns != e.columns, de == disc

def others(e, f):
    ee = compose(e, e)
    return compose(f, e) == f, compose(e, f) != e, ee is e, kernel_equal(ee, e)
"""


def test_self_composite_check_flags_each_form():
    found = _self_composites_compared(ast.parse(SELF_COMPOSITES))
    assert found == ["direct:7", "direct:7", "through_names:12", "unpacked:16", "__post_init__:4"]


def _tests_bit(node, name):
    """Whether ``node`` tests bit ``name`` of a mask: ``m >> name & 1`` or
    ``m & 1 << name``, the operands of ``&`` either way round."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)):
        return False
    for shifted, other in ((node.left, node.right), (node.right, node.left)):
        if isinstance(other, ast.Constant) and other.value == 1 and isinstance(shifted, ast.BinOp):
            if isinstance(shifted.op, ast.RShift) and isinstance(shifted.right, ast.Name):
                return shifted.right.id == name
        if isinstance(shifted, ast.BinOp) and isinstance(shifted.op, ast.LShift):
            one, at = shifted.left, shifted.right
            if isinstance(one, ast.Constant) and one.value == 1 and isinstance(at, ast.Name):
                return at.id == name
    return False


def _range_bit_scans(tree):
    """Lines where a comprehension or a ``for`` loop over ``range(...)``
    tests the bit of its loop variable in a filter, its element or its body,
    named by the unit (function, method or statement) they sit in."""
    found = []
    for name, unit in _units(tree):
        for node in ast.walk(unit):
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                loops = node.generators
            elif isinstance(node, ast.For):
                loops = [node]
            else:
                continue
            for loop in loops:
                if not (isinstance(loop.iter, ast.Call) and _called_name(loop.iter) == "range"
                        and isinstance(loop.target, ast.Name)):
                    continue
                if any(_tests_bit(sub, loop.target.id) for sub in ast.walk(node)):
                    found.append(f"{name}:{node.lineno}")
    return found


def test_library_reads_masks_by_their_set_bits():
    # a Multi column is an int mask: `bits` walks its set bits, where a scan
    # over range(n) tests every row
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name} {where}" for where in _range_bit_scans(tree)]
    assert found == []


RANGE_BIT_SCANS = """
def filtered(mask, n):
    return [i for i in range(n) if mask >> i & 1]

def element(cols, n):
    return tuple(tuple(bool(c >> i & 1) for c in cols) for i in range(n))

def nested(cols, n):
    return {i: 1 for i in range(n) if any(1 & m >> i for m in cols)}

def shifted_one(mask, n):
    return sum(1 for i in range(0, n) if mask & (1 << i))

def loop(mask, n):
    out = []
    for i in range(n):
        if (mask >> i) & 1:
            out.append(i)
    return out

class View:
    def rows(self, n):
        return [i for i in range(n) if self.mask >> i & 1]

def fine(mask, cols, n):
    ones = [i for i in _bits(mask)]
    listed = [y for y, m in enumerate(cols) if not m >> y & 1]
    other = [mask >> j & 1 for i in range(n) for j in (0, 1)]
    shifted = [mask >> i for i in range(n)]
    return ones, mask >> 3 & 1, listed, other, shifted
"""


def test_range_bit_scan_check_flags_each_form():
    assert _range_bit_scans(ast.parse(RANGE_BIT_SCANS)) == [
        "filtered:3", "element:6", "nested:9", "shifted_one:12", "loop:16", "View.rows:23",
    ]


def _attribute_hooks(tree):
    """Classes that define ``__getattr__``, by a method or an assignment in
    their body, named with the line of the definition."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            if "__getattr__" in names:
                found.append(f"{cls.name}:{item.lineno}")
    return found


def test_library_classes_define_no_attribute_hook():
    # a `__getattr__` fills attributes in on first read, so an object would
    # exist in two states: every attribute is set when the object is built
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name} {where}" for where in _attribute_hooks(tree)]
    assert found == []


ATTRIBUTE_HOOKS = """
class Kernel:
    def __getattr__(self, name):
        return self.columns

class Other:
    __getattr__ = Kernel.__getattr__

    class Inner:
        async def __getattr__(self, name):
            return name

class Fine:
    def __getattribute__(self, name):
        return object.__getattribute__(self, name)

    __setattr__ = __delattr__ = None

def __getattr__(name):
    return name
"""


def test_attribute_hook_check_flags_each_form():
    assert _attribute_hooks(ast.parse(ATTRIBUTE_HOOKS)) == ["Kernel:3", "Other:7", "Inner:10"]


# construction decides the column law, so no unit of these modules checks it again
LAW_CHECKS = {"envelopes.py": set(), "idempotents.py": set()}


def _validate_calls(tree, allowed, callee="validate"):
    """Lines where a unit other than those ``allowed`` calls ``callee``."""
    return [
        f"{name}:{node.lineno}"
        for name, unit in _units(tree)
        if name not in allowed
        for node in ast.walk(unit)
        if isinstance(node, ast.Call) and _called_name(node) == callee
    ]


def test_construction_decides_the_column_law_for_the_taxonomy_and_the_envelopes():
    found = []
    for filename, allowed in LAW_CHECKS.items():
        path = SOURCE / filename
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{filename} {where}" for where in _validate_calls(tree, allowed)]
    assert found == []


VALIDATE_CALLS = """
def _classify_cached(e):
    return validate(e)

def blackwell_split(e):
    if (bad := validate(e)) is not None:
        raise ValidationError(bad.message)

def _cell_law(cell):
    return kernel.validate(cell.endo) is None and classify(cell.endo).idempotent

class Cell:
    def check(self):
        return validate(self.endo)

BAD = validate(IDENTITY)
"""


def test_only_the_class_test_reads_the_classes():
    # `classify` keeps the classes its class test read, and `_class_split`
    # reads that record rather than the columns again
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name} {where.split(':')[0]}" for where in _validate_calls(tree, set(), "_classes")]
    assert found == ["idempotents.py _class_failures"]


def test_validate_call_check_flags_each_form():
    found = _validate_calls(ast.parse(VALIDATE_CALLS), {"_classify_cached"})
    assert found == ["blackwell_split:6", "_cell_law:10", "Cell.check:14", "line 16:16"]


def _memos(tree):
    """Lines that name a cache decorator, in order."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and _called_name(node) in CACHE_DECORATORS
    )


def test_envelopes_define_no_memo():
    # construction decides each cell and morphism once, so no envelope
    # operation remembers a verdict; `classify` keeps its own memo
    path = SOURCE / "envelopes.py"
    assert _memos(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) == []
    memos = "@lru_cache(maxsize=64)\ndef f(x):\n    return x\n\n\n@functools.cache\ndef g(x):\n    return x\n"
    assert _memos(ast.parse(memos)) == [1, 6]


# the one unit that sums an exact column over its own lcd, and the units that call it
COLUMN_COMPOSITE = "_column_composite"
COMPOSITE_CALLERS = {"kernel.py": "compose", "idempotents.py": "_classify_cached"}


def _column_sum_copies(tree, names):
    """For each function in ``names``: a line if it does not call
    `COLUMN_COMPOSITE`, and the lines where it calls ``lcm`` within a loop,
    in the body of a ``for`` or ``while`` or in a comprehension's element or
    filter, as an inlined copy of the helper takes one lcd per column."""
    found = []
    for func in ast.walk(tree):
        if not (isinstance(func, ast.FunctionDef) and func.name in names):
            continue
        if not _calls_within(func, COLUMN_COMPOSITE, {}):
            found.append(f"{func.name}:{func.lineno} does not call {COLUMN_COMPOSITE}")
        looped = []
        for node in ast.walk(func):
            if isinstance(node, (ast.For, ast.While)):
                looped += node.body + node.orelse
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                looped += [getattr(node, part) for part in ("elt", "key", "value") if hasattr(node, part)]
                looped += [cond for loop in node.generators for cond in loop.ifs]
        lines = {sub.lineno for part in looped for sub in ast.walk(part)
                 if isinstance(sub, ast.Call) and _called_name(sub) == "lcm"}
        found += [f"{func.name}:{line} takes an lcd in a loop" for line in sorted(lines)]
    return found


def test_compose_and_classify_share_one_exact_column_sum():
    # e∘e in classify is compose's column sum, each column over its own lcd;
    # the common denominator, outside any loop, serves only the flag scan
    found = []
    for filename, name in COMPOSITE_CALLERS.items():
        path = SOURCE / filename
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{filename} {where}" for where in _column_sum_copies(tree, {name})]
    assert found == []


COLUMN_SUM_COPIES = """
def compose(g, f):
    out = []
    for fden, fcells in f.columns:
        lcd = math.lcm(*[g.columns[y][0] for y, _ in fcells])
        out.append((fden * lcd, fcells))
    return out

def _classify_cached(e):
    d = math.lcm(*[den for den, _ in e.columns])
    sums = [lcm(*[cols[y][0] for y, _ in col[1]]) for col in e.columns]
    return [_column_composite(e.columns, col) for col in e.columns], d, sums

def scan(e):
    while e:
        e = {x: lcm(x, 2) for x in e if lcm(x, 3) > 1}
    return [_column_composite(e, c) for c in e], lcm(*e)
"""


def test_column_sum_copy_check_flags_each_form():
    found = _column_sum_copies(ast.parse(COLUMN_SUM_COPIES), {"compose", "_classify_cached", "scan"})
    assert found == [
        "compose:2 does not call _column_composite",
        "compose:5 takes an lcd in a loop",
        "_classify_cached:11 takes an lcd in a loop",
        "scan:16 takes an lcd in a loop",
    ]


# the one builder of stored columns and their law verdict, the units that
# take a kernel in through it, and what only the builder does on the way in:
# take a column's lcd and state the law
COLUMN_BUILDER = "_stored_columns"
BUILDER_CALLERS = {"kernel.py": {"Kernel.__init__", "multi_kernel"}, "cli.py": {"kernel_from_doc"}}
BUILDER_ONLY = ("lcm", "_law_break")


def _builder_bypasses(tree, callers, forbidden=()):
    """Each unit of ``callers`` that is missing or does not call
    `COLUMN_BUILDER`, and each call anywhere of a name in ``forbidden``."""
    units = dict(_units(tree))
    found = [f"{name} does not call {COLUMN_BUILDER}" for name in sorted(callers)
             if name not in units or not _calls_within(units[name], COLUMN_BUILDER, {})]
    found += [f"{node.lineno} calls {_called_name(node)}" for node in ast.walk(tree)
              if isinstance(node, ast.Call) and _called_name(node) in forbidden]
    return found


def test_every_way_in_builds_its_columns_with_the_one_builder():
    # dense rows, documents and images get their stored columns and their
    # law verdict from one function, so the law is decided in one place
    found = []
    for filename, callers in BUILDER_CALLERS.items():
        path = SOURCE / filename
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        forbidden = BUILDER_ONLY if filename == "cli.py" else ()
        found += [f"{filename} {where}" for where in _builder_bypasses(tree, callers, forbidden)]
    assert found == []


BUILDER_BYPASSES = """
class Kernel:
    def __init__(self, kind, raw):
        self.columns = [_ratio_column(col) for col in raw]

def multi_kernel(dom, cod, images):
    return _kernel(Kind.MULTI, dom, cod, _stored_columns(Kind.MULTI, images))

def kernel_from_doc(doc):
    den = math.lcm(*doc)
    if (message := _law_break(kind, 0, den)) is not None:
        raise ParseError(message)
"""


def test_builder_bypass_check_flags_each_form():
    callers = {"Kernel.__init__", "multi_kernel", "kernel_from_doc", "parse_kernel"}
    assert _builder_bypasses(ast.parse(BUILDER_BYPASSES), callers, BUILDER_ONLY) == [
        "Kernel.__init__ does not call _stored_columns",
        "kernel_from_doc does not call _stored_columns",
        "parse_kernel does not call _stored_columns",
        "10 calls lcm",
        "11 calls _law_break",
    ]


# the one unit that writes tensor labels, in the one slotted object class
LABEL_WRITER = "_tensor_labels"
PAIR_TEMPLATE = re.compile(r"\(\{\}\s*,\s*\{\}\)")


def _pair_label_writers(tree):
    """Units that build an f-string holding "({…},{…})", named with its line."""
    found = []
    for name, unit in _units(tree):
        for node in ast.walk(unit):
            if isinstance(node, ast.JoinedStr):
                text = "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
                if PAIR_TEMPLATE.search(text):
                    found.append(f"{name}:{node.lineno}")
    return found


def _unslotted(tree, names):
    """Classes named in ``names`` whose body assigns no ``__slots__``, with their line."""
    return [
        f"{cls.name}:{cls.lineno}"
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name in names and not any(
            isinstance(item, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in item.targets)
            for item in cls.body
        )
    ]


def test_only_the_label_writer_formats_tensor_labels():
    # one writer keeps the encoding injective and the split its inverse;
    # FinObject stays slotted, so a tensor object carries only its factors
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name} {where.split(':')[0]}" for where in _pair_label_writers(tree)]
        found += [f"{path.name} {where} unslotted" for where in _unslotted(tree, {"FinObject"})]
    assert found == [f"kernel.py {LABEL_WRITER}"]


PAIR_LABELS = """
def _tensor_labels(left, right):
    return tuple(f"({a},{b})" for a in left for b in right)

def split(labels, a, b):
    return labels == (f"({a}, {b})",)

class Obj:
    __slots__ = ("labels",)

    def label(self, a, b):
        return [f"<{f'({a!r},{b:>3})'}>"]

class FinObject:
    def __init__(self, labels):
        self.labels = labels

PAIR = f"({1},{2})"
FINE = f"({1} vs {2})", f"({1},{2},{3})", "(%s,%s)" % (1, 2)
"""


def test_label_writer_check_flags_each_form():
    tree = ast.parse(PAIR_LABELS)
    assert _pair_label_writers(tree) == ["_tensor_labels:3", "split:6", "Obj.label:12", "line 18:18"]
    assert _unslotted(tree, {"FinObject", "Obj"}) == ["FinObject:14"]


# the records whose constructors decide their laws, and the sites that build
# one from outside input through its constructor; the library builds every
# record it derives from lawful values with the trusted `_lawful`
CHECKED_RECORDS = {"SupportData", "SplitData", "SuppCompCell", "SuppCompMorphism", "ParamMorphism",
                   "EnvelopeCell", "EnvelopeMorphism"}
OUTSIDE_INPUT = {"env_cell": {"EnvelopeCell"}}


def _record_aliases(trees):
    """Each checked record by its name, and each module-level name bound to one, as ``env_hom`` is."""
    aliases = {name: name for name in CHECKED_RECORDS}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name) and node.value.id in CHECKED_RECORDS:
                aliases.update((t.id, node.value.id) for t in node.targets if isinstance(t, ast.Name))
    return aliases


def _record_constructions(tree, aliases, allowed=OUTSIDE_INPUT):
    """Each call of a checked record's constructor, by its name or an alias,
    in a unit that is not one of its ``allowed`` sites."""
    return [
        f"{name}:{node.lineno} builds {aliases[_called_name(node)]}"
        for name, unit in _units(tree)
        for node in ast.walk(unit)
        if isinstance(node, ast.Call) and _called_name(node) in aliases
        and aliases[_called_name(node)] not in allowed.get(name, ())
    ]


def test_derived_records_are_built_trusted():
    # each checked record's constructor decides its law; the library builds
    # one through it only from outside input, and every record it derives
    # from lawful values with `_lawful`, so no law is checked twice
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SOURCE.glob("*.py"))}
    aliases = _record_aliases(trees.values())
    assert aliases == {**{name: name for name in CHECKED_RECORDS},
                       "env_hom": "EnvelopeMorphism", "scomp_hom": "SuppCompMorphism"}
    found = [f"{filename} {where}" for filename, tree in trees.items()
             for where in _record_constructions(tree, aliases)]
    assert found == []


RECORD_CONSTRUCTIONS = """
scomp_hom = SuppCompMorphism

def support(p):
    return SupportData(p, inc.dom, inc, fact, None)

def scomp_compose(g, f):
    return scomp_hom(f.src, g.dst, compose(g.rep, f.rep))

def split(e):
    return idempotents.SplitData(*parts), _lawful(SplitData, *parts)

def env_cell(x, e, flavor):
    cell = EnvelopeCell(x, e, flavor)
    return cell, EnvelopeMorphism(cell, cell, e)

class Completion:
    def tensor(self, other):
        return SuppCompCell(self.object, tensor(self.anchor, other.anchor))

UNIT_LIFT = ParamMorphism(UNIT, UNIT, UNIT, IDENTITY)
"""


def test_record_construction_check_flags_each_form():
    tree = ast.parse(RECORD_CONSTRUCTIONS)
    assert _record_constructions(tree, _record_aliases([tree])) == [
        "support:5 builds SupportData",
        "scomp_compose:8 builds SuppCompMorphism",
        "split:11 builds SplitData",
        "env_cell:15 builds EnvelopeMorphism",
        "Completion.tensor:19 builds SuppCompCell",
        "line 21:21 builds ParamMorphism",
    ]
