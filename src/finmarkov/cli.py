"""Command-line front end.

Kernels travel as JSON documents:

    {"kind": "stoch", "dom": ["a"], "cod": ["x", "y"],
     "matrix": [["1/2"], ["1/2"]]}

Rows are indexed by the codomain and columns by the domain, so a column
is the distribution at one input.  Entries are JSON integers or strings
of the form "-?digits" or "-?digits/digits" with a nonzero denominator,
each numeral at most 4300 digits long; multi kernels instead carry
"images", one array of codomain labels per domain element.

Exit codes: 0 analysis completed (and positive where boolean), 1 a
property or equation failed (e.g. abscont false, non-idempotent input to
split), 2 malformed input.

Arguments: a plain argv (global options, then a command with its
positionals and options, each option once by its full name with a value
not starting with '-') is read straight from the command table; argparse,
built from the same table, reads any other and prints help and errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from types import MappingProxyType
from typing import Any

from . import golden
from .asrel import abs_cont, ase_kernels, refute_abs_cont  # noqa: F401  abs_cont: the benchmark's tests patch it here
from .envelopes import NotBalanced, env_cell, env_check_markov_laws
from .functors import conditional, io_relation
from .idempotents import (
    NoSplitUpTo,
    NotIdempotent,
    SplitData,
    blackwell_split,
    cauchy_schwarz,
    classify,
    search_split,
)
from .kernel import (
    MAX_DIGITS,
    FinMarkovError,
    FinObject,
    Kernel,
    Kind,
    ValidationError,
    _bits,
    _kernel,
    _stored_columns,
)
from .supports import EmptySupport, SupportData, split_support, support


class ParseError(FinMarkovError):
    """Malformed kernel document."""


_ENTRY = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_LONG_RUN = re.compile(f"[0-9]{{{MAX_DIGITS + 1}}}")  # needed by any numeral over the cap
_TOO_LONG = f"numeral longer than {MAX_DIGITS} digits"


def _parse_int(text: str) -> int:
    """A JSON integer, which must have at most MAX_DIGITS digits."""
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise ParseError(f"integer literal: {_TOO_LONG}")
    return int(text)


def _parse_entry(value: Any) -> tuple[int, int]:
    """An entry as a reduced ``(num, den)`` pair with ``den > 0``.  The
    ParseError says what is wrong; the caller prefixes where."""
    if isinstance(value, str):
        match = _ENTRY.fullmatch(value)
        if match is None:
            raise ParseError(f"bad fraction {value[:40]!r}")
        num, den = match.groups("1")
        if len(value) > MAX_DIGITS and max(len(num.lstrip("-")), len(den)) > MAX_DIGITS:
            raise ParseError(_TOO_LONG)
        num, den = int(num), int(den)
        if den == 0:
            raise ParseError(f"zero denominator in {value!r}")
        c = math.gcd(num, den)
        return num // c, den // c
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError(f"entries must be integers or 'n/d' strings, got {value!r}")
    if isinstance(value, int):
        return value, 1
    raise ParseError(f"bad entry {value!r}")


def parse_kernel(text: str) -> Kernel:
    """Parse a kernel document in one walk over its entries, for the one column
    builder.  Entries are reduced, so equal documents give equal kernels; the
    dense ``matrix`` view is built only if read."""
    try:
        doc = json.loads(text, parse_int=_parse_int if _LONG_RUN.search(text) else None)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    return kernel_from_doc(doc)


#: Each kind by its document name, one lookup cheaper than ``Kind(name)``.
_KINDS = MappingProxyType({kind.value: kind for kind in Kind})


def kernel_from_doc(doc: Any) -> Kernel:
    """The kernel of a decoded document, from one walk over its entries.
    Shape and entry errors raise where met, in row-major order; after the
    walk, so does the first column that breaks the column law."""
    if not isinstance(doc, dict):
        raise ParseError("kernel document must be a JSON object")
    for field in ("kind", "dom", "cod"):
        if field not in doc:
            raise ParseError(f"missing field {field!r}")
    kind = _KINDS.get(doc["kind"]) if type(doc["kind"]) is str else None
    if kind is None:
        raise ParseError(f"unknown kind {doc['kind']!r}")
    for field in ("dom", "cod"):
        labels = doc[field]
        if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
            raise ParseError(f"field {field!r} must be an array of strings")
    try:
        dom = FinObject(tuple(doc["dom"]))
        cod = FinObject(tuple(doc["cod"]))
    except FinMarkovError as exc:
        raise ParseError(str(exc)) from exc

    if kind is Kind.MULTI:
        images = doc.get("images")
        if images is None:
            raise ParseError("multi kernels carry 'images'")
        if not isinstance(images, list) or len(images) != dom.size:
            raise ParseError("'images' must list one array per domain element")
        bit = {lbl: 1 << i for i, lbl in enumerate(cod.labels)}
        columns = []
        for j, image in enumerate(images):
            if not isinstance(image, list):
                raise ParseError(f"images[{j}] must be an array of labels")
            mask = 0
            for lbl in image:
                b = bit.get(lbl) if isinstance(lbl, str) else None
                if b is None:
                    raise ParseError(f"images[{j}]: unknown codomain label {lbl!r}")
                mask |= b
            columns.append(mask)
    else:
        matrix = doc.get("matrix")
        if matrix is None:
            raise ParseError("stoch/signed kernels carry 'matrix'")
        if not isinstance(matrix, list) or len(matrix) != cod.size:
            raise ParseError(f"'matrix' must have {cod.size} rows")
        columns: list[list] = [[] for _ in range(dom.size)]  # nonzero (row, (num, den)) per column
        parsed: dict[str, tuple[int, int]] = {}  # each distinct string is parsed once
        for i, row in enumerate(matrix):
            if not isinstance(row, list) or len(row) != dom.size:
                raise ParseError(f"matrix row {i} must have {dom.size} entries")
            for j, v in enumerate(row):
                if type(v) is int:  # a JSON integer is already reduced
                    if v:
                        columns[j].append((i, (v, 1)))
                    continue
                r = parsed.get(v) if type(v) is str else None
                if r is None:
                    try:
                        r = parsed[v] = _parse_entry(v)
                    except ParseError as exc:
                        raise ParseError(f"matrix[{i}][{j}]: {exc}") from None
                if r[0]:
                    columns[j].append((i, r))
    try:
        return _kernel(kind, dom, cod, _stored_columns(kind, columns))
    except ValidationError as exc:  # the column law, decided after every entry parsed
        raise ParseError(f"validation failed: {exc}") from None


def kernel_to_doc(k: Kernel) -> dict:
    doc: dict[str, Any] = {
        "kind": k.kind.value,
        "dom": list(k.dom.labels),
        "cod": list(k.cod.labels),
    }
    if k.kind is Kind.MULTI:
        doc["images"] = [[k.cod.labels[i] for i in _bits(mask)] for mask in k.columns]
    else:
        # an integer entry is a JSON integer, any other an "n/d" string
        rows: list[list] = [[0] * k.dom.size for _ in range(k.cod.size)]
        for j, (den, cells) in enumerate(k.columns):
            for i, num in cells:
                c = math.gcd(num, den)
                rows[i][j] = num // c if c == den else f"{num // c}/{den // c}"
        doc["matrix"] = rows
    return doc


def _read_kernel(path: str) -> Kernel:
    """The kernel at ``path``, or stdin for "-", decoded as strict UTF-8; a file's line ends read as in text mode."""
    try:
        if path == "-":
            return parse_kernel(sys.stdin.buffer.read().decode("utf-8"))
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {'stdin' if path == '-' else path}: {exc}") from exc
    return parse_kernel(text.replace("\r\n", "\n").replace("\r", "\n"))


def _support_doc(sd: SupportData) -> dict:
    doc = {
        "support": list(sd.supp_object.labels),
        "inclusion": kernel_to_doc(sd.inclusion),
        "factorization": kernel_to_doc(sd.factorization),
    }
    if sd.projection is not None:
        doc["projection"] = kernel_to_doc(sd.projection)
    return doc


def _split_doc(sd: SplitData) -> dict:
    return {
        "middle": list(sd.middle.labels),
        "classes": [list(c) for c in sd.classes],
        "transient": list(sd.transient),
        "projection": kernel_to_doc(sd.projection),
        "inclusion": kernel_to_doc(sd.inclusion),
    }


# ---------------------------------------------------------------------------
# subcommands: each returns (exit_code, payload)
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> tuple[int, dict]:
    try:
        k = _read_kernel(args.kernel)
    except ParseError as exc:
        msg = str(exc)
        if msg.startswith("validation failed"):
            return 1, {"valid": False, "error": msg}
        raise
    return 0, {"valid": True, "kind": k.kind.value, "dom": list(k.dom.labels), "cod": list(k.cod.labels)}


def _cmd_classify(args) -> tuple[int, dict]:
    e = _read_kernel(args.kernel)
    report = classify(e)
    payload = report.flags()
    payload["witnesses"] = {k: list(v) for k, v in report.witnesses.items()}
    return (0 if report.idempotent else 1), payload


def _cmd_split(args) -> tuple[int, dict]:
    e = _read_kernel(args.kernel)
    try:
        result = search_split(e, args.max_size) if e.kind is Kind.MULTI else blackwell_split(e)
    except NotIdempotent:
        return 1, {"split": None, "error": "kernel is not idempotent"}
    if isinstance(result, NoSplitUpTo):
        return 1, {"split": None, "no_split_up_to": result.max_size}
    return 0, {"split": _split_doc(result)}


def _cmd_support(args) -> tuple[int, dict]:
    p = _read_kernel(args.kernel)
    return 0, _support_doc(support(p))


def _cmd_split_support(args) -> tuple[int, dict]:
    p = _read_kernel(args.kernel)
    try:
        sd = split_support(p)
    except EmptySupport:
        return 1, {"error": "empty support has no projection"}
    return 0, _support_doc(sd)


def _cmd_abscont(args) -> tuple[int, dict]:
    q = _read_kernel(args.dominating)
    p = _read_kernel(args.dominated)
    witness = refute_abs_cont(q, p)
    verdict = witness is None
    payload: dict[str, Any] = {"abs_cont": verdict}
    if not verdict:
        payload["witness"] = {
            "element": witness.element,
            "low": kernel_to_doc(witness.low),
            "high": kernel_to_doc(witness.high),
        }
    return (0 if verdict else 1), payload


def _cmd_ase(args) -> tuple[int, dict]:
    p = _read_kernel(args.reference)
    f = _read_kernel(args.left)
    g = _read_kernel(args.right)
    verdict = ase_kernels(p, f, g, args.w_size)
    return (0 if verdict else 1), {"almost_surely_equal": verdict}


def _cmd_upsilon(args) -> tuple[int, dict]:
    p = _read_kernel(args.kernel)
    return 0, kernel_to_doc(io_relation(p))


def _cmd_conditional(args) -> tuple[int, dict]:
    f = _read_kernel(args.kernel)
    return 0, kernel_to_doc(conditional(f, args.split))


def _cmd_envelope_check(args) -> tuple[int, dict]:
    e = _read_kernel(args.kernel)
    try:
        cell = env_cell(e.dom, e, args.flavor)
    except (NotIdempotent, NotBalanced) as exc:
        return 1, {"accepted": False, "error": str(exc)}
    report = env_check_markov_laws(cell)
    return (0 if report.all_pass else 1), {"accepted": True, **vars(report)}


def _cmd_cauchy_schwarz(args) -> tuple[int, dict]:
    f = _read_kernel(args.first)
    g = _read_kernel(args.second)
    h = _read_kernel(args.third)
    inst = cauchy_schwarz(f, g, h)
    return (0 if inst.implication_ok else 1), {**vars(inst), "implication_ok": inst.implication_ok}


# ---------------------------------------------------------------------------
# golden verification suite
# ---------------------------------------------------------------------------


def _cmd_verify_paper(args) -> tuple[int, dict]:
    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
    fx = {name: _read_kernel(os.path.join(fixtures, f"{name}.json")) for name in golden.FIXTURES}
    checks = []
    for name, check in golden.CHECKS:
        try:
            passed = bool(check(fx))
        except FinMarkovError:
            passed = False
        checks.append({"name": name, "pass": passed})
    ok = all(c["pass"] for c in checks)
    return (0 if ok else 1), {"checks": checks, "all_pass": ok}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _size(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


# The grammar, read by build_parser and _plain_args.  A command is (handler, help, positionals, options),
# a positional (dest, help), an option (flag, dest, converter or choices, default, required, help).
_KERNEL = (("kernel", "kernel document path ('-' for stdin)"),)
_GLOBAL = (
    ("--format", "format", ("json", "pretty"), "json", False, None),
    ("--max-size", "max_size", _size, 2, False, "largest middle object a multivalued splitting may have"),
)
_COMMANDS = MappingProxyType({
    "validate": (_cmd_validate, "check the column law", _KERNEL, ()),
    "classify": (_cmd_classify, "idempotent taxonomy flags", _KERNEL, ()),
    "split": (_cmd_split, "class decomposition (stoch) or block splitting (multi)", _KERNEL, ()),
    "support": (_cmd_support, "support object, inclusion, factorization", _KERNEL, ()),
    "split-support": (_cmd_split_support, "support with projection", _KERNEL, ()),
    "upsilon": (_cmd_upsilon, "input-output relation of a stochastic kernel", _KERNEL, ()),
    "abscont": (_cmd_abscont, "does the first kernel dominate the second?",
                (("dominating", None), ("dominated", None)), ()),
    "ase": (_cmd_ase, "almost-sure equality of two kernels w.r.t. a reference",
            (("reference", None), ("left", None), ("right", None)), (("--w-size", "w_size", int, 1, False, None),)),
    "conditional": (_cmd_conditional, "conditional of a joint kernel given its first factor", (("kernel", None),),
                    (("--split", "split", int, None, True, "size of the first output factor"),)),
    "envelope-check": (_cmd_envelope_check, "comonoid laws of an envelope cell", (("kernel", None),),
                       (("--flavor", "flavor", ("karoubi", "blackwell"), "blackwell", False, None),)),
    "cauchy-schwarz": (_cmd_cauchy_schwarz, "one instance of the Cauchy-Schwarz implication",
                       (("first", None), ("second", None), ("third", None)), ()),
    "verify-paper": (_cmd_verify_paper, "run the golden example suite", (), ()),
})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finmarkov",
        description="Exact analysis of finite stochastic, signed, and multivalued kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    with_options = [(parser, _GLOBAL)]
    for name, (fn, help_text, positionals, options) in _COMMANDS.items():
        s = sub.add_parser(name, help=help_text)
        for dest, arg_help in positionals:
            s.add_argument(dest, help=arg_help)
        s.set_defaults(fn=fn)
        with_options.append((s, options))
    for s, options in with_options:
        for flag, dest, convert, default, required, help_text in options:
            check = {"choices": convert} if isinstance(convert, tuple) else {"type": convert}
            s.add_argument(flag, dest=dest, default=default, required=required, help=help_text, **check)
    return parser


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """What ``_parser().parse_args(argv)`` returns for a plain argv (see the module docstring), else None."""
    command, options, given, values = None, _GLOBAL, [], {}
    tokens = iter(argv)
    for token in tokens:
        if token[:1] == "-" and token != "-":
            spec = next((o for o in options if o[0] == token), None)
            value = next(tokens, "-")
            if spec is None or spec[1] in values or value[:1] == "-":
                return None
            _, dest, convert, *_ = spec
            try:  # a value missing from a tuple of choices fails its .index
                values[dest] = convert(value) if callable(convert) else convert[convert.index(value)]
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
        elif command is not None:
            given.append(token)
        elif token in _COMMANDS:
            command, options = token, _COMMANDS[token][3]
        else:
            return None
    if command is None or len(given) != len(_COMMANDS[command][2]):
        return None
    for _, dest, _, default, required, _ in _GLOBAL + options:
        if required and dest not in values:
            return None
        values.setdefault(dest, default)
    fn, _, positionals, _ = _COMMANDS[command]
    values.update(zip((dest for dest, _ in positionals), given), command=command, fn=fn)
    return argparse.Namespace(**values)


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once; argparse looks up the output streams when it prints."""
    return build_parser()


def run(argv: list[str]) -> int:
    try:
        args = _plain_args(argv) or _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, payload = args.fn(args)
    except ParseError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except FinMarkovError as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 2
    if args.format == "pretty" and args.command == "verify-paper":
        width = max(len(c["name"]) for c in payload["checks"])
        for check in payload["checks"]:
            print(f"{'PASS' if check['pass'] else 'FAIL'}  {check['name']:<{width}}")
        print(f"{'PASS' if payload['all_pass'] else 'FAIL'}  overall")
    else:
        print(json.dumps(payload, indent=2 if args.format == "pretty" else None))
    return code


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
