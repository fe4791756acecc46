"""Command-line dispatcher: the table of commands, `main`, `entry`, the one
writer of results and `list`.

Exit codes: 0 = pass, 1 = verification/extraction failure, 2 = usage error.
Output is deterministic: identical invocations produce byte-identical bytes
(fixed float formats, fixed row order). `verify`, `values` and `extract` each
build a head and flat rows, which one writer, `write_result`, prints as JSON,
CSV or text. Each other command is the module `cmd_<command>`, which declares
its arguments and runs it; `main` imports that module, and builds that
command's parser, only when it dispatches to it, so a cold command compiles
this module and its own, and no other command's code. `list` loads no layer
but the registry, which holds plain data. `values` at an integer loads
`exactnum` (and `pipoly` for a value with a power of pi), `extract` and
`verify --exact` load `operators`, `exactnum` and `pipoly` but no `series` or
`specfun`, and a grid `verify` loads no `operators`; json and csv load for
their format only, and no layer loads `dataclasses`. A command's own parser
reads its arguments in one pass; the two-level parser of every command takes
help, no command or an unknown one, and leftover arguments. The console
entry, `entry`, prints each warning, such as `PrecisionLoss`, as one line.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import warnings
from functools import cache
from importlib import import_module
from typing import Callable, Optional

from .errors import OpzetaError

# each command with its help text; every one but `list` runs in the module cmd_<command>
COMMANDS = {
    "verify": "verify one registry identity on a grid (or exactly)",
    "values": "value table for zeta/beta/bernoulli/euler",
    "extract": "solve special values by coefficient matching",
    "matrix": "divisibility matrix export / apply / consistency check",
    "list": "list registry identities",
}
FORMATS = ("text", "json", "csv")  # the --format choices of `write_result`
# read negative numeric tokens such as -1e6, -inf or a grid -1.4:1.4:3 as
# arguments, not as options (argparse's own test admits only plain decimals
# like -3 or -2.5)
NEGATIVE_NUMBER = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)


def write_result(out, fmt: str, head: dict, rows: list[dict], text: Callable[[], str], cells: Callable = dict.values) -> None:
    """Write the result of `verify`, `values` or `extract` as `fmt`.

    json: `{**head, "rows": rows}` with sorted keys, in the layout `json.dumps`
    gives it at an indent of 2, plus a newline. An indent makes CPython encode
    in pure Python, so the C encoder writes it here, its item separators
    carrying the layout's newlines. An encoded string holds no raw newline, so
    `}`, the row separator and `{` always mark a row boundary. The head holds
    scalars or flat lists under plain ASCII names (no quote, backslash or
    control character), written quoted as they are; the rows are non-empty
    flat dicts. csv: a header of the row keys, then `cells(row)` per row.
    text: `text()`, for text only.
    """
    if fmt == "text":
        out.write(text())
    elif fmt == "csv":
        import csv

        csv.writer(out, lineterminator="\n").writerows([list(rows[0]), *map(cells, rows)] if rows else [])
    else:
        from json import JSONEncoder

        head_enc = JSONEncoder(sort_keys=True, separators=(",\n    ", ": "))
        rows_enc = JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))
        items = []
        for key in sorted([*head, "rows"]):
            value = rows if key == "rows" else head[key]
            if key == "rows" and rows:
                body = rows_enc.encode(rows)[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
                encoded = "[\n    {\n      " + body + "\n    }\n  ]"
            elif isinstance(value, list) and value:
                encoded = "[\n    " + head_enc.encode(value)[1:-1] + "\n  ]"
            else:
                encoded = head_enc.encode(value)
            items.append(f'"{key}": {encoded}')
        out.write("{\n  " + ",\n  ".join(items) + "\n}\n")


def _cmd_list(args, out) -> int:
    from . import registry

    reg = registry.load_registry()
    out.write(f"identity registry (version {registry.registry_version()})\n")
    for rec in reg.values():
        out.write(f"  {rec.id:<12} {rec.verify_mode:<9} {str(rec.domain):<16} {rec.summary}\n")
    return 0


@cache
def _parser(command: Optional[str]) -> argparse.ArgumentParser:
    """`command`'s own parser, or with None the two-level parser of every
    command, built on first use and only read after (parsing leaves it
    unchanged, so threads share it); do not modify it."""
    if command is not None:
        return _declare(command, argparse.ArgumentParser(prog=f"opzeta {command}"))
    p = argparse.ArgumentParser(
        prog="opzeta",
        description="Verify dilation-operator series identities, print special values, and export the divisibility matrix.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text in COMMANDS.items():
        _declare(name, sub.add_parser(name, help=help_text))
    return p


def _declare(command: str, p: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """p with `command`'s arguments, and its handler as the default `run`."""
    if command == "list":
        p.set_defaults(run=_cmd_list)
        return p
    module = import_module(f".cmd_{command}", __package__)
    module.arguments(p)
    p.set_defaults(run=module.run)
    return p


def main(argv: Optional[list[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    try:
        # a command's own parser reads its arguments in one pass; the two-level
        # parser takes anything else (help, no command or an unknown one) and
        # reports leftover arguments, each as it always has
        command = argv[0] if argv and argv[0] in COMMANDS else None
        args, leftover = _parser(command).parse_known_args(argv[1:]) if command is not None else (None, True)
        if leftover:
            args = _parser(None).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args, out)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OpzetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    # the console's own warnings: one line each, `warning: <message>`, with no
    # file name or source line (the library's warnings are left as they are)
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`opzeta matrix --size 100000 | head -1`):
        # stdout goes to devnull, so that the interpreter's flush at exit stays
        # quiet, as the Python docs' note on SIGPIPE does it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
