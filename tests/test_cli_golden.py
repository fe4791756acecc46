"""Golden CLI transcript: replays tests/data/cli_golden.txt in-process and
requires byte-identical stdout and the same exit code for every command.

The transcript covers `list`, `verify` of every registry id (default profile,
plus `--exact` wherever the exact route applies), `extract` of every
`extract = yes` id, `values zeta|beta` at -30..30 and a few non-integers,
`values bernoulli|euler` at 0..59 and `values bernoulli 260` (a value beyond
the double range, `null` in JSON), each of `verify`, `extract` and `values` in
every `--format`, and `matrix`: triplet export at sizes
1..40 and 3000, `--apply` of columns 1, 2 and size at sizes 7, 40 and 1000,
`--check` of columns 1, 2, 3, size/2 and size at sizes 16, 32 and 96, and
the three out-of-range index errors.

Regenerate (only when an output change is intended, and say why):

    PYTHONPATH=src python tests/test_cli_golden.py > tests/data/cli_golden.txt
"""

import io
import shlex
import sys
from pathlib import Path

import pytest

from opzeta.cli import main
from opzeta.registry import load_registry

GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"
PROMPT = "$ opzeta "
EXIT = "[exit "

_INTS = [str(k) for k in range(-30, 31)]
_NON_INTS = ["-24.5", "-2.5", "-0.5", "0.5", "1.5", "2.5", "7.25"]
_INDICES = [str(n) for n in range(60)]
_TRIPLET_SIZES = [*range(1, 41), 3000]
_APPLY_SIZES = [7, 40, 1000]
_CHECK_SIZES = [16, 32, 96]
# every command x format pair: grid verify in json (real rows, the complex
# repr strings of eq5, the `x: null` extra-check row of eq1) and csv, exact
# verify with a non-empty `pole_events` and in csv, extract in json and csv
_VERIFY_FORMATS = [
    ["eq6", "--format", "json"],
    ["eq6", "--format", "csv"],
    ["eq5", "--format", "json"],
    ["eq1", "--grid", "0.5:2.5:3", "--format", "json"],
    ["eq2", "--exact", "--format", "json"],
    ["eq17", "--format", "csv"],
]
_EXTRACT_FORMATS = [["eq17", "--format", "json"], ["beta_cos_s0", "--format", "csv"]]
_MATRIX_INDEX_ERRORS = [["--size", "0"], ["--size", "5", "--apply", "6"], ["--size", "5", "--check", "0"]]


def golden_commands() -> list[list[str]]:
    reg = load_registry()
    cmds = [["list"]]
    for ident, rec in reg.items():
        cmds.append(["verify", ident])
        if rec.verify_mode != "exact" and rec.op is not None and rec.trig is not None:
            cmds.append(["verify", ident, "--exact"])
    cmds += [["verify", ident, "--format", "json"] for ident, rec in reg.items() if rec.verify_mode == "exact"]
    cmds += [["extract", ident] for ident, rec in reg.items() if rec.extract]
    for kind in ("zeta", "beta"):
        cmds.append(["values", kind, *_INTS, *_NON_INTS, "--format", "csv"])
        cmds.append(["values", kind, "-3", "0", "1", "2", "3", "0.5"])
        cmds.append(["values", kind, "-3", "1", "2", "0.5", "--format", "json"])
    for kind in ("bernoulli", "euler"):
        cmds.append(["values", kind, *_INDICES, "--format", "csv"])
    cmds += [["matrix", "--size", str(size)] for size in _TRIPLET_SIZES]
    cmds += [["matrix", "--size", str(size), "--apply", str(n)] for size in _APPLY_SIZES for n in (1, 2, size)]
    cmds += [
        ["matrix", "--size", str(size), "--check", str(n)]
        for size in _CHECK_SIZES
        for n in (1, 2, 3, size // 2, size)
    ]
    cmds += [["matrix", *args] for args in _MATRIX_INDEX_ERRORS]
    # appended last, so that the cells above keep their indices
    cmds += [["verify", *args] for args in _VERIFY_FORMATS]
    cmds += [["extract", *args] for args in _EXTRACT_FORMATS]
    cmds += [["values", "bernoulli", "260", "--format", fmt] for fmt in ("json", "csv")]
    return cmds


def run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


def render(argv: list[str]) -> str:
    code, out = run(argv)
    return f"{PROMPT}{shlex.join(argv)}\n{out}{EXIT}{code}]\n"


def read_golden() -> list[tuple[list[str], str, int]]:
    """-> [(argv, stdout, exit code)] in transcript order."""
    entries = []
    argv, lines = None, []
    for line in GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True):
        if argv is None:
            assert line.startswith(PROMPT), f"expected a command line, got {line!r}"
            argv, lines = shlex.split(line[len(PROMPT):]), []
        elif line.startswith(EXIT):
            entries.append((argv, "".join(lines), int(line[len(EXIT):].rstrip("]\n"))))
            argv = None
        else:
            lines.append(line)
    assert argv is None, "transcript ends inside a command"
    return entries


_ENTRIES = read_golden() if GOLDEN.exists() else []


def test_transcript_covers_the_command_list():
    assert [argv for argv, _, _ in _ENTRIES] == golden_commands()


@pytest.mark.parametrize("argv,stdout,code", _ENTRIES, ids=[f"{i:02d}-{'-'.join(e[0][:2])}" for i, e in enumerate(_ENTRIES)])
def test_output_is_byte_identical(argv, stdout, code):
    assert run(argv) == (code, stdout)


if __name__ == "__main__":
    sys.stdout.write("".join(render(argv) for argv in golden_commands()))
