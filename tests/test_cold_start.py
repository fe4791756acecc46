"""What a cold `python -m opzeta` loads: each command imports only the layers
it uses, the exact paths never load mpmath or numpy, and the package's
public names resolve on first access (PEP 562). Every check runs in a fresh
child interpreter, where nothing is imported yet."""

import json
import os
import subprocess
import sys

import pytest

import opzeta

# runs each argv of the JSON list argv[1] through cli.main in turn; prints one
# JSON row per command: exit code, stdout, and the modules loaded so far
_RUN_COMMANDS = """
import io, json, sys
import opzeta.cli as cli
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("opzeta", "mpmath", "numpy"))
    print(json.dumps({"code": code, "out": out.getvalue(), "loaded": loaded}))
"""

_EXACT_COMMANDS = [
    ["list"],
    ["values", "bernoulli", "400"],
    ["values", "euler", "1000"],
    ["values", "zeta", "-399"],
    ["values", "beta", "399"],
    ["values", "zeta", "400"],
    ["extract", "eq21_sin", "--terms", "40"],
    ["verify", "eq17", "--exact"],
    ["matrix", "--size", "96", "--check", "1"],
]

# the layers each command loads beside opzeta, opzeta.cli and opzeta.errors: `list`
# reads the registry's plain data alone, an exact value loads no specfun, the exact
# routes no series and a grid verify no operators
_LAYERS_LOADED = [
    (["list"], "registry"),
    (["values", "bernoulli", "400"], "exactnum"),
    (["values", "euler", "1000"], "exactnum"),
    (["values", "zeta", "-399"], "exactnum"),
    (["values", "beta", "399"], "exactnum"),
    (["values", "zeta", "400"], "exactnum"),
    (["extract", "eq21_sin", "--terms", "40"], "exactnum operators registry"),
    (["verify", "eq17", "--exact"], "exactnum operators registry"),
    (["values", "zeta", "0.5"], "exactnum specfun"),
    (["verify", "eq2"], "exactnum registry series"),
    (["matrix", "--size", "96", "--check", "1"], "divmatrix exactnum"),
]


def _child(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run_commands(*argvs: list[str]) -> list[dict]:
    return [json.loads(line) for line in _child("-c", _RUN_COMMANDS, json.dumps(argvs)).splitlines()]


class TestCommandImports:
    @pytest.mark.parametrize("argv", _EXACT_COMMANDS, ids=" ".join)
    def test_exact_path_loads_no_mpmath_or_numpy(self, argv):
        (row,) = _run_commands(argv)
        assert row["code"] == 0
        assert "mpmath" not in row["loaded"] and "numpy" not in row["loaded"]

    @pytest.mark.parametrize("argv", [["values", "bernoulli", "400"], ["values", "euler", "1000"]], ids=" ".join)
    def test_number_values_load_no_other_layer(self, argv):
        (row,) = _run_commands(argv)
        layers = {"opzeta.registry", "opzeta.operators", "opzeta.series", "opzeta.specfun", "opzeta.divmatrix"}
        assert not layers & set(row["loaded"]), row["loaded"]

    @pytest.mark.parametrize("argv", [["values", "zeta", "-399"], ["values", "beta", "399"]], ids=" ".join)
    def test_exact_zeta_beta_values_load_no_registry_or_series(self, argv):
        (row,) = _run_commands(argv)
        assert not {"opzeta.registry", "opzeta.series", "opzeta.divmatrix"} & set(row["loaded"]), row["loaded"]

    def test_zeta_beta_values_load_no_operators(self):
        # exact, numeric or pole, the route is `exactnum.special_value`
        rows = _run_commands(["values", "zeta", "0.5"], ["values", "zeta", "-399"], ["values", "beta", "399"])
        assert all(row["code"] == 0 for row in rows)
        assert "opzeta.operators" not in rows[-1]["loaded"], rows[-1]["loaded"]

    @pytest.mark.parametrize("argv, layers", _LAYERS_LOADED, ids=[" ".join(argv) for argv, _ in _LAYERS_LOADED])
    def test_each_command_loads_exactly_its_layers(self, argv, layers):
        (row,) = _run_commands(argv)
        assert row["code"] == 0
        loaded = [m for m in row["loaded"] if m.split(".")[0] == "opzeta"]
        assert loaded == sorted(["opzeta", "opzeta.cli", "opzeta.errors", *(f"opzeta.{layer}" for layer in layers.split())])

    def test_first_numeric_value_after_the_exact_paths(self):
        # mpmath is imported on the first numeric call, after every exact
        # command ran without it, and prints the bytes of a fresh process
        *exact, numeric = _run_commands(*_EXACT_COMMANDS, ["values", "zeta", "0.5"])
        assert all(row["code"] == 0 and "mpmath" not in row["loaded"] for row in exact)
        assert numeric["code"] == 0 and "mpmath" in numeric["loaded"]
        assert numeric["out"] == _child("-m", "opzeta", "values", "zeta", "0.5")

    def test_number_values_load_no_dataclasses_or_csv(self):
        # started with -S, so that no module `site` imports is counted: no
        # module of the package imports dataclasses, csv is imported by the
        # --format csv branch of the writer only and json by its --format json
        # branch only
        code = (
            "import io, sys\n"
            "import opzeta.cli as cli\n"
            "assert cli.main(['values', 'bernoulli', '400'], out=io.StringIO()) == 0\n"
            "print(sorted({'dataclasses', 'inspect', 'csv', 'json'} & set(sys.modules)))\n"
            "assert cli.main(['values', 'bernoulli', '400', '--format', 'json'], out=io.StringIO()) == 0\n"
            "print(sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules)))"
        )
        assert _child("-S", "-c", code).split() == ["[]", "[]"]

    def test_registry_and_exact_commands_load_no_dataclasses(self):
        # started with -S, as above: the records of every layer are NamedTuples
        # or plain classes, so neither dataclasses nor the inspect it imports
        # loads, after the registry nor after any exact command
        code = (
            "import io, json, sys\n"
            "import opzeta\n"
            "opzeta.load_registry()\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
            "import opzeta.cli as cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.main(argv, out=io.StringIO()) == 0, argv\n"
            "    print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        )
        assert _child("-S", "-c", code, json.dumps(_EXACT_COMMANDS)).split() == ["[]"] * (1 + len(_EXACT_COMMANDS))


class TestLazyPublicNames:
    def test_names_are_their_layers_objects(self):
        for name in opzeta.__all__:
            if name == "__version__":
                continue
            obj = getattr(opzeta, name)
            assert obj.__module__.startswith("opzeta."), name
            assert getattr(sys.modules[obj.__module__], name) is obj, name

    def test_dir_and_star_import(self):
        assert set(opzeta.__all__) <= set(dir(opzeta))
        namespace: dict = {}
        exec("from opzeta import *", namespace)
        assert all(namespace[name] is getattr(opzeta, name) for name in opzeta.__all__)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            opzeta.no_such_name  # noqa: B018
        assert not hasattr(opzeta, "zeta")

    def test_import_loads_only_errors(self):
        code = "import sys, opzeta\nprint(sorted(m for m in sys.modules if m.split('.')[0] in ('opzeta', 'mpmath', 'numpy')))"
        assert _child("-c", code).strip() == "['opzeta', 'opzeta.errors']"


def test_refused_trig_atom_loads_no_series():
    # apply_operator refuses a trig atom under 1/Gamma and at a non-integer
    # shift, and neither refusal loads series: the engine imports none
    code = (
        "import sys\n"
        "from opzeta.errors import UnsupportedExpression\n"
        "from opzeta.operators import DilationShift, Expression, apply_operator\n"
        "for op in (DilationShift('recip_gamma', 0), DilationShift('zeta', '1/2')):\n"
        "    try:\n"
        "        apply_operator(op, Expression.from_trig('sin'))\n"
        "    except UnsupportedExpression:\n"
        "        print('opzeta.series' in sys.modules)"
    )
    assert _child("-c", code).split() == ["False", "False"]


def test_first_mpmath_use_under_threads():
    # 4 threads make their first numeric calls at once: they race only on the
    # first import of mpmath (and the kernels' tables of libmp operations it
    # builds) and on the memo of logarithms; every result must equal the
    # serial one
    code = """
import sys, threading
from concurrent.futures import ThreadPoolExecutor
from opzeta.specfun import dirichlet_beta, zeta_em
assert "mpmath" not in sys.modules
calls = [(zeta_em, 0.5), (dirichlet_beta, 0.25), (zeta_em, -3.5), (dirichlet_beta, 2.5)]
start = threading.Barrier(len(calls))
def run(call):
    start.wait(timeout=60)
    f, s = call
    return f(s)
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    with ThreadPoolExecutor(max_workers=len(calls)) as pool:
        threaded = list(pool.map(run, calls, timeout=60))
finally:
    sys.setswitchinterval(interval)
serial = [f(s) for f, s in calls]
print(threaded == serial, "mpmath" in sys.modules)
"""
    assert _child("-c", code).strip() == "True True"
