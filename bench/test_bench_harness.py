"""Tests of the benchmark harness itself, so that it cannot rot unnoticed."""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import reference
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_runs_every_workload_with_checks():
    p = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--smoke", "--seed", "3"],
                       capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert p.returncode == 0, p.stderr[-2000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] == 2 * run.SMOKE_OPS * len(workloads.WORKLOADS)
    for name in run.PREDICTED_TOP:
        assert f"{name} seed=3: {run.SMOKE_OPS} ops" in p.stdout
    for metric in [*run.END_TO_END, *run.PER_LAYER]:
        assert f"  {metric} " in p.stdout


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.PREDICTED_TOP)


def test_exact_tables_agree_with_akiyama_tanigawa_and_known_values():
    tables = reference.ExactTables(80)
    assert tables.bernoulli[:81] == reference.akiyama_tanigawa(80)
    assert tables.bernoulli[1] == Fraction(-1, 2)
    assert tables.bernoulli[12] == Fraction(-691, 2730)
    assert tables.euler[:11] == [1, 0, -1, 0, 5, 0, -61, 0, 1385, 0, -50521]
    assert tables.zeta_exact(-1) == ("exact", Fraction(-1, 12))
    assert tables.zeta_exact(-2) == ("exact", Fraction(0))
    assert tables.zeta_exact(1) == ("pole", None)
    assert tables.zeta_exact(3) is None
    assert tables.beta_exact(-2) == ("exact", Fraction(-1, 2))
    assert reference.pi_term(*tables.zeta_exact(2)[1]) == "1/6*pi^2"
    assert reference.pi_term(*tables.beta_exact(1)[1]) == "1/4*pi"
    assert abs(reference.pi_term_value(*tables.beta_exact(3)[1]) - reference.beta_value(3)) < 1e-15


def _ops(name, seed, blocks=2):
    plan = workloads.build(name, random.Random(seed), ROOT)
    return [op.argv for block in [next(plan) for _ in range(blocks)] for op in block]


def test_plans_repeat_per_seed_and_differ_between_seeds():
    for name in workloads.WORKLOADS:
        assert _ops(name, 5) == _ops(name, 5)
        assert _ops(name, 5) != _ops(name, 6)


def test_stratified_draws_cover_every_stratum():
    u = workloads.strata(random.Random(1), 16)
    assert sorted(int(x * 16) for x in u) == list(range(16))


def test_cold_values_arguments_need_a_recurrence():
    for kind, lo in (("bernoulli", 0), ("euler", 0), ("zeta", -400), ("beta", -400)):
        runs = workloads.RECURRENCE[kind]
        values = workloads._recurrence_strata(random.Random(2), 16, lo, 400, runs)
        assert all(runs(v) and lo <= v <= 400 for v in values)
        plain = workloads._int_strata(random.Random(2), 16, lo, 400)
        assert all(abs(v - p) <= 1 for v, p in zip(values, plain))
    tables = reference.ExactTables(12)
    assert [n for n in range(12) if tables.bernoulli[n] and n > 1] == [n for n in range(2, 12)
                                                                          if workloads.RECURRENCE["bernoulli"](n)]
    assert [n for n in range(12) if tables.euler[n]] == [n for n in range(12) if workloads.RECURRENCE["euler"](n)]
    assert not any(workloads.RECURRENCE["zeta"](-2 * k) for k in range(1, 6))  # the trivial zeros


def test_checks_reject_wrong_outputs():
    tables = reference.ExactTables(20)
    op = workloads._values_op("zeta", ["-3", "0.500"], {t: workloads._value_ref("zeta", t, tables)
                                                      for t in ("-3", "0.500")})
    row = {"argument": "-3", "value": 1 / 120, "exact": "1/120", "method": "exact", "abs_error": 0.0}
    good = {"argument": "0.500", "value": reference.zeta_value(0.5), "exact": "",
            "method": "euler_maclaurin", "abs_error": 1e-15}
    assert op.check(json.dumps({"kind": "zeta", "rows": [row, good]}), []) is None
    off = dict(good, value=good["value"] + 1e-12)
    assert op.check(json.dumps({"kind": "zeta", "rows": [row, off]}), [])
    assert op.check(json.dumps({"kind": "zeta", "rows": [dict(row, exact="1/12"), good]}), [])
    assert workloads.check_apply("1 0/1\n2 1/1\n3 0/1\n4 1/2\n", [], size=4, n=2) is None
    assert workloads.check_apply("1 0/1\n2 1/2\n3 0/1\n4 1/2\n", [], size=4, n=2)
    assert workloads.check_apply("1 0/1\n2 1/1\n3 0/1\n", [], size=4, n=2)
    assert workloads.check_triplets("1 1 1 1\n", [], size=2, nnz=3)
    report = {"id": "eq2", "pass": False, "max_abs_deviation": 0.0, "rows": []}
    assert workloads.check_verify(json.dumps(report), [], rid="eq2", tol=1e-6, grid=None)


def test_tracer_counts_recursion_once():
    tracer = spans.Tracer()

    def fact(n):
        time.sleep(0.001)
        return 1 if n == 0 else n * traced(n - 1)

    traced = tracer._wrap("exactnum.fact", fact)
    assert traced(4) == 24
    calls, outer_calls, outer_s, self_s = tracer.summary()["functions"]["exactnum.fact"]
    assert (calls, outer_calls) == (5, 1)
    assert abs(self_s - outer_s) < 1e-9  # self times tile the outermost span
