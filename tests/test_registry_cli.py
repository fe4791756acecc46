import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import mpmath
import pytest

from opzeta import registry
from opzeta.cli import main, write_result
from opzeta.errors import PrecisionLoss
from opzeta.pipoly import PiPolynomial, PiXPolynomial, clausen_closed_form
from opzeta.registry import (
    get_identity,
    load_registry,
    parse_pi_coefficient,
    registry_version,
)

SPEC_IDS = {
    "eq1", "eq2", "eq5", "eq6", "eq10", "eq17", "eq18", "eq19",
    "eq21_sin", "sec4_cos", "beta_sin_s0", "beta_cos_s0", "beta_sin_s1",
    "eq3_1", "eq3_2", "eq3_3", "eq4_1", "eq4_2", "eq4_3",
}


def run_cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


class TestRegistry:
    def test_all_ids_present(self):
        assert SPEC_IDS <= set(load_registry())

    def test_version(self):
        assert registry_version() == 2

    def test_the_header_lists_every_key(self):
        # the keys the load takes are those the data file's header documents
        with open(registry._DATA_FILE, encoding="utf-8") as f:
            header = f.read().split("[meta]")[0]
        assert set(re.findall(r"^#   (\w+) ", header, re.M)) == registry._KEYS

    def test_coefficient_parser(self):
        assert parse_pi_coefficient("-1/2") == PiPolynomial([Fraction(-1, 2)])
        assert parse_pi_coefficient("1/6*pi^2") == PiPolynomial.pi_power(Fraction(1, 6), 2)
        assert parse_pi_coefficient("1/2*pi") == PiPolynomial.pi_power(Fraction(1, 2), 1)
        assert parse_pi_coefficient("0").is_zero()
        with pytest.raises(ValueError):
            parse_pi_coefficient("pi^2/6")

    def test_domains_verbatim(self):
        reg = load_registry()
        eq1 = reg["eq1"].domain
        assert eq1.lo_open and not eq1.hi_open
        assert eq1.hi == pytest.approx(math.pi, abs=1e-5)
        eq2 = reg["eq2"].domain
        assert not eq2.lo_open and not eq2.hi_open
        eq6 = reg["eq6"].domain
        assert eq6.lo_open and eq6.hi_open
        assert eq6.hi == pytest.approx(2 * math.pi, abs=1e-5)

    def test_literals_regenerate_from_bernoulli_rescaling(self):
        # data-file polynomials must equal the generated closed forms exactly
        reg = load_registry()
        pairs = {
            "eq2": ("sin", 1), "eq4_1": ("sin", 1), "eq10": ("sin", 1),
            "eq3_1": ("cos", 1), "eq18": ("cos", 1),
            "eq3_2": ("cos", 2), "eq3_3": ("cos", 3),
            "eq4_2": ("sin", 2), "eq19": ("sin", 2), "eq4_3": ("sin", 3),
        }
        for ident, (parity, m) in pairs.items():
            assert reg[ident].rhs_poly == clausen_closed_form(parity, m), ident

    def test_eq17_rhs(self):
        assert get_identity("eq17").rhs_poly == PiXPolynomial([0, Fraction(-1, 2)])

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            get_identity("eq999")

    def test_series_forms_attached(self):
        reg = load_registry()
        assert reg["eq2"].series.exponent == 1
        assert reg["beta_cos_s0"].series.character == "beta"
        assert reg["eq5"].verify_mode == "geometric" and reg["eq5"].series is None

    def test_each_route_gets_its_exponents(self):
        # the Abel closed form covers exponents <= 1 and the accelerated sum exponents >= 1
        reg = load_registry()
        abel = [rec.series.exponent for rec in reg.values() if rec.verify_mode == "abel"]
        summed = [rec.series.exponent for rec in reg.values() if rec.verify_mode == "sum"]
        assert abel and summed
        assert max(abel) <= 1 <= min(summed), (abel, summed)

    BLOCK = """[meta]
version = 2

[odd_one]
summary = sum_n sin(n x) = sin x / (2 (1 - cos x)) (Abel)
lhs = series parity=sin exponent=0 character=trivial
rhs_closed = sin_over_one_minus_cos
domain = (0, pi]
verify_mode = abel
default_grid = 0.1:3:5
default_tol = 1e-6
"""

    BAD_LINES = [
        ("verify_mode = pointwise", "[odd_one] unknown verify mode 'pointwise'"),
        ("rhs_closed = cot_half", "[odd_one] unknown closed form 'cot_half'"),
        ("rhs_taylor = tan_series", "[odd_one] unknown Taylor generator 'tan_series'"),
        ("lhs = operator gamma shift=1 trig=sin", "[odd_one] unknown operator kind 'gamma'"),
        ("lhs = operator recip_gamma shift=1 trig=sin", "[odd_one] unknown operator kind 'recip_gamma'"),
        ("rhs_poly = 1/2*pi; pi^2/6", "[odd_one] bad coefficient literal 'pi^2/6'"),
        ("lhs = operator zeta shift=1/2 trig=sin", "[odd_one] shift must be an integer, got '1/2'"),
        ("gamma_shift = 1/2", "[odd_one] gamma_shift must be an integer, got '1/2'"),
        ("extra_check = geometric_realpart", "[odd_one] unknown extra check 'geometric_realpart'"),
        ("lhs = geometric", "[odd_one] verify mode 'abel' does not take the left side 'geometric'"),
        ("verify_mode = geometric",
         "[odd_one] verify mode 'geometric' does not take the left side 'series parity=sin exponent=0 character=trivial'"),
        ("rhs_closed =", "[odd_one] verify mode 'abel' needs rhs_poly or rhs_closed"),
        # only the exact route applies a gamma_shift, and only to a zeta operator's Clausen form
        ("lhs = operator zeta shift=0 trig=sin\ngamma_shift = 0",
         "[odd_one] gamma_shift applies only to a zeta operator left side in verify mode 'exact'"),
        ("lhs = operator beta shift=0 trig=sin\nverify_mode = exact\ngamma_shift = 0",
         "[odd_one] gamma_shift applies only to a zeta operator left side in verify mode 'exact'"),
        ("extract = yes",
         "[odd_one] extract must be 'no' (yes for an operator left side with rhs_poly or rhs_taylor), got 'yes'"),
        ("lhs = operator zeta shift=0 trig=sin\nrhs_taylor = cot_half_regular\nextract = no",
         "[odd_one] extract must be 'yes' (yes for an operator left side with rhs_poly or rhs_taylor), got 'no'"),
        # exact mode compares polynomials: a series left side, or an operator with a closed form alone, has none
        ("verify_mode = exact", "[odd_one] verify mode 'exact' needs an operator left side with rhs_poly or rhs_taylor"),
        ("lhs = operator zeta shift=0 trig=sin\nverify_mode = exact",
         "[odd_one] verify mode 'exact' needs an operator left side with rhs_poly or rhs_taylor"),
        # the load takes only the header's keys: a stale or misspelt key refuses the block
        ("anomaly_parity = odd", "[odd_one] unknown key 'anomaly_parity'"),
        ("expected_evnt = anomaly_missing", "[odd_one] unknown key 'expected_evnt'"),
        ("expected_event = anomaly_mising",
         "[odd_one] expected_event must be one of ('anomaly_missing', 'annihilated_constant'), got 'anomaly_mising'"),
    ]

    @classmethod
    def altered(cls, lines: str) -> str:
        """BLOCK with each line of `lines` in place of the line of its key; a
        key with no value drops that line."""
        text = cls.BLOCK
        for line in lines.splitlines():
            key, value = (part.strip() for part in line.split("=", 1))
            kept = "".join(row for row in text.splitlines(keepends=True) if not row.startswith(key))
            text = kept + line + "\n" if value else kept
        return text

    @pytest.mark.parametrize("line, message", BAD_LINES)
    def test_a_bad_block_is_named(self, line, message):
        version, records = registry._parse(self.BLOCK)
        assert version == 2 and records["odd_one"].verify_mode == "abel"
        with pytest.raises(ValueError) as info:
            registry._parse(self.altered(line))
        assert str(info.value) == message

    @pytest.mark.parametrize("version", [1, 7])
    def test_another_version_is_refused(self, version):
        # the rules of another version may differ: the load refuses the block
        # and the data file alike, naming both versions
        with open(registry._DATA_FILE, encoding="utf-8") as f:
            data = f.read()
        for text in (self.BLOCK, data):
            with pytest.raises(ValueError) as info:
                registry._parse(text.replace("version = 2", f"version = {version}", 1))
            assert str(info.value) == f"[meta] version {version}: this code reads version 2"

    def test_the_load_checks_without_the_engine(self):
        # in a fresh interpreter, the parse rejects each bad block by the
        # registry's own name sets, and no engine layer loads
        code = (
            "import json, sys\n"
            "from opzeta import registry\n"
            "for text in json.loads(sys.argv[1]):\n"
            "    try:\n"
            "        registry._parse(text)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('opzeta'))))"
        )
        texts = [self.altered(line) for line, _ in self.BAD_LINES]
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(texts)], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0, proc.stderr
        *messages, loaded = proc.stdout.splitlines()
        assert messages == [message for _, message in self.BAD_LINES]
        assert loaded == "opzeta opzeta.errors opzeta.registry"

    def test_each_engine_form_is_the_one_its_fields_give(self):
        # each read builds the form its fields give
        from opzeta.operators import DilationShift
        from opzeta.series import TrigSeries

        rec = get_identity("eq3_2")
        assert (rec.op, rec.series) == (DilationShift("zeta", 4), TrigSeries("cos", 4, "trivial"))
        assert rec.rhs_poly == get_identity("eq3_2").exact_rhs(12)
        altered = rec._replace(kind="beta", shift=2, character="beta", rhs_literal="0; 1/2")
        assert (altered.op, altered.series) == (DilationShift("beta", 2), TrigSeries("cos", 2, "beta"))
        assert altered.rhs_poly == PiXPolynomial([0, Fraction(1, 2)])
        assert get_identity("eq5").op is get_identity("eq5").series is get_identity("eq5").rhs_poly is None


class TestVerifyCommand:
    def test_negative_grid_start(self):
        # a grid that starts below 0 is an argument of --grid, not an option
        code, out = run_cli("verify", "beta_sin_s1", "--grid", "-1.4:1.4:3")
        assert code == 0
        assert (code, out) == run_cli("verify", "beta_sin_s1", "--grid=-1.4:1.4:3")
        assert out.count("x=") == 3 and "x=-1.400000" in out

    def test_eq2_passes(self):
        code, out = run_cli("verify", "eq2", "--grid", "0.1:3.1:50", "--tol", "1e-6")
        assert code == 0
        assert "PASS" in out

    def test_eq6_passes(self):
        code, out = run_cli("verify", "eq6", "--grid", "0.1:6.1:50", "--tol", "1e-6")
        assert code == 0

    def test_outside_domain_is_usage_error(self):
        code, _ = run_cli("verify", "eq2", "--grid=-1:0:5")
        assert code == 2

    def test_unknown_id_is_usage_error(self, capsys):
        # the message as the KeyError was raised with, not the KeyError's repr-quoted str
        assert run_cli("verify", "nope") == (2, "")
        assert capsys.readouterr().err == "unknown identity id 'nope'; see `opzeta list`\n"

    def test_impossible_tolerance_fails(self):
        code, out = run_cli("verify", "eq2", "--tol", "1e-30")
        assert code == 1
        assert "FAIL" in out

    def test_exact_mode_eq18(self):
        code, out = run_cli("verify", "eq18", "--exact")
        assert code == 0
        assert "anomaly_missing" in out

    @staticmethod
    def verify_altered_eq2(monkeypatch, **change):
        import opzeta.registry

        altered = get_identity("eq2")._replace(verify_mode="exact", **change)
        monkeypatch.setattr(opzeta.registry, "get_identity", lambda identity_id: altered)
        return run_cli("verify", "eq2")

    def test_exact_route_fails_an_anomaly_the_record_does_not_name(self, monkeypatch):
        # the flow misses eq2's pi/2, and the record's right side leaves it out
        code, out = self.verify_altered_eq2(monkeypatch, rhs_literal="0; -1/2")
        assert code == 1 and "FAIL" in out

    def test_exact_route_fails_an_event_the_record_does_not_state(self, monkeypatch):
        code, out = self.verify_altered_eq2(monkeypatch, expected_event=None)
        assert code == 1 and "events: anomaly_missing" in out and "FAIL" in out

    @pytest.mark.parametrize("ident", ["eq2", "eq3_1", "eq3_2", "eq3_3", "eq4_1", "eq4_2", "eq4_3", "eq10", "eq18", "eq19"])
    def test_exact_route_fails_a_scaled_anomaly_coefficient(self, monkeypatch, ident):
        # the branch term sits at degree shift - 1; 2/3 of it on the right side must fail
        rec = get_identity(ident)
        assert run_cli("verify", ident, "--exact")[0] == 0
        tokens = rec.rhs_literal.split(";")
        q, k = registry._coefficient(tokens[rec.shift - 1])
        assert q and k == 1
        tokens[rec.shift - 1] = f"{q * Fraction(2, 3)}*pi"
        altered = rec._replace(rhs_literal=";".join(tokens))
        monkeypatch.setattr(registry, "get_identity", lambda identity_id: altered)
        code, out = run_cli("verify", ident, "--exact")
        assert code == 1 and "FAIL" in out

    def test_anomalous_record_without_exact_rhs_is_a_usage_error(self, monkeypatch, capsys):
        code, _ = self.verify_altered_eq2(monkeypatch, rhs_literal=None, rhs_closed="half_sec")
        assert code == 2 and "no exact right side" in capsys.readouterr().err

    def test_exact_identities_default_to_exact(self):
        for ident in ("eq17", "eq21_sin"):
            code, out = run_cli("verify", ident)
            assert code == 0, ident

    def test_eq17_reports_annihilation(self):
        code, out = run_cli("verify", "eq17")
        assert code == 0
        assert "annihilated_constant" in out

    def test_json_schema(self):
        code, out = run_cli("verify", "eq6", "--grid", "1.0:2.0:5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["id"] == "eq6"
        assert payload["pass"] is True
        for row in payload["rows"]:
            assert set(row) == {"id", "x", "lhs", "rhs", "deviation", "method"}

    def test_csv_format(self):
        code, out = run_cli("verify", "eq6", "--grid", "1.0:2.0:5", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "id,x,lhs,rhs,deviation,method"
        assert len(lines) == 6

    def test_deterministic_output(self):
        a = run_cli("verify", "eq6", "--grid", "0.5:5.5:20", "--format", "json")
        b = run_cli("verify", "eq6", "--grid", "0.5:5.5:20", "--format", "json")
        assert a == b

    @pytest.mark.parametrize("argv", [
        ("eq17", "--grid", "0.1:3.1:5"),
        ("eq21_sin", "--grid", "0.1:3.1:5"),
        ("eq2", "--exact", "--grid", "0.1:3.1:5"),
        ("eq18", "--exact", "--grid", "0.1:6.1:5"),
    ])
    def test_exact_route_rejects_grid(self, argv, capsys):
        code, out = run_cli("verify", *argv)
        assert code == 2 and out == ""
        assert "takes no --grid" in capsys.readouterr().err

    @pytest.mark.parametrize("ident", ["eq2", "eq6", "eq17"])
    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "-inf"])
    def test_tolerance_must_be_finite_and_positive(self, ident, tol, capsys):
        # 0 and -1 used to raise tracebacks from the tail sizing; nan and inf
        # gave a FAIL or PASS that checked nothing
        code, out = run_cli("verify", ident, f"--tol={tol}")
        assert code == 2 and out == ""
        assert "--tol must be a finite number > 0" in capsys.readouterr().err

    def test_grid_steps_are_bounded(self, capsys):
        # 10^8 steps used to build a list of 10^8 floats and run for hours
        start = time.perf_counter()
        code, out = run_cli("verify", "eq2", "--grid", "0.1:3:100000000")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "grid steps must lie in [1, 10000]" in capsys.readouterr().err

    def test_grid_head_terms_are_bounded(self, capsys):
        # every point sums a capped head of 4*10^5 terms: 10^4 steps used to
        # run for about 150 s
        start = time.perf_counter()
        code, out = run_cli("verify", "eq4_2", "--grid", "1e-4:2e-4:10000")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "above the bound 20000000" in capsys.readouterr().err

    def test_tiny_x_is_an_error_not_a_report(self, capsys):
        # the head is capped there, so the sum was noise: lhs=+2.4999e+03 and FAIL
        code, out = run_cli("verify", "eq2", "--grid", "1e-9:1e-8:3")
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith("verification error:")

    def test_tiny_x_grid_above_the_head_terms_bound_is_a_usage_error(self, capsys):
        # 100 capped heads of 4*10^5 terms: the bound is checked before the
        # tails, so the grid is refused rather than failing at its first tail
        start = time.perf_counter()
        code, out = run_cli("verify", "eq2", "--grid", "1e-9:1e-8:100")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "the heads of the grid add up to 40000000 terms, above the bound 20000000" in capsys.readouterr().err

    def test_endpoint_check_comes_before_an_earlier_tiny_x(self, capsys):
        # x = 1e-9 alone is a tail that does not converge; x = 0 is reported first
        code, out = run_cli("verify", "eq4_2", "--grid", "1e-9:0:2")
        assert code == 1 and out == ""
        assert capsys.readouterr().err == "verification error: x = 0 mod 2*pi at x=0.0\n"

    def test_text_x_of_a_tiny_grid_is_not_zero(self):
        # at |x| < 1e-3 a fixed-point x printed every row as x=0.000000
        _, out = run_cli("verify", "sec4_cos", "--grid", "1e-8:1e-7:3")
        xs = [line.split()[0] for line in out.splitlines()[1:4]]
        assert xs == ["x=1.000000e-08", "x=5.500000e-08", "x=1.000000e-07"]

    def test_text_x_of_a_rounded_midpoint(self):
        # the grid's midpoint is -2.2e-16, not zero, and printed as x=-0.000000
        code, out = run_cli("verify", "beta_sin_s1", "--grid", "-1.4:1.4:7")
        assert code == 0
        xs = [line.split()[0] for line in out.splitlines()[1:8]]
        assert xs[3] == "x=-2.220446e-16"
        assert xs[:3] + xs[4:] == ["x=-1.400000", "x=-0.933333", "x=-0.466667", "x=0.466667", "x=0.933333", "x=1.400000"]

    def test_text_x_at_zero_and_without_x(self):
        _, out = run_cli("verify", "beta_sin_s1", "--grid", "0:1:2")
        assert out.splitlines()[1].split()[0] == "x=0.000000"
        _, out = run_cli("verify", "eq17")
        assert out.splitlines()[1].split()[0] == "x=-"

    def test_eq5_geometric_mode(self):
        code, out = run_cli("verify", "eq5", "--grid", "0.3:6.0:20")
        assert code == 0

    def test_every_default_profile_passes(self):
        # every registry identity ships a passing default verification profile
        for ident in load_registry():
            code, out = run_cli("verify", ident)
            assert code == 0, f"{ident} default profile failed:\n{out}"


class TestValuesCommand:
    def test_zeta_zero_exact(self):
        code, out = run_cli("values", "zeta", "0")
        assert code == 0
        assert "-0.5" in out and "-1/2" in out and "exact" in out

    def test_beta_minus_two(self):
        code, out = run_cli("values", "beta", "-2")
        assert code == 0
        assert "-0.5" in out and "-1/2" in out

    def test_bernoulli_twelve(self):
        code, out = run_cli("values", "bernoulli", "12")
        assert code == 0
        assert "-691/2730" in out

    def test_euler_four(self):
        code, out = run_cli("values", "euler", "4")
        assert code == 0
        assert " 5" in out

    def test_zeta_pole_row(self):
        code, out = run_cli("values", "zeta", "1")
        assert code == 0
        assert "pole" in out

    def test_numeric_fallback(self):
        code, out = run_cli("values", "zeta", "0.5")
        assert code == 0
        assert "euler_maclaurin" in out

    def test_malformed_argument(self, capsys):
        for argv in (("zeta", "abc"), ("zeta", "inf"), ("zeta", "nan"), ("beta", "1e999"),
                     ("beta", "--", "-inf"), ("beta", "-inf"), ("bernoulli", "inf")):
            code, out = run_cli("values", *argv)
            assert code == 2 and out == "", argv
            assert "bad numeric argument" in capsys.readouterr().err, argv

    @pytest.mark.parametrize("argv", [
        ("zeta", "1e300"), ("zeta", "3000"), ("zeta", "--", "-3000.5"), ("beta", "--", "-3000.5"),
        ("beta", "-1e6"), ("bernoulli", "1e300"), ("euler", "1001"), ("zeta", "2", "1e300"),
    ])
    def test_argument_bound(self, argv, capsys):
        # past |argument| 1000 the exact values and the Euler-Maclaurin working
        # precision grow without bound; every such command exits 2 at once
        start = time.perf_counter()
        code, out = run_cli("values", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == "", argv
        assert "need |argument| <= 1000" in capsys.readouterr().err, argv

    @pytest.mark.parametrize("kind", ["zeta", "beta"])
    def test_no_finite_bound_is_an_error(self, kind, capsys):
        # below Re s = -81 no Euler-Maclaurin K <= 41 has a finite remainder
        # bound: exit 1 with a message, never a value with abs_error Infinity,
        # and no PrecisionLoss warning of a best-effort value that never comes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli("values", kind, "-100.5", "--format", "json")
        assert code == 1 and out == ""
        err = capsys.readouterr().err
        assert "values error: Euler-Maclaurin at Re s = -100.5" in err and "Traceback" not in err

    @staticmethod
    def _child(*argv) -> subprocess.CompletedProcess:
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        return subprocess.run([sys.executable, "-m", "opzeta", *argv], capture_output=True, text=True, env=env)

    def test_refused_argument_prints_only_its_error(self):
        # the refusal comes before the domain warning: stderr is the one line
        proc = self._child("values", "zeta", "-81.5")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == ("values error: Euler-Maclaurin at Re s = -81.5: no finite remainder bound "
                               "within 41 terms at Re s <= -81\n")

    def test_best_effort_value_keeps_its_one_warning(self):
        # the console prints the warning as one line, with no file name or source line
        proc = self._child("values", "beta", "-30.25")
        assert proc.returncode == 0
        assert proc.stdout == "beta values\n    -30.25      -4.28600634064e+26  [hurwitz_difference, err<=4.29e+11]\n"
        assert proc.stderr == ("warning: dirichlet_beta: s=(-30.25+0j) outside the validated domain "
                               "(Re s >= -25.0, |Im s| <= 50.0); returning best-effort value\n")

    def test_each_warning_prints_as_one_line(self):
        # two arguments outside the validated domain: one line each, and stdout as without them
        proc = self._child("values", "zeta", "-80.99999", "-30.5", "3")
        assert proc.returncode == 0
        assert proc.stdout == ("zeta values\n"
                               "  -80.99999      -4.10659999089e+55  [euler_maclaurin, err<=4.11e+55]\n"
                               "     -30.5           149774871.278  [euler_maclaurin, err<=1.50e-07]\n"
                               "         3           1.20205690316  [euler_maclaurin, err<=1.30e-15]\n")
        assert proc.stderr == "".join(f"warning: zeta_em: s=({s}+0j) outside the validated domain (Re s >= -25.0, "
                                      "|Im s| <= 50.0); returning best-effort value\n" for s in ("-80.99999", "-30.5"))

    @pytest.mark.parametrize(
        "argv, want",
        [
            # every entry of the head table but m = 1 lies below its resolution
            (("beta", "20", "998", "1000"),
             "argument,value,exact,method,abs_error\n20,0.9999999997132133,,hurwitz_difference,1.0999999997132135e-15\n"
             "998,1.0,,hurwitz_difference,1.1000000000000001e-15\n1000,1.0,,hurwitz_difference,1.1000000000000001e-15\n"),
            (("zeta", "40", "999.5", "12.001"),
             "argument,value,exact,method,abs_error\n40,1.0000000000009095,261082718496449122051/"
             "20080431172289638826798401128390556640625*pi^40,exact,0.0\n999.5,1.0,,euler_maclaurin,1.1000000000000001e-15\n"
             "12.001,1.0002459152302963,,euler_maclaurin,1.1002459152302963e-15\n"),
        ],
    )
    def test_large_positive_s_where_the_powers_underflow(self, argv, want):
        # base^-s keeps its bits from one power of its own where the table's
        # fixed point cannot hold it: the bytes the mpmath table gave
        code, out = run_cli("values", *argv, "--format", "csv")
        assert (code, out) == (0, want)

    def test_outside_validated_domain_within_bound(self):
        with pytest.warns(PrecisionLoss):
            code, out = run_cli("values", "zeta", "-60.5", "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][0]
        ctx = mpmath.MPContext()
        ctx.dps = 40
        assert abs(row["value"] - float(ctx.zeta(ctx.mpf("-60.5")))) <= row["abs_error"]

    @pytest.mark.parametrize("argv", [("zeta", "-999"), ("euler", "1000")])
    def test_exact_rows_at_the_bound_are_fast(self, argv):
        # B_1000 and E_1000 are one rounded Dirichlet series each, not a recurrence
        proc = subprocess.run(
            [sys.executable, "-m", "opzeta", "values", *argv],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0, proc.stderr
        assert "exact" in proc.stdout

    @pytest.mark.parametrize("kind", ["bernoulli", "euler"])
    def test_near_integer_index_is_usage_error(self, kind, capsys):
        # the exact route takes only an exact integer, so 3 + 1e-13 is no index
        code, out = run_cli("values", kind, "3.0000000000001")
        assert code == 2 and out == ""
        assert "needs a nonnegative integer" in capsys.readouterr().err

    def test_near_pole_is_numeric_and_an_error(self, capsys):
        # 1 + 1e-13 is no pole row: the numeric route is within 1e-13 of s = 1
        code, out = run_cli("values", "zeta", "1.0000000000001")
        assert code == 1 and out == ""
        err = capsys.readouterr().err
        assert "values error:" in err and "pole at s=1" in err

    @pytest.mark.parametrize("kind,token,reference", [
        ("zeta", "2.0000000000001", lambda ctx, s: ctx.zeta(s)),
        ("beta", "3.0000000000001", lambda ctx, s: ctx.dirichlet(s, [0, 1, 0, -1])),
    ])
    def test_near_integer_is_numeric(self, kind, token, reference):
        # zeta(2 + 1e-13) is 9.4e-14 from pi^2/6, so the exact row would be wrong
        code, out = run_cli("values", kind, token, "--format", "json")
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert row["method"] != "exact" and row["exact"] == ""
        ctx = mpmath.MPContext()
        ctx.dps = 40
        assert abs(row["value"] - reference(ctx, ctx.mpf(float(token)))) <= row["abs_error"]

    def test_negative_exponent_token(self):
        # -2.5e1 is an argument, not an option, and reads as -25
        code, out = run_cli("values", "zeta", "-2.5e1", "--format", "json")
        assert code == 0
        code, ref = run_cli("values", "zeta", "-25", "--format", "json")
        row, ref_row = json.loads(out)["rows"][0], json.loads(ref)["rows"][0]
        assert row["argument"] == "-2.5e1"
        assert {**row, "argument": "-25"} == ref_row

    @pytest.mark.parametrize("kind,args,reference", [
        ("zeta", [*range(2, 62, 2), 400], lambda ctx, k: ctx.zeta(k)),
        ("beta", [*range(1, 63, 2), 401], lambda ctx, k: ctx.dirichlet(k, [0, 1, 0, -1])),
    ])
    def test_exact_pi_rows_are_correctly_rounded(self, kind, args, reference):
        # an exact Q[pi] value prints as its correctly rounded double
        ctx = mpmath.MPContext()
        ctx.dps = 80
        code, out = run_cli("values", kind, *map(str, args), "--format", "json")
        assert code == 0
        for k, row in zip(args, json.loads(out)["rows"]):
            assert row["method"] == "exact"
            assert row["value"] == float(reference(ctx, k)), (kind, k)

    @pytest.mark.parametrize("kind,arg", [("bernoulli", "260"), ("euler", "188"), ("zeta", "-261"), ("beta", "-188")])
    def test_beyond_double_range(self, kind, arg):
        # the exact text stays, the double is null (JSON) or '-' (text)
        code, out = run_cli("values", kind, arg, "2", "--format", "json")
        assert code == 0
        big, small = json.loads(out)["rows"]
        assert big["value"] is None and big["method"] == "exact"
        assert abs(Fraction(big["exact"])) > Fraction(10) ** 308
        assert small["value"] is not None
        code, out = run_cli("values", kind, arg)
        assert code == 0
        assert out.splitlines()[1].split()[:3] == [arg, "-", "="]

    def test_bernoulli_negative_rejected(self):
        code, _ = run_cli("values", "bernoulli", "-3")
        assert code == 2

    def test_json_format(self):
        code, out = run_cli("values", "zeta", "0", "--format", "json")
        payload = json.loads(out)
        assert payload["kind"] == "zeta"
        assert payload["rows"][0]["exact"] == "-1/2"

    def test_deterministic(self):
        args = ("values", "zeta", "0.5", "-2", "3", "--format", "json")
        assert run_cli(*args) == run_cli(*args)


class TestExtractCommand:
    def test_eq17(self):
        code, out = run_cli("extract", "eq17")
        assert code == 0
        assert "zeta(0) = -1/2" in out
        assert out.count("matched") >= 6

    def test_beta_sin_s0(self):
        code, out = run_cli("extract", "beta_sin_s0")
        assert code == 0
        assert "beta(-1) = 0" in out

    def test_eq5_has_no_exact_rhs(self):
        code, _ = run_cli("extract", "eq5")
        assert code == 2

    def test_unknown(self, capsys):
        assert run_cli("extract", "nope") == (2, "")
        assert capsys.readouterr().err == "unknown identity id 'nope'; see `opzeta list`\n"

    @pytest.mark.parametrize("terms", ["0", "-2"])
    def test_no_terms_is_usage_error(self, terms, capsys):
        code, out = run_cli("extract", "eq17", "--terms", terms)
        assert code == 2 and out == ""
        assert "--terms must be >= 1" in capsys.readouterr().err

    def test_terms_bound(self, capsys):
        # past 497 terms the values matched need B_n beyond n = 1000, and the
        # run takes minutes: exit 2 before any work
        start = time.perf_counter()
        code, out = run_cli("extract", "eq21_sin", "--terms", "498")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "--terms must be >= 1 and <= 497" in capsys.readouterr().err

    def test_terms_at_the_bound_end(self):
        proc = subprocess.run(
            [sys.executable, "-m", "opzeta", "extract", "eq21_sin", "--terms", "497", "--format", "json"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads(proc.stdout)["rows"]) == 497

    def test_taylor_right_sides_take_no_bernoulli_or_euler_number(self, monkeypatch):
        # the four rhs_taylor ids: their right sides come from the trig closed
        # forms, so `matched` compares two routes, not one number with itself.
        # special_value reads the numbers: they are forbidden only while a
        # Taylor generator runs
        from opzeta import exactnum

        running = []

        def forbidden_in_a_generator(number):
            def guarded(n):
                if running:
                    raise AssertionError(f"Taylor right side asked for a Bernoulli or Euler number ({n})")
                return number(n)
            return guarded

        def tracked(generator):
            def run(terms):
                running.append(generator)
                try:
                    return generator(terms)
                finally:
                    running.pop()
            return run

        for name in ("bernoulli_number", "euler_number"):
            monkeypatch.setattr(exactnum, name, forbidden_in_a_generator(getattr(exactnum, name)))
        for name, generator in list(registry.TAYLOR_GENERATORS.items()):
            monkeypatch.setitem(registry.TAYLOR_GENERATORS, name, tracked(generator))
        for ident in ("eq21_sin", "sec4_cos", "beta_cos_s0", "beta_sin_s1"):
            code, out = run_cli("extract", ident, "--terms", "20", "--format", "json")
            rows = json.loads(out)["rows"]
            assert code == 0 and len(rows) == 20 and all(r["matched"] for r in rows), ident
        code, out = run_cli("verify", "eq21_sin", "--exact")
        assert code == 0, out

    def test_csv(self):
        code, out = run_cli("extract", "beta_cos_s0", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "argument,value,matched"


_TRICKY = 'quote " backslash \\ newline \n tab \t nul \x00 zeta \u03b6 \U0001d701 },\n      {'


class TestWriter:
    """`write_result`'s JSON is the bytes of `json.dumps(indent=2, sort_keys=True)`."""

    PAYLOADS = {
        "scalars": ({"id": "eq1", "pass": True, "tolerance": 1e-6, "max_abs_deviation": math.inf, "pole_events": []},
                    [{"id": "eq1", "x": None, "lhs": math.nan, "rhs": -math.inf, "deviation": 0.0, "method": "m"}]),
        "strings": ({"zz": _TRICKY, "aa": ["},\n      {", _TRICKY]},
                    [{_TRICKY: _TRICKY, "b": "},\n    {"}, {"c": "\n    },\n    {\n      "}]),
        "ints": ({"kind": "bernoulli"}, [{"argument": str(n), "value": n, "big": 10**40 + n, "ok": n % 2 == 0} for n in range(5)]),
        "empty rows": ({"id": "eq2", "pole_events": ["anomaly_missing", "annihilated_constant"]}, []),
        "no head": ({}, [{"a": 1}]),
        "one row": ({"rows_": [], "row": [None, False, -0.0]}, [{"value": 5e-324, "exact": "1/6"}]),
    }

    @pytest.mark.parametrize("name", PAYLOADS)
    def test_json_bytes(self, name):
        head, rows = self.PAYLOADS[name]
        out = io.StringIO()
        write_result(out, "json", head, rows, text=lambda: pytest.fail("text built for JSON"))
        assert out.getvalue() == json.dumps({**head, "rows": rows}, indent=2, sort_keys=True) + "\n"

    def test_csv_header_and_cells(self):
        rows = [{"b": 1, "a": "x,y"}, {"b": None, "a": "z"}]
        out = io.StringIO()
        write_result(out, "csv", {"id": "h"}, rows, text=lambda: pytest.fail("text built for CSV"),
               cells=lambda r: (r["b"], r["a"].upper()))
        assert out.getvalue() == 'b,a\n1,"X,Y"\n,Z\n'

    def test_text(self):
        out = io.StringIO()
        write_result(out, "text", {}, [], text=lambda: "line\n")
        assert out.getvalue() == "line\n"


class TestMatrixCommand:
    def test_triplet_count_at_six(self):
        code, out = run_cli("matrix", "--size", "6")
        assert code == 0
        assert len(out.strip().splitlines()) == 14

    def test_apply_first_column(self):
        code, out = run_cli("matrix", "--size", "4", "--apply", "1")
        assert code == 0
        assert out.splitlines() == ["1 1/1", "2 1/2", "3 1/3", "4 1/4"]

    def test_check_passes(self):
        code, out = run_cli("matrix", "--size", "32", "--check", "1")
        assert code == 0
        assert "PASS" in out

    def test_bad_sizes(self):
        assert run_cli("matrix", "--size", "0")[0] == 2
        assert run_cli("matrix", "--size", "4", "--apply", "9")[0] == 2
        assert run_cli("matrix", "--size", "4", "--check", "0")[0] == 2

    def test_export_streams_by_row(self):
        # the export is written 2^7 rows at a time, never joined whole
        # (18,189,066 characters at the size bound)
        class RecordingOut(io.StringIO):
            largest = 0

            def write(self, text):
                self.largest = max(self.largest, len(text))
                return super().write(text)

        out = RecordingOut()
        assert main(["matrix", "--size", "20000"], out=out) == 0
        assert len(out.getvalue().splitlines()) == sum(20000 // n for n in range(1, 20001))
        assert 0 < out.largest <= 64 * 1024

    def test_apply_writes_blocks_of_rows(self):
        # --apply writes the column 2^14 rows at a time, never joined whole
        class RecordingOut(io.StringIO):
            def __init__(self):
                super().__init__()
                self.rows = []

            def write(self, text):
                self.rows.append(text.count("\n"))
                return super().write(text)

        out = RecordingOut()
        assert main(["matrix", "--size", "100000", "--apply", "3"], out=out) == 0
        assert out.rows == [1 << 14] * 6 + [100000 - 6 * (1 << 14)]
        lines = out.getvalue().splitlines()
        assert lines[2] == "3 1/1" and lines[99998] == "99999 1/33333" and lines[-1] == "100000 0/1"

    def test_triplet_export_at_the_size_bound(self):
        # 1,166,750 lines, 2^7 whole rows per write; the rows that start and end
        # 2^14-row blocks, and the last, list their divisors by trial division
        picked = {16384, 16385, 98304, 98305, 100000}

        class CheckingOut(io.StringIO):
            def __init__(self):
                super().__init__()
                self.writes = self.lines = 0
                self.picked_lines = []

            def write(self, text):
                assert text.endswith("\n")
                lines = text.splitlines()
                ms = [int(line.split(" ", 1)[0]) for line in lines]
                first = 128 * self.writes + 1
                assert set(ms) == set(range(first, min(first + 128, 100001)))
                self.picked_lines += [line for m, line in zip(ms, lines) if m in picked]
                self.writes += 1
                self.lines += len(ms)
                return len(text)

        out = CheckingOut()
        assert main(["matrix", "--size", "100000"], out=out) == 0
        assert out.writes == -(-100000 // 128) and out.lines == 1_166_750
        assert out.picked_lines == [f"{m} {n} 1 {m // n}" for m in sorted(picked) for n in range(1, m + 1) if m % n == 0]

    def test_triplet_bytes_at_the_size_bound(self):
        # the md5 of the export's 18,189,066 bytes at the size bound: every
        # rewrite of the export must keep these bytes
        out = io.StringIO()
        assert main(["matrix", "--size", "100000"], out=out) == 0
        digest = hashlib.md5(out.getvalue().encode(), usedforsecurity=False).hexdigest()
        assert digest == "f514e12edbede0139a207a78c27284a9"

    @staticmethod
    def _child_maxrss_kb(*argv) -> int:
        # A child's ru_maxrss counts the memory of the process it was started
        # from, so a small interpreter starts it and reports its wait4 usage.
        starter = (
            "import os, subprocess, sys\n"
            f"proc = subprocess.Popen([sys.executable, '-m', 'opzeta', *{list(argv)!r}], stdout=subprocess.DEVNULL)\n"
            "_, status, usage = os.wait4(proc.pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", starter],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0, proc.stderr
        code, maxrss_kb = map(int, proc.stdout.split())
        assert code == 0
        return maxrss_kb  # ru_maxrss is in kilobytes on Linux

    def test_apply_peak_rss_at_the_size_bound(self):
        # one string per row, joined once, peaked at 36 MB; blocks of rows
        # keep the child within 31 MB (about 24 MB measured)
        assert self._child_maxrss_kb("matrix", "--size", "100000", "--apply", "1") <= 31 * 1024

    def test_triplet_peak_rss_at_the_size_bound(self):
        # the export holds a table of size + 1 number strings and three refs
        # per pair of a 2^14-row block: the child peaked at 22.7-23.0 MB with
        # the divisor sieve it replaced, at 31.8-32.1 MB by the hyperbola
        # split, and at 32.2-32.3 MB with the names table made by decades
        assert self._child_maxrss_kb("matrix", "--size", "100000") <= 40 * 1024

    def test_check_peak_rss_at_the_size_bound(self):
        # the check holds O(size) floats and fractions: at its bound the child
        # peaks within 2 MB of a check at size 16 (under 0.1 MB measured), a
        # relative bound that leaves the interpreter's start out of it
        small = self._child_maxrss_kb("matrix", "--size", "16", "--check", "1")
        assert self._child_maxrss_kb("matrix", "--size", "1000", "--check", "999") - small <= 2 * 1024

    def test_deterministic_export(self):
        assert run_cli("matrix", "--size", "12") == run_cli("matrix", "--size", "12")

    def test_apply_and_check_are_exclusive(self, capsys):
        # together, the check used to be dropped silently
        code, out = run_cli("matrix", "--size", "8", "--apply", "2", "--check", "2")
        assert code == 2 and out == ""
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "-inf"])
    def test_tolerance_must_be_finite_and_positive(self, tol, capsys):
        # nan and -1 used to print FAIL with exit 1, inf a PASS that checked nothing
        code, out = run_cli("matrix", "--size", "8", "--check", "2", f"--tol={tol}")
        assert code == 2 and out == ""
        assert "--tol must be a finite number > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (("--size", "100001"), "--size must lie in [1, 100000]"),
        (("--size", "10000000000"), "--size must lie in [1, 100000]"),
        (("--size", "1000000000", "--apply", "1"), "--size must lie in [1, 100000]"),
        (("--size", "1001", "--check", "1"), "--check needs --size <= 1000"),
        (("--size", "100000", "--check", "100000"), "--check needs --size <= 1000"),
    ])
    def test_sizes_are_bounded(self, argv, message, capsys):
        # --check costs O(size^2) and the export prints ~size ln(size) lines:
        # every input past the bounds exits 2 before any work
        start = time.perf_counter()
        code, out = run_cli("matrix", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert message in capsys.readouterr().err


class TestSharedParser:
    """`cli.main` parses with one parser per process and one parser per
    command, built on first use, and evaluates each identity's right side with
    one evaluator, built on its first grid."""

    ARGV = {
        "values": ["values", "zeta", "0.5", "-3", "2", "--format", "json"],
        "verify": ["verify", "beta_sin_s1", "--grid", "-1.4:1.4:7", "--format", "csv"],
        "sum": ["verify", "eq3_2", "--format", "json"],
        "poly": ["verify", "beta_sin_s0", "--grid", "0.2:1.4:9"],
        "geometric": ["verify", "eq5", "--format", "json"],
        "matrix": ["matrix", "--size", "300", "--apply", "7"],
        "usage": ["values", "zeta"],
        "leftover": ["verify", "eq2", "extra"],
    }

    def test_threads_share_the_parser(self):
        from concurrent.futures import ThreadPoolExecutor

        from opzeta import cli, cmd_verify

        expect = {name: run_cli(*argv) for name, argv in self.ARGV.items()}
        assert expect["usage"] == expect["leftover"] == (2, "")
        assert all(code == 0 for name, (code, _) in expect.items() if name not in ("usage", "leftover"))
        # the threads race to build the parsers and the evaluators
        cli._parser.cache_clear()
        cmd_verify._rhs_evaluator.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda name: [run_cli(*self.ARGV[name]) for _ in range(10)], self.ARGV))
        finally:
            sys.setswitchinterval(interval)
        for name, results in zip(self.ARGV, got):
            assert results == [expect[name]] * 10, name

    def test_usage_error_leaves_the_parser_unchanged(self, capsys):
        from opzeta.cli import COMMANDS, _parser

        valid = self.ARGV["verify"]
        _parser.cache_clear()
        fresh = run_cli(*valid)
        assert run_cli("verify", "beta_sin_s1", "--grid", "1:2") == (2, "")
        first_error = capsys.readouterr().err
        assert "grid must be a:b:steps" in first_error
        assert run_cli(*valid) == fresh
        assert run_cli("verify", "beta_sin_s1", "--grid", "1:2") == (2, "")
        assert capsys.readouterr().err == first_error
        assert _parser(None) is _parser(None) and _parser("verify") is _parser("verify")
        assert set(COMMANDS) == {"verify", "values", "extract", "matrix", "list"}
        assert all(_parser(name).prog == f"opzeta {name}" for name in COMMANDS)

    def test_one_evaluator_per_identity(self, monkeypatch):
        from opzeta import cmd_verify, pipoly

        built = []
        evaluator = pipoly.pipoly_evaluator  # cmd_verify imports it from pipoly on use
        monkeypatch.setattr(pipoly, "pipoly_evaluator", lambda p: built.append(p) or evaluator(p))
        cmd_verify._rhs_evaluator.cache_clear()
        try:
            for argv in (self.ARGV["sum"], self.ARGV["sum"], ["verify", "eq3_2", "--grid", "1:2:3"], self.ARGV["poly"]):
                assert run_cli(*argv)[0] == 0
        finally:
            cmd_verify._rhs_evaluator.cache_clear()  # drop the evaluators built under the patch
        assert built == [get_identity("eq3_2").rhs_poly, get_identity("beta_sin_s0").rhs_poly]


def two_level_main(argv, out) -> int:
    """`cli.main` as it parsed before each command read its own arguments:
    the top-level parser, which hands them to the command's parser."""
    from opzeta.cli import _parser
    from opzeta.errors import OpzetaError

    try:
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


class TestOnePassParse:
    """`cli.main`, which parses a command's arguments with that command's own
    parser, against the two-level path: the same exit code, output, and
    stdout and stderr bytes on every argv."""

    CORPUS = [
        ["-h"], ["--help"], [], ["bogus"], ["bogus", "eq2"], ["-x"], ["--format", "json"],
        ["verify", "-h"], ["values", "--help"], ["extract", "-h"], ["matrix", "-h"], ["list", "-h"],
        ["verify", "eq2", "-h", "extra"],
        ["verify"], ["verify", "eq2", "extra"], ["verify", "eq2", "extra", "more", "--format", "json"],
        ["verify", "eq2", "--bogus"], ["verify", "eq2", "--", "x"], ["list", "extra"],
        ["verify", "eq2", "--format", "json"], ["verify", "eq2", "--format=csv"], ["verify", "eq2", "--form", "json"],
        ["verify", "eq2", "--format", "xml"], ["verify", "eq2", "--grid=0.1:3:5"], ["verify", "eq2", "--grid", "0.1:3:5"],
        ["verify", "beta_sin_s1", "--grid", "-1.4:1.4:3"], ["verify", "eq2", "--grid", "1:2"], ["verify", "eq2", "--grid"],
        ["verify", "eq2", "--grid=-1:0:5"], ["verify", "eq2", "--grid", "0.1:3:100000000"],
        ["verify", "eq2", "--tol", "-1"], ["verify", "eq2", "--tol=-1"], ["verify", "eq2", "--tol", "abc"],
        ["verify", "eq2", "--tol", "1e-30"], ["verify", "eq6", "--tol=nan"], ["verify", "eq17", "--tol=0"],
        ["verify", "nope"], ["verify", "eq17", "--grid", "0.1:3.1:5"], ["verify", "eq2", "--exact", "--grid", "0.1:3.1:5"],
        ["verify", "eq2", "--grid", "1e-9:1e-8:3"], ["verify", "eq2", "--grid", "1e-9:1e-8:100"],
        ["verify", "eq4_2", "--grid", "1e-4:2e-4:10000"], ["verify", "eq17"], ["verify", "eq5", "--format", "csv"],
        ["values", "zeta", "-3", "-2.5"], ["values", "zeta", "-2.5e1", "--format", "json"], ["values", "zeta"],
        ["values", "gamma", "1"], ["values", "zeta", "abc"], ["values", "beta", "--", "-inf"], ["values", "beta", "-1e6"],
        ["values", "zeta", "1e300"], ["values", "euler", "1001"], ["values", "bernoulli", "-3"],
        ["values", "bernoulli", "3.0000000000001"], ["values", "zeta", "1.0000000000001"], ["values", "zeta", "1", "--format", "csv"],
        ["extract", "eq17"], ["extract", "eq5"], ["extract", "nope"], ["extract", "eq17", "--terms", "0"],
        ["extract", "eq17", "--terms=-2"], ["extract", "eq21_sin", "--terms", "498"], ["extract", "eq17", "--terms", "x"],
        ["matrix"], ["matrix", "--size", "0"], ["matrix", "--size", "4", "--apply", "9"], ["matrix", "--size", "4", "--check", "0"],
        ["matrix", "--size", "8", "--apply", "2", "--check", "2"], ["matrix", "--size", "8", "--check", "2", "--tol=nan"],
        ["matrix", "--size", "100001"], ["matrix", "--size", "1001", "--check", "1"], ["matrix", "--size", "12"],
        ["list"],
        ["verify", "eq21_sin", "--grid", "0.1:3.1:5"], ["verify", "eq18", "--exact", "--grid", "0.1:6.1:5"],
        *(["verify", ident, f"--tol={tol}"] for ident in ("eq2", "eq6", "eq17") for tol in ("0", "-1", "nan", "inf", "-inf")),
        *(["values", *argv] for argv in (("zeta", "inf"), ("zeta", "nan"), ("beta", "1e999"), ("beta", "-inf"),
                                         ("bernoulli", "inf"), ("zeta", "3000"), ("zeta", "--", "-3000.5"),
                                         ("beta", "--", "-3000.5"), ("bernoulli", "1e300"), ("zeta", "2", "1e300"),
                                         ("euler", "3.0000000000001"), ("zeta", "-100.5", "--format", "json"))),
        ["extract", "eq17", "--terms", "-2"],
        *(["matrix", "--size", "8", "--check", "2", f"--tol={tol}"] for tol in ("0", "-1", "inf", "-inf")),
        ["matrix", "--size", "10000000000"], ["matrix", "--size", "1000000000", "--apply", "1"],
        ["matrix", "--size", "100000", "--check", "100000"],
    ]

    @staticmethod
    def run(main_fn, argv, capsys):
        out = io.StringIO()
        code = main_fn(list(argv), out)
        captured = capsys.readouterr()
        return code, out.getvalue(), captured.out, captured.err

    @pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
    def test_same_bytes_as_the_two_level_path(self, argv, capsys):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = self.run(two_level_main, argv, capsys)
            got = self.run(lambda a, out: main(a, out=out), argv, capsys)
        assert got == want
        assert want[0] != 2 or want[1] == ""  # a usage error writes nothing to out


class TestListCommand:
    def test_lists_all_ids(self):
        code, out = run_cli("list")
        assert code == 0
        for ident in SPEC_IDS:
            assert ident in out


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        # the child gets this process's import path, so it runs the same opzeta
        proc = subprocess.run(
            [sys.executable, "-m", "opzeta", "values", "zeta", "0"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0
        assert "-1/2" in proc.stdout

    @pytest.mark.parametrize("argv,line", [
        (("matrix", "--size", "100000"), b"1 1 1 1\n"),
        (("matrix", "--size", "100000", "--apply", "7"), b"1 0/1\n"),
    ])
    def test_closed_pipe_exits_1_without_a_traceback(self, argv, line):
        # `opzeta matrix --size 100000 | head -1`: the reader takes one line and
        # closes the pipe while megabytes are still to come
        proc = subprocess.Popen(
            [sys.executable, "-m", "opzeta", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.stdout.readline() == line
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
        proc.stderr.close()
