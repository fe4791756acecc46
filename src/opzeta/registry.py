"""Identity registry: parses data/identities.cfg into IdentityRecord tuples.

The registry is a versioned text data file (key=value blocks) rather than
code so each identity is auditable in one place; tests and the CLI share it
as the single source of truth. See the header of the data file for the field
reference; a key the header does not list refuses the block. A record holds
plain data: the left side's kind, shift (a series' exponent), trig function
(a series' parity) and character, the right side's polynomial literal and the
names of its closed form and Taylor generator. It states no anomaly term: the
term that a term-by-term flow loses is the branch term `taylor_flow` returns.
Those names are defined here alone, as the keys of `CLOSED_FORMS` and
`TAYLOR_GENERATORS`. The load imports no engine layer; a bad block raises
ValueError naming it. `op`, `series` and `rhs_poly`, the engine forms a
command reads, import their layer and are built on each read. Its records,
like every layer's, are immutable NamedTuples, which a cold command defines
without importing `dataclasses`.
"""

from __future__ import annotations

import configparser
import math
import os
import re
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Callable, NamedTuple, Optional

_DATA_FILE = os.path.join(os.path.dirname(__file__), "data", "identities.cfg")

_PI_TOKENS = {"pi": math.pi, "2pi": 2 * math.pi, "pi/2": math.pi / 2, "-pi/2": -math.pi / 2}

_COEFF_RE = re.compile(r"^([+-]?\d+(?:/\d+)?)(?:\*pi(?:\^(\d+))?)?$")

# the series character of each operator kind, and so every character a series takes; 1/Gamma has none
SERIES_CHARACTERS = {"zeta": "trivial", "beta": "beta"}
_VERIFY_MODES = ("sum", "abel", "geometric", "exact")
_EXTRA_CHECKS = ("geometric_real_part",)  # the side conditions `verify` runs
# the pole events of the exact route, which a block's expected_event may name
ANOMALY_MISSING, ANNIHILATED_CONSTANT = "anomaly_missing", "annihilated_constant"
# the keys of a block and the values of the vocabulary keys, as the data file's header documents them
_KEYS = frozenset("summary lhs gamma_shift rhs_poly rhs_closed rhs_taylor domain verify_mode default_grid"
                  " default_tol extract extra_check expected_event".split())
_VOCABULARY = {"expected_event": (ANOMALY_MISSING, ANNIHILATED_CONSTANT)}
_EPS = 1e-12  # the slack of an interval's endpoints
_VERSION = 2  # the [meta] version of the data file whose rules this module reads


def _parse_endpoint(tok: str) -> float:
    tok = tok.strip()
    if tok in _PI_TOKENS:
        return _PI_TOKENS[tok]
    return float(tok)


class Interval(NamedTuple):
    lo: float
    hi: float
    lo_open: bool
    hi_open: bool

    def contains(self, x: float) -> bool:
        lo_ok = x > self.lo + _EPS if self.lo_open else x >= self.lo - _EPS
        hi_ok = x < self.hi - _EPS if self.hi_open else x <= self.hi + _EPS
        return lo_ok and hi_ok

    def __str__(self) -> str:
        lo = "(" if self.lo_open else "["
        hi = ")" if self.hi_open else "]"
        return f"{lo}{self.lo:g}, {self.hi:g}{hi}"


def _parse_interval(text: str) -> Interval:
    text = text.strip()
    lo_open = text[0] == "("
    hi_open = text[-1] == ")"
    if text[0] not in "([" or text[-1] not in ")]":
        raise ValueError(f"bad interval {text!r}")
    a, b = text[1:-1].split(",")
    return Interval(_parse_endpoint(a), _parse_endpoint(b), lo_open, hi_open)


def _coefficient(text: str) -> tuple[Fraction, int]:
    """One registry coefficient, '<rat>', '<rat>*pi' or '<rat>*pi^<k>', as (rat, k)."""
    text = text.strip()
    m = _COEFF_RE.match(text)
    if m is None:
        raise ValueError(f"bad coefficient literal {text!r}")
    return Fraction(m.group(1)), int(m.group(2)) if m.group(2) else (1 if "*pi" in text else 0)


def parse_pi_coefficient(text: str):
    """One registry coefficient as a PiPolynomial: '<rat>', '<rat>*pi', or '<rat>*pi^<k>'."""
    from .pipoly import PiPolynomial

    return PiPolynomial.pi_power(*_coefficient(text))


# --- the named closed forms (rhs_closed) ---------------------------------------

def _sin_over_one_minus_cos(x: float) -> float:
    return 0.5 / math.tan(x / 2)  # sin x / (2 (1 - cos x)), with no 1 - cos x to cancel


def _neg_inv_one_minus_cos(x: float) -> float:
    return -1.0 / (4.0 * math.sin(x / 2) ** 2)  # -1 / (2 (1 - cos x))


def _half_sec(x: float) -> float:
    return 1.0 / (2.0 * math.cos(x))


def _log_sec_plus_tan_half(x: float) -> float:
    sn = math.sin(x)  # (1 + sin x)/cos x = cos x/(1 - sin x): no 1 + sin x to cancel
    return math.copysign(0.5 * math.log((1.0 + abs(sn)) / math.cos(x)), sn)


CLOSED_FORMS: dict[str, Callable[[float], float]] = {
    "sin_over_one_minus_cos": _sin_over_one_minus_cos,
    "neg_inv_one_minus_cos": _neg_inv_one_minus_cos,
    "half_sec": _half_sec,
    "log_sec_plus_tan_half": _log_sec_plus_tan_half,
}


# --- their exact Taylor generators (rhs_taylor) --------------------------------
#
# The right sides of the singularity-removed identities in exact rationals, from
# the trigonometric closed forms alone through the zigzag numbers A_m, with no
# Bernoulli or Euler number: the independent route the operator engine matches.

def _zigzag(n: int) -> list[int]:
    """A_0..A_(n-1), sec x + tan x = sum A_m x^m / m!, by the Seidel-Entringer
    boustrophedon in O(n^2) integer additions (Brent and Harvey,
    arXiv:1108.0286): row m is 0 and then the running sums of row m - 1 read
    backwards, and A_m is its last entry."""
    row, out = [1], [1]
    for _ in range(1, n):
        row = list(accumulate(reversed(row), initial=0))
        out.append(row[-1])
    return out


def cot_half_regular(terms: int):
    """Taylor polynomial of sin x / (2(1 - cos x)) - 1/x, `terms` nonzero terms.

    Iterating cot y - tan y = 2 cot 2y gives -sum_(j>=2) 2^-j tan(2^-j x), so the
    coefficient of x^m, m = 2k + 1, is -A_m / (m! 4^(k+1) (4^(k+1) - 1)), 4^(k+1) = 2^(m+1).
    """
    from .pipoly import PiXPolynomial

    if terms < 1:
        raise ValueError("terms must be >= 1")
    a, coeffs = _zigzag(2 * terms), [Fraction(0)] * (2 * terms)
    for m in range(1, 2 * terms, 2):
        coeffs[m] = Fraction(-a[m], math.factorial(m) * 2 ** (m + 1) * (2 ** (m + 1) - 1))
    return PiXPolynomial(coeffs)


def inv_one_minus_cos_regular(terms: int):
    """Taylor polynomial of -1/(2(1 - cos x)) + 1/x^2, `terms` nonzero terms:
    the derivative of `cot_half_regular`."""
    from .pipoly import PiXPolynomial

    return PiXPolynomial(c * j for j, c in enumerate(cot_half_regular(terms).coeffs[1:], 1))


def half_sec_series(terms: int):
    """Taylor polynomial of 1/(2 cos x): coefficient of x^(2k) is A_2k / (2 (2k)!)."""
    from .pipoly import PiXPolynomial

    if terms < 1:
        raise ValueError("terms must be >= 1")
    a, coeffs = _zigzag(2 * terms - 1), [Fraction(0)] * (2 * terms - 1)
    for m in range(0, 2 * terms - 1, 2):
        coeffs[m] = Fraction(a[m], 2 * math.factorial(m))
    return PiXPolynomial(coeffs)


def log_sec_plus_tan_half_series(terms: int):
    """Taylor polynomial of (1/2) log(sec x + tan x): the antiderivative of
    `half_sec_series`."""
    from .pipoly import PiXPolynomial

    return PiXPolynomial([0] + [c / j for j, c in enumerate(half_sec_series(terms).coeffs, 1)])


TAYLOR_GENERATORS = {
    "cot_half_regular": cot_half_regular,
    "inv_one_minus_cos_regular": inv_one_minus_cos_regular,
    "half_sec_series": half_sec_series,
    "log_sec_plus_tan_half_series": log_sec_plus_tan_half_series,
}


class IdentityRecord(NamedTuple):
    """One registry identity with its stated validity domain (verbatim)."""

    id: str
    summary: str
    kind: Optional[str]  # a key of SERIES_CHARACTERS when the left side is an operator
    shift: Optional[int]  # the operator's shift, the exponent of the left side's series form
    trig: Optional[str]  # 'sin' | 'cos': the trig function the operator acts on, or the series' parity
    character: Optional[str]  # a value of SERIES_CHARACTERS: the character of that series form
    gamma_shift: Optional[int]
    rhs_literal: Optional[str]  # the rhs_poly literal of the data file
    rhs_closed: Optional[str]
    rhs_taylor: Optional[str]
    domain: Interval
    verify_mode: str
    default_grid: tuple[float, float, int]
    default_tol: float
    extract: bool
    extra_check: Optional[str]
    expected_event: Optional[str]

    @property
    def op(self):
        """The operator form of the left side, a DilationShift, or None."""
        if self.kind is None:
            return None
        from .operators import DilationShift

        return DilationShift(self.kind, self.shift)

    @property
    def series(self):
        """The series form of the left side, a TrigSeries, or None."""
        if self.shift is None:
            return None
        from .series import TrigSeries

        return TrigSeries(self.trig, self.shift, self.character)

    @property
    def rhs_poly(self):
        """The right side's literal as a PiXPolynomial, or None."""
        if self.rhs_literal is None:
            return None
        from .pipoly import PiXPolynomial

        return PiXPolynomial([parse_pi_coefficient(tok) for tok in self.rhs_literal.split(";")])

    def exact_rhs(self, terms: int):
        """Exact polynomial right side: the literal, or the generated Taylor
        polynomial of `terms` nonzero terms (those of a flow of `terms` terms);
        None when only numeric forms exist."""
        if self.rhs_literal is not None:
            return self.rhs_poly
        if self.rhs_taylor is not None:
            return TAYLOR_GENERATORS[self.rhs_taylor](terms)
        return None

    def closed_form(self):
        return None if self.rhs_closed is None else CLOSED_FORMS[self.rhs_closed]


def _integer(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {text!r}") from None


def _parse_lhs(text: str) -> tuple:
    """-> (kind, shift, trig, character), a series' exponent as its shift; all
    None for the geometric left side."""
    parts = text.split()
    if parts[0] == "geometric":
        return None, None, None, None
    kv = dict(p.split("=", 1) for p in parts[2 if parts[0] == "operator" else 1:])
    if parts[0] == "operator":
        kind, trig = parts[1], kv["trig"]
        if kind not in SERIES_CHARACTERS:
            raise ValueError(f"unknown operator kind {kind!r}")
        shift = _integer("shift", kv["shift"])
        character = SERIES_CHARACTERS[kind]
    elif parts[0] == "series":
        kind = None
        trig, shift, character = kv["parity"], int(kv["exponent"]), kv["character"]
        if character not in SERIES_CHARACTERS.values():
            raise ValueError(f"unknown character {character!r}")
    else:
        raise ValueError(f"bad lhs {text!r}")
    if trig not in ("sin", "cos"):
        raise ValueError(f"unknown trig function {trig!r}")
    return kind, shift, trig, character


def parse_grid(text: str) -> tuple[float, float, int]:
    """A grid 'a:b:steps' as (a, b, steps); ValueError where it is malformed."""
    a, b, steps = text.split(":")
    return float(a), float(b), int(steps)


@lru_cache(maxsize=1)
def _parse_registry() -> tuple[int, dict[str, IdentityRecord]]:
    """(version, records) of the data file beside this module, parsed once per process."""
    with open(_DATA_FILE, encoding="utf-8") as f:
        return _parse(f.read())


def _record(sec: str, block) -> IdentityRecord:
    if unknown := [key for key in block if key not in _KEYS]:
        raise ValueError(f"unknown key {unknown[0]!r}")
    kind, shift, trig, character = _parse_lhs(block["lhs"])
    rhs_literal, rhs_closed, rhs_taylor = block.get("rhs_poly"), block.get("rhs_closed"), block.get("rhs_taylor")
    if rhs_literal is not None:
        for tok in rhs_literal.split(";"):
            _coefficient(tok)  # checked here, built on first use
    if rhs_closed is not None and rhs_closed not in CLOSED_FORMS:
        raise ValueError(f"unknown closed form {rhs_closed!r}")
    if rhs_taylor is not None and rhs_taylor not in TAYLOR_GENERATORS:
        raise ValueError(f"unknown Taylor generator {rhs_taylor!r}")
    mode = block["verify_mode"]
    if mode not in _VERIFY_MODES:
        raise ValueError(f"unknown verify mode {mode!r}")
    if (shift is None) != (mode == "geometric"):
        raise ValueError(f"verify mode {mode!r} does not take the left side {block['lhs']!r}")
    if mode in ("sum", "abel") and rhs_literal is None and rhs_closed is None:
        raise ValueError(f"verify mode {mode!r} needs rhs_poly or rhs_closed")
    extra_check = block.get("extra_check")
    if extra_check is not None and extra_check not in _EXTRA_CHECKS:
        raise ValueError(f"unknown extra check {extra_check!r}")
    for key, values in _VOCABULARY.items():
        if key in block and block[key] not in values:
            raise ValueError(f"{key} must be one of {values}, got {block[key]!r}")
    gamma_shift = _integer("gamma_shift", block["gamma_shift"]) if "gamma_shift" in block else None
    if gamma_shift is not None and (kind != "zeta" or mode != "exact"):
        raise ValueError("gamma_shift applies only to a zeta operator left side in verify mode 'exact'")
    exact_rhs = kind is not None and (rhs_literal is not None or rhs_taylor is not None)
    if mode == "exact" and not exact_rhs:
        raise ValueError("verify mode 'exact' needs an operator left side with rhs_poly or rhs_taylor")
    want = "yes" if exact_rhs else "no"
    if (extract := block.get("extract", "no")) != want:
        raise ValueError(f"extract must be {want!r} (yes for an operator left side with rhs_poly or rhs_taylor), got {extract!r}")
    return IdentityRecord(
        id=sec,
        summary=block["summary"],
        kind=kind,
        shift=shift,
        trig=trig,
        character=character,
        gamma_shift=gamma_shift,
        rhs_literal=rhs_literal,
        rhs_closed=rhs_closed,
        rhs_taylor=rhs_taylor,
        domain=_parse_interval(block["domain"]),
        verify_mode=mode,
        default_grid=parse_grid(block["default_grid"]),
        default_tol=float(block["default_tol"]),
        extract=want == "yes",
        extra_check=extra_check,
        expected_event=block.get("expected_event"),
    )


def _parse(text: str) -> tuple[int, dict[str, IdentityRecord]]:
    """(version, records) of a data file's text. A version other than
    `_VERSION` raises ValueError naming both. A block with an unknown key,
    name or vocabulary value, a shift that is no integer, a verify mode,
    gamma_shift or extract flag its sides do not take, a bad coefficient literal
    or any other malformed or missing value raises ValueError naming the block."""
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.optionxform = str
    cfg.read_string(text)
    version = cfg.getint("meta", "version")
    if version != _VERSION:
        raise ValueError(f"[meta] version {version}: this code reads version {_VERSION}")
    out: dict[str, IdentityRecord] = {}
    for sec in cfg.sections():
        if sec == "meta":
            continue
        try:
            out[sec] = _record(sec, cfg[sec])
        except KeyError as exc:
            raise ValueError(f"[{sec}] missing key {exc}") from exc
        except (IndexError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"[{sec}] {exc}") from exc
    return version, out


def load_registry() -> dict[str, IdentityRecord]:
    return _parse_registry()[1]


def get_identity(identity_id: str) -> IdentityRecord:
    reg = load_registry()
    if identity_id not in reg:
        raise KeyError(f"unknown identity id {identity_id!r}; see `opzeta list`")
    return reg[identity_id]


def registry_version() -> int:
    return _parse_registry()[0]
