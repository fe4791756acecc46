"""Identity registry: parses data/identities.cfg into IdentityRecord tuples.

The registry is a versioned text data file (key=value blocks) rather than
code so each identity is auditable in one place; tests and the CLI share it
as the single source of truth. See the header of the data file for the field
reference. A record holds plain data: the left side's kind, shift, trig
function (a series' parity), exponent and character, the right side's
polynomial literal and the names of its closed form and Taylor generator.
The load imports no engine layer but checks each name and literal against
the engine's (a test holds the name sets equal); a bad block raises
ValueError naming it. `op`, `series` and `rhs_poly`, the engine forms a
command reads, import their layer on first use and are built once per
distinct value. Its records, like every layer's, are immutable NamedTuples,
which a cold command defines without importing `dataclasses`.
"""

from __future__ import annotations

import configparser
import math
import os
import re
from fractions import Fraction
from functools import cache, lru_cache
from typing import NamedTuple, Optional

_DATA_FILE = os.path.join(os.path.dirname(__file__), "data", "identities.cfg")

_PI_TOKENS = {"pi": math.pi, "2pi": 2 * math.pi, "pi/2": math.pi / 2, "-pi/2": -math.pi / 2}

_COEFF_RE = re.compile(r"^([+-]?\d+(?:/\d+)?)(?:\*pi(?:\^(\d+))?)?$")

# the names the engine defines, checked at load without importing it: the kinds of
# operators.DilationShift, the keys of series.CLOSED_FORMS and of exactnum.TAYLOR_GENERATORS
_KINDS = ("zeta", "beta", "recip_gamma")
_CLOSED_FORMS = frozenset({"sin_over_one_minus_cos", "neg_inv_one_minus_cos", "half_sec", "log_sec_plus_tan_half"})
_TAYLOR_GENERATORS = frozenset(
    {"cot_half_regular", "inv_one_minus_cos_regular", "half_sec_series", "log_sec_plus_tan_half_series"}
)
_VERIFY_MODES = ("sum", "abel", "geometric", "exact")


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

    def contains(self, x: float, eps: float = 1e-12) -> bool:
        lo_ok = x > self.lo + eps if self.lo_open else x >= self.lo - eps
        hi_ok = x < self.hi - eps if self.hi_open else x <= self.hi + eps
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
    from .exactnum import PiPolynomial

    return PiPolynomial.pi_power(*_coefficient(text))


@cache
def _operator(kind: str, shift: Fraction):
    from .operators import DilationShift

    return DilationShift(kind, shift)


@cache
def _series(trig: str, exponent: int, character: str):
    from .series import TrigSeries

    return TrigSeries(trig, exponent, character)


@cache
def _polynomial(literal: str):
    from .exactnum import PiXPolynomial

    return PiXPolynomial([parse_pi_coefficient(tok) for tok in literal.split(";")])


class IdentityRecord(NamedTuple):
    """One registry identity with its stated validity domain (verbatim)."""

    id: str
    summary: str
    kind: Optional[str]  # 'zeta' | 'beta' | 'recip_gamma' when the left side is an operator
    shift: Optional[Fraction]  # the operator's shift
    trig: Optional[str]  # 'sin' | 'cos': the trig function the operator acts on, or the series' parity
    exponent: Optional[int]  # of the left side's series form (an operator's integer shift)
    character: Optional[str]  # 'trivial' | 'beta' of that series form
    gamma_shift: Optional[Fraction]
    rhs_literal: Optional[str]  # the rhs_poly literal of the data file
    rhs_closed: Optional[str]
    rhs_taylor: Optional[str]
    domain: Interval
    anomaly_parity: str
    verify_mode: str
    default_grid: tuple[float, float, int]
    default_tol: float
    extract: bool
    extra_check: Optional[str]
    expected_event: Optional[str]

    @property
    def op(self):
        """The operator form of the left side, a DilationShift, or None."""
        return None if self.kind is None else _operator(self.kind, self.shift)

    @property
    def series(self):
        """The series form of the left side, a TrigSeries, or None."""
        return None if self.exponent is None else _series(self.trig, self.exponent, self.character)

    @property
    def rhs_poly(self):
        """The right side's literal as a PiXPolynomial, or None."""
        return None if self.rhs_literal is None else _polynomial(self.rhs_literal)

    def exact_rhs(self, terms: int):
        """Exact polynomial right side: the literal, or the generated Taylor
        polynomial of `terms` nonzero terms (those of a flow of `terms` terms);
        None when only numeric forms exist."""
        if self.rhs_literal is not None:
            return self.rhs_poly
        if self.rhs_taylor is not None:
            from .exactnum import TAYLOR_GENERATORS

            return TAYLOR_GENERATORS[self.rhs_taylor](terms)
        return None

    def closed_form(self):
        if self.rhs_closed is None:
            return None
        from .series import CLOSED_FORMS

        return CLOSED_FORMS[self.rhs_closed]


def _parse_lhs(text: str) -> tuple:
    """-> (kind, shift, trig, exponent, character); all None for the geometric left side."""
    parts = text.split()
    if parts[0] == "geometric":
        return None, None, None, None, None
    kv = dict(p.split("=", 1) for p in parts[2 if parts[0] == "operator" else 1:])
    if parts[0] == "operator":
        kind, shift, trig = parts[1], Fraction(kv["shift"]), kv["trig"]
        if kind not in _KINDS:
            raise ValueError(f"unknown operator kind {kind!r}")
        exponent = int(shift) if shift.denominator == 1 else None
        character = "trivial" if kind == "zeta" else "beta"
    elif parts[0] == "series":
        kind = shift = None
        trig, exponent, character = kv["parity"], int(kv["exponent"]), kv["character"]
        if character not in ("trivial", "beta"):
            raise ValueError(f"unknown character {character!r}")
    else:
        raise ValueError(f"bad lhs {text!r}")
    if trig not in ("sin", "cos"):
        raise ValueError(f"unknown trig function {trig!r}")
    return kind, shift, trig, exponent, character


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
    kind, shift, trig, exponent, character = _parse_lhs(block["lhs"])
    rhs_literal, rhs_closed, rhs_taylor = block.get("rhs_poly"), block.get("rhs_closed"), block.get("rhs_taylor")
    if rhs_literal is not None:
        for tok in rhs_literal.split(";"):
            _coefficient(tok)  # checked here, built on first use
    if rhs_closed is not None and rhs_closed not in _CLOSED_FORMS:
        raise ValueError(f"unknown closed form {rhs_closed!r}")
    if rhs_taylor is not None and rhs_taylor not in _TAYLOR_GENERATORS:
        raise ValueError(f"unknown Taylor generator {rhs_taylor!r}")
    if block["verify_mode"] not in _VERIFY_MODES:
        raise ValueError(f"unknown verify mode {block['verify_mode']!r}")
    return IdentityRecord(
        id=sec,
        summary=block["summary"],
        kind=kind,
        shift=shift,
        trig=trig,
        exponent=exponent,
        character=character,
        gamma_shift=Fraction(block["gamma_shift"]) if "gamma_shift" in block else None,
        rhs_literal=rhs_literal,
        rhs_closed=rhs_closed,
        rhs_taylor=rhs_taylor,
        domain=_parse_interval(block["domain"]),
        anomaly_parity=block.get("anomaly_parity", "none"),
        verify_mode=block["verify_mode"],
        default_grid=parse_grid(block["default_grid"]),
        default_tol=float(block["default_tol"]),
        extract=block.get("extract", "no") == "yes",
        extra_check=block.get("extra_check"),
        expected_event=block.get("expected_event"),
    )


def _parse(text: str) -> tuple[int, dict[str, IdentityRecord]]:
    """(version, records) of a data file's text. A block with an unknown
    operator kind, closed form, Taylor generator or verify mode, a bad
    coefficient literal or any other malformed or missing value raises
    ValueError naming the block."""
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.optionxform = str
    cfg.read_string(text)
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
    return cfg.getint("meta", "version"), out


def load_registry() -> dict[str, IdentityRecord]:
    return _parse_registry()[1]


def get_identity(identity_id: str) -> IdentityRecord:
    reg = load_registry()
    if identity_id not in reg:
        raise KeyError(f"unknown identity id {identity_id!r}; see `opzeta list`")
    return reg[identity_id]


def registry_version() -> int:
    return _parse_registry()[0]
