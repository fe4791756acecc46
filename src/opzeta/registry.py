"""Identity registry: parses data/identities.cfg into IdentityRecord tuples.

The registry is a versioned text data file (key=value blocks) rather than
code so each identity is auditable in one place; tests and the CLI share it
as the single source of truth. See the header of the data file for the field
reference. Its records, like every layer's, are immutable NamedTuples,
which a cold command defines without importing `dataclasses`.
"""

from __future__ import annotations

import configparser
import math
import re
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import NamedTuple, Optional

from .exactnum import TAYLOR_GENERATORS, PiPolynomial, PiXPolynomial
from .operators import DilationShift
from .series import CLOSED_FORMS, TrigSeries

_PI_TOKENS = {"pi": math.pi, "2pi": 2 * math.pi, "pi/2": math.pi / 2, "-pi/2": -math.pi / 2}

_COEFF_RE = re.compile(r"^([+-]?\d+(?:/\d+)?)(?:\*pi(?:\^(\d+))?)?$")


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


def parse_pi_coefficient(text: str) -> PiPolynomial:
    """One registry coefficient: '<rat>', '<rat>*pi', or '<rat>*pi^<k>'."""
    text = text.strip()
    if text == "0":
        return PiPolynomial()
    m = _COEFF_RE.match(text)
    if m is None:
        raise ValueError(f"bad coefficient literal {text!r}")
    q = Fraction(m.group(1))
    k = int(m.group(2)) if m.group(2) else (1 if "*pi" in text else 0)
    return PiPolynomial.pi_power(q, k)


def _parse_poly(text: str) -> PiXPolynomial:
    return PiXPolynomial([parse_pi_coefficient(tok) for tok in text.split(";")])


class IdentityRecord(NamedTuple):
    """One registry identity with its stated validity domain (verbatim)."""

    id: str
    summary: str
    op: Optional[DilationShift]  # operator form of the left side, if any
    trig: Optional[str]  # 'sin' | 'cos' when the left side acts on a trig function
    series: Optional[TrigSeries]  # induced/declared series form of the left side
    gamma_shift: Optional[Fraction]
    rhs_poly: Optional[PiXPolynomial]
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

    def exact_rhs(self, terms: int) -> Optional[PiXPolynomial]:
        """Exact polynomial right side: the literal, or the generated Taylor
        polynomial of `terms` nonzero terms (those of a flow of `terms` terms);
        None when only numeric forms exist."""
        if self.rhs_poly is not None:
            return self.rhs_poly
        if self.rhs_taylor is not None:
            return TAYLOR_GENERATORS[self.rhs_taylor](terms)
        return None

    def closed_form(self):
        return CLOSED_FORMS[self.rhs_closed] if self.rhs_closed else None


def _parse_lhs(text: str):
    """-> (op, trig, series); all None for the geometric left side."""
    parts = text.split()
    if parts[0] == "geometric":
        return None, None, None
    kv = dict(p.split("=", 1) for p in parts[2 if parts[0] == "operator" else 1:])
    if parts[0] == "operator":
        kind = parts[1]
        shift = Fraction(kv["shift"])
        trig = kv["trig"]
        op = DilationShift(kind, shift)
        character = "trivial" if kind == "zeta" else "beta"
        series = TrigSeries(trig, int(shift), character) if shift.denominator == 1 else None
        return op, trig, series
    if parts[0] == "series":
        series = TrigSeries(kv["parity"], int(kv["exponent"]), kv["character"])
        return None, kv["parity"], series
    raise ValueError(f"bad lhs {text!r}")


def parse_grid(text: str) -> tuple[float, float, int]:
    """A grid 'a:b:steps' as (a, b, steps); ValueError where it is malformed."""
    a, b, steps = text.split(":")
    return float(a), float(b), int(steps)


@lru_cache(maxsize=1)
def _parse_registry() -> tuple[int, dict[str, IdentityRecord]]:
    """(version, records) of the data file, parsed once per process."""
    return _parse(resources.files("opzeta").joinpath("data/identities.cfg").read_text(encoding="utf-8"))


def _parse(text: str) -> tuple[int, dict[str, IdentityRecord]]:
    """(version, records) of a data file's text; an unknown closed form,
    Taylor generator or verify mode raises ValueError naming its block."""
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.optionxform = str
    cfg.read_string(text)
    out: dict[str, IdentityRecord] = {}
    for sec in cfg.sections():
        if sec == "meta":
            continue
        block = cfg[sec]
        op, trig, series = _parse_lhs(block["lhs"])
        rhs_poly = _parse_poly(block["rhs_poly"]) if "rhs_poly" in block else None
        rhs_closed = block.get("rhs_closed")
        rhs_taylor = block.get("rhs_taylor")
        if rhs_closed is not None and rhs_closed not in CLOSED_FORMS:
            raise ValueError(f"[{sec}] unknown closed form {rhs_closed!r}")
        if rhs_taylor is not None and rhs_taylor not in TAYLOR_GENERATORS:
            raise ValueError(f"[{sec}] unknown Taylor generator {rhs_taylor!r}")
        if block["verify_mode"] not in ("sum", "abel", "geometric", "exact"):
            raise ValueError(f"[{sec}] unknown verify mode {block['verify_mode']!r}")
        out[sec] = IdentityRecord(
            id=sec,
            summary=block["summary"],
            op=op,
            trig=trig,
            series=series,
            gamma_shift=Fraction(block["gamma_shift"]) if "gamma_shift" in block else None,
            rhs_poly=rhs_poly,
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
