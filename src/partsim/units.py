"""Integer-nanosecond time base and the three literals every number is.

Every duration is a plain ``int`` counting simulated nanoseconds; there are
no fractional ticks.  Every number partsim reads, ASCII digits only and
surrounding whitespace stripped, is an integer ``-?[0-9]+`` (the system XML
also takes ``0x`` hex), a duration (that decimal integer, optional
whitespace and ns/us/ms/s) or a fraction ``-?[0-9]+``, optionally ``.[0-9]+``.
A fraction is read exactly, as the decimal it writes.
"""

import re

Duration = int  # simulated nanoseconds

NS = 1
US = 1_000
MS = 1_000_000
S = 1_000_000_000

_UNITS = {"ns": NS, "us": US, "ms": MS, "s": S}
_INTEGER_RE = re.compile(r"-?[0-9]+")
_XML_INTEGER_RE = re.compile(r"-?0[xX][0-9a-fA-F]+|-?[0-9]+")
_DURATION_RE = re.compile(r"(-?[0-9]+)\s*(ns|us|ms|s)")
_FRACTION_RE = re.compile(r"-?[0-9]+(\.[0-9]+)?")


class UnitError(ValueError):
    """Malformed integer, duration or fraction literal."""


class NegativeDuration(ValueError):
    """Duration literals must be non-negative."""


def parse_integer(text: str, hex_ok: bool = False) -> int:
    """Parse an integer literal; ``hex_ok`` also takes the XML's 0x form."""
    t = text.strip()
    if not (_XML_INTEGER_RE if hex_ok else _INTEGER_RE).fullmatch(t):
        raise UnitError(f"bad integer {text!r}")
    return int(t, 16 if "x" in t.lower() else 10)


def parse_duration(text: str) -> Duration:
    """Parse ``"400us"``-style literals into nanoseconds."""
    m = _DURATION_RE.fullmatch(text.strip())
    if m is None:
        raise UnitError(f"bad duration {text!r} (expected integer + ns/us/ms/s)")
    value = int(m.group(1)) * _UNITS[m.group(2)]
    if value < 0:
        raise NegativeDuration(f"negative duration {text!r}")
    return value


def parse_fraction(text: str):
    """Parse a ``"0.75"``-style literal into the exact ``fractions.Fraction``
    it writes; ``0.13`` is 13/100, not the nearest float."""
    # imported here: only a broker scenario reads a fraction, and the module
    # (with the ``decimal`` it imports) costs a few ms at start-up
    from fractions import Fraction

    t = text.strip()
    if not _FRACTION_RE.fullmatch(t):
        raise UnitError(f"bad fraction {text!r}")
    return Fraction(t)


def fraction_text(value) -> str:
    """A float, or the Fraction that ``parse_fraction`` returns, as a
    message shows it: ``1.5``, not ``3/2``."""
    return str(float(value))
