"""Integer-nanosecond time base and the three literals every number is.

Every duration is a plain ``int`` counting simulated nanoseconds; there are
no fractional ticks.  Every number partsim reads, ASCII digits only and
surrounding whitespace stripped, is an integer ``-?[0-9]+`` (the system XML
also takes ``0x`` hex), a duration (that decimal integer, optional
whitespace and ns/us/ms/s) or a fraction ``-?[0-9]+``, optionally ``.[0-9]+``.
A fraction is read exactly, as the decimal it writes.

Each reader also takes the least value its caller allows and checks it,
so a number's range is checked once, where it enters, and this module is
the one owner of that rule: ``must be positive, got '0'``,
``must be non-negative, got '-1'``, or for a duration ``negative duration
'-1ms'``.
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
    """A malformed integer, duration or fraction literal, or one below its
    least value."""


def _at_least(value, least, text: str):
    """``value``, when ``least`` is None or ``value`` is at least it."""
    if least is not None and value < least:
        bound = ("non-negative" if least == 0 else "positive" if least == 1 and type(value) is int
                 else f">= {least}")
        raise UnitError(f"must be {bound}, got {text!r}")
    return value


def parse_integer(text: str, least: int | None = None, hex_ok: bool = False) -> int:
    """Parse an integer literal of at least ``least``; ``hex_ok`` also takes
    the XML's 0x form."""
    t = text.strip()
    if not (_XML_INTEGER_RE if hex_ok else _INTEGER_RE).fullmatch(t):
        raise UnitError(f"bad integer {text!r}")
    return _at_least(int(t, 16 if "x" in t.lower() else 10), least, text)


def parse_duration(text: str, least: int = 0) -> Duration:
    """Parse ``"400us"``-style literals of at least ``least`` nanoseconds."""
    m = _DURATION_RE.fullmatch(text.strip())
    if m is None:
        raise UnitError(f"bad duration {text!r} (expected integer + ns/us/ms/s)")
    value = int(m.group(1)) * _UNITS[m.group(2)]
    if value < 0:
        raise UnitError(f"negative duration {text!r}")
    return _at_least(value, least, text)


def parse_fraction(text: str, least: int | None = None):
    """Parse a ``"0.75"``-style literal of at least ``least`` into the exact
    ``fractions.Fraction`` it writes; ``0.13`` is 13/100, not the nearest
    float."""
    # imported here: only a broker scenario reads a fraction, and the module
    # (with the ``decimal`` it imports) costs a few ms at start-up
    from fractions import Fraction

    t = text.strip()
    if not _FRACTION_RE.fullmatch(t):
        raise UnitError(f"bad fraction {text!r}")
    return _at_least(Fraction(t), least, text)


def fraction_text(value) -> str:
    """A float, or the Fraction that ``parse_fraction`` returns, as a
    message shows it: ``1.5``, not ``3/2``."""
    return str(float(value))
