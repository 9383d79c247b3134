"""Integer-nanosecond time base and duration literals.

Every duration in the simulator is a plain ``int`` counting simulated
nanoseconds; there are no fractional ticks anywhere.  Text literals are an
integer followed by one of the suffixes ns/us/ms/s.
"""

import re

Duration = int  # simulated nanoseconds

NS = 1
US = 1_000
MS = 1_000_000
S = 1_000_000_000

_UNITS = {"ns": NS, "us": US, "ms": MS, "s": S}
_DURATION_RE = re.compile(r"^(-?\d+)\s*(ns|us|ms|s)$")


class UnitError(ValueError):
    """Malformed duration literal (bad integer or unknown suffix)."""


class NegativeDuration(ValueError):
    """Duration literals must be non-negative."""


def parse_duration(text: str) -> Duration:
    """Parse ``"400us"``-style literals into nanoseconds."""
    m = _DURATION_RE.match(text.strip())
    if m is None:
        raise UnitError(f"bad duration {text!r} (expected integer + ns/us/ms/s)")
    value = int(m.group(1)) * _UNITS[m.group(2)]
    if value < 0:
        raise NegativeDuration(f"negative duration {text!r}")
    return value

