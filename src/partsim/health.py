"""Health monitoring: anomaly events, action resolution, propagation.

The engine raises two kinds of anomaly as HealthEvents: a slot overrun,
when the planner finds a running COMPUTE truncated by its slot end, and a
memory violation, when a port call names a port its partition does not
own.  A HealthTable maps (kind, partition) to the action the hypervisor
applies; per-partition overrides fall back to a per-kind default, which
must exist for every kind.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import trace
from .units import Duration

if TYPE_CHECKING:  # engine type only needed for annotations
    from .scheduler import SimState


class HmKind(enum.Enum):
    SLOT_OVERRUN = "SLOT_OVERRUN"
    MEMORY_VIOLATION = "MEMORY_VIOLATION"


class HealthAction(enum.Enum):
    LOG = "LOG"
    SUSPEND_PARTITION = "SUSPEND_PARTITION"
    HALT_PARTITION = "HALT_PARTITION"
    HALT_SYSTEM = "HALT_SYSTEM"


@dataclass(frozen=True)
class HealthEvent:
    time: Duration
    kind: HmKind
    source_partition: int
    detail: str = ""
    overrun_amount: Duration = 0

    def __post_init__(self) -> None:
        if (self.overrun_amount > 0) != (self.kind is HmKind.SLOT_OVERRUN):
            raise ValueError("overrun_amount > 0 exactly for SLOT_OVERRUN events")


#: Overruns are logged so experiments keep running; violations of
#: spatial isolation suspend the offender so they stay visible in the trace.
DEFAULT_ACTIONS: dict[HmKind, HealthAction] = {
    HmKind.SLOT_OVERRUN: HealthAction.LOG,
    HmKind.MEMORY_VIOLATION: HealthAction.SUSPEND_PARTITION,
}


@dataclass
class HealthTable:
    defaults: dict[HmKind, HealthAction] = field(default_factory=lambda: dict(DEFAULT_ACTIONS))
    overrides: dict[tuple[HmKind, int], HealthAction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        missing = [k for k in HmKind if k not in self.defaults]
        if missing:
            raise ValueError(f"health table is missing defaults for {missing}")

    def resolve(self, kind: HmKind, partition_id: int) -> HealthAction:
        return self.overrides.get((kind, partition_id), self.defaults[kind])

    def set_default(self, kind: HmKind, action: HealthAction) -> None:
        self.defaults[kind] = action

    def set_override(self, kind: HmKind, partition_id: int, action: HealthAction) -> None:
        self.overrides[(kind, partition_id)] = action


def raise_event(state: SimState, ev: HealthEvent) -> None:
    """Record the event and apply its resolved action.

    The HM_EVENT line plus an HM resolution line addressed to the source
    partition go to the trace; the action then mutates at most the source
    partition (or ends the run for HALT_SYSTEM).
    """
    if ev.time != state.now:
        raise ValueError(f"health event time {ev.time} != now {state.now}")
    action = state.health_table.resolve(ev.kind, ev.source_partition)
    state.record_event(ev.time, "HM_EVENT", ev.source_partition)
    detail = str(ev.overrun_amount) if ev.kind is HmKind.SLOT_OVERRUN else ev.detail
    state.trace.append(
        trace.HmRecord(ev.time, ev.kind.value, ev.source_partition, action.value, detail)
    )
    if action is HealthAction.LOG:
        return
    if action is HealthAction.SUSPEND_PARTITION:
        state.suspend_if_normal(ev.source_partition)
    elif action is HealthAction.HALT_PARTITION:
        state.halt_partition(ev.source_partition)
    elif action is HealthAction.HALT_SYSTEM:
        state.halt_system()
