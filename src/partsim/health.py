"""Health monitoring: anomaly events, action resolution, propagation.

The engine raises two kinds of anomaly with
``raise_event(state, kind, partition_id, detail)``: a slot overrun, when
the planner finds a running COMPUTE truncated by its slot end (the detail
is the overrun in ns), and a memory violation, when a port call names a
port its partition does not own (the detail is ``"<op> <port>"``).  A
scenario script raises both: ``harness.validate_scenario`` refuses only a
port name that no channel has (``SCRIPT_PORT``), so a call on another
partition's port runs, as it does through the ``SimState`` API, and meets
this one policy.  A HealthTable maps (kind, partition) to the
action the hypervisor applies; per-partition overrides fall back to a
per-kind default, which starts as DEFAULT_ACTIONS for every kind.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from . import trace

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


#: Overruns are logged so experiments keep running; violations of
#: spatial isolation suspend the offender so they stay visible in the trace.
DEFAULT_ACTIONS: dict[HmKind, HealthAction] = {
    HmKind.SLOT_OVERRUN: HealthAction.LOG,
    HmKind.MEMORY_VIOLATION: HealthAction.SUSPEND_PARTITION,
}


class HealthTable:
    def __init__(self) -> None:
        self.defaults: dict[HmKind, HealthAction] = dict(DEFAULT_ACTIONS)
        self.overrides: dict[tuple[HmKind, int], HealthAction] = {}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HealthTable) and vars(self) == vars(other)

    def resolve(self, kind: HmKind, partition_id: int) -> HealthAction:
        return self.overrides.get((kind, partition_id), self.defaults[kind])

    def set_default(self, kind: HmKind, action: HealthAction) -> None:
        self.defaults[kind] = action

    def set_override(self, kind: HmKind, partition_id: int, action: HealthAction) -> None:
        self.overrides[(kind, partition_id)] = action


def raise_event(state: SimState, kind: HmKind, partition_id: int, detail: str) -> None:
    """Record an anomaly of ``kind`` in ``partition_id`` at ``state.now``
    and apply its resolved action.

    The HM_EVENT line plus an HM resolution line addressed to the
    partition go to the trace; the action then mutates at most that
    partition (or ends the run for HALT_SYSTEM).
    """
    now = state.now
    action = state.health_table.resolve(kind, partition_id)
    state.record_event(now, "HM_EVENT", partition_id)
    state.trace.append(trace.HmRecord(now, kind.value, partition_id, action.value, detail))
    if action is HealthAction.LOG:
        return
    if action is HealthAction.SUSPEND_PARTITION:
        state.suspend_if_normal(partition_id)
    elif action is HealthAction.HALT_PARTITION:
        state.halt_partition(partition_id)
    elif action is HealthAction.HALT_SYSTEM:
        state.halt_system()
