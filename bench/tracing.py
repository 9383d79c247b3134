"""Layer spans for the traced benchmark run, recorded from outside partsim.

``Tracer.install`` replaces the public entry points of each partsim module
with wrappers that record a span (name, start, end, parent) around every
call; ``uninstall`` puts the originals back.  Spans stay in memory until
the run ends.  A span's self time is its duration minus the durations of
its direct child spans, so the self times of one call tree add up to the
duration of its root span.
"""

from __future__ import annotations

import functools
import re
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "partsim"
EVENT_KINDS = ("SLOT_START", "SLOT_END", "FRAME_WRAP", "APP_ACTION", "HM_EVENT")
QUEUING_OPS = {"SEND", "RECV"}

# (module, class or None, function): the layer boundaries the spans mark
ENTRY_POINTS = (
    ("cli", None, "main"),
    ("config", None, "parse_config"),
    ("config", None, "validate"),
    ("harness", None, "load_scenario"),
    ("harness", None, "run_scenario"),
    ("harness", None, "export_csv"),
    ("harness", None, "read_csv"),
    ("harness", None, "summarize"),
    ("scheduler", "SimState", "boot"),
    ("scheduler", "SimState", "run_until"),
    ("workload", None, "plan_until_next_action"),
    ("channels", "PortTable", "send"),
    ("channels", "PortTable", "receive"),
    ("channels", "PortTable", "read"),
    ("health", None, "raise_event"),
    ("middleware", None, "tx_time"),
    ("middleware", None, "repetition_rng"),
    ("trace", None, "write_trace"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.port_ops: Counter = Counter()  # (queuing?, status OK?) -> calls
        self.rows_exported = 0
        self.run_records: list[list] = []  # what each run_until returned

    def _wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _hooks(self):
        def port_op(op_field):
            def hook(args, result):
                self.port_ops[result[op_field] in QUEUING_OPS, result[0].value == "OK"] += 1
            return hook

        def exported(args, result):
            self.rows_exported += len(args[0])

        return {
            "PortTable.send": port_op(3),
            "PortTable.receive": port_op(3),
            "PortTable.read": port_op(4),
            "SimState.run_until": lambda args, result: self.run_records.append(result),
            "export_csv": exported,
        }

    def install(self) -> None:
        """Wrap every entry point, including each alias a module imported
        under its own name, so calls are traced whichever name they use."""
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        hooks = self._hooks()
        for module_name, cls_name, attr in ENTRY_POINTS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            key = f"{cls_name}.{attr}" if cls_name else attr
            name = f"{module_name}.{key}"
            if cls_name is not None:
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._replace(owner, attr, original, self._wrap(name, original, hooks.get(key)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, hooks.get(key))
            for m in modules:
                for alias, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, alias, original, wrapper)

    def _replace(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.port_ops.clear()
        self.rows_exported = 0
        self.run_records = []

    def totals(self, first: int = 0, last: int | None = None):
        """Per span name: (calls, inclusive seconds, self seconds) over the
        spans with index in [first, last)."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= first:
                child[parent - first] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), covered in zip(spans, child):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered
        return out


def write_spans(spans, path) -> None:
    """Write spans as tab-separated name, start, end, parent index."""
    with open(path, "w", encoding="ascii") as fh:
        for name, start, end, parent in spans:
            fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def layer_metrics(tracer: Tracer, conditions: int, trace_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (one run plus its report)."""
    t = tracer.totals()

    def calls(name):
        return t[name][0] if name in t else 0

    def incl(name):
        return t[name][1] if name in t else 0.0

    def own(name):
        return t[name][2] if name in t else 0.0

    sims = calls("scheduler.SimState.boot")
    records = sum(len(r) for r in tracer.run_records)
    kinds = Counter(getattr(r, "kind", None) for rs in tracer.run_records for r in rs)
    run_until_s = incl("scheduler.SimState.run_until")
    port_names = [f"channels.PortTable.{op}" for op in ("send", "receive", "read")]
    ops = sum(calls(n) for n in port_names)
    op_s = sum(incl(n) for n in port_names)
    tx_calls = calls("middleware.tx_time")
    m = {
        "config.parse_s": incl("config.parse_config"),
        "config.validate_calls": calls("config.validate"),
        "config.validate_s": incl("config.validate"),
        "harness.load_scenario_s": own("harness.load_scenario"),
        "harness.run_self_s": own("harness.run_scenario"),
        "harness.sims": sims,
        "harness.conditions": conditions,
        "harness.sims_per_condition": sims / conditions,
        "harness.rows": tracer.rows_exported,
        "harness.export_csv_s": incl("harness.export_csv"),
        "harness.read_csv_s": incl("harness.read_csv"),
        "harness.summarize_s": incl("harness.summarize"),
        "scheduler.boot_s": own("scheduler.SimState.boot"),
        "scheduler.run_self_s": own("scheduler.SimState.run_until"),
        "scheduler.records": records,
        "scheduler.records_per_s": records / run_until_s if run_until_s else 0.0,
        "scheduler.us_per_record": run_until_s / records * 1e6 if records else 0.0,
        "workload.plan_calls": calls("workload.plan_until_next_action"),
        "workload.plan_s": incl("workload.plan_until_next_action"),
        "channels.ops.queuing": sum(n for (q, _), n in tracer.port_ops.items() if q),
        "channels.ops.sampling": sum(n for (q, _), n in tracer.port_ops.items() if not q),
        "channels.op_s": op_s,
        "channels.ns_per_op": op_s / ops * 1e9 if ops else 0.0,
        "channels.ok_ratio": (sum(n for (_, ok), n in tracer.port_ops.items() if ok) / ops
                              if ops else 0.0),
        "health.events": calls("health.raise_event"),
        "health.raise_s": incl("health.raise_event"),
        "middleware.tx_time_calls": tx_calls,
        "middleware.tx_time_s": incl("middleware.tx_time"),
        "middleware.ns_per_tx_time": (incl("middleware.tx_time") / tx_calls * 1e9
                                      if tx_calls else 0.0),
        "middleware.rng_s": incl("middleware.repetition_rng"),
        "trace.write_s": incl("trace.write_trace"),
        "trace.bytes": trace_bytes,
        "cli.self_s": own("cli.main"),
    }
    for kind in EVENT_KINDS:
        m[f"scheduler.events.{kind}"] = kinds[kind]
    return m


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Self seconds of each partsim module from ``-X importtime``
    output, keyed ``import.<module>_s`` (``import.partsim_s`` for the
    package's own ``__init__``)."""
    out = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m is None:
            continue
        module = m.group(3)
        if module == PACKAGE or module.startswith(PACKAGE + "."):
            out[f"import.{module.rpartition('.')[2]}_s"] = int(m.group(1)) / 1e6
    return out


def import_times(env: dict, runs: int) -> dict[str, float]:
    """Median per-module self import time over ``runs`` fresh interpreters."""
    samples: dict[str, list[float]] = defaultdict(list)
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", f"import {PACKAGE}.cli"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        for key, value in parse_importtime(proc.stderr).items():
            samples[key].append(value)
    return {key: statistics.median(values) for key, values in samples.items()}
