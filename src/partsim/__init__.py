"""partsim: deterministic simulation of a partitioned real-time system.

A fixed cyclic scheduler with strict temporal isolation, sampling and
queuing inter-partition ports, a health monitor, scripted partition
workloads, a broker-mediated pub/sub delay emulator, and a measurement
harness that sweeps payload sizes over repeated runs and reports exact
latency statistics.

The package itself defines and re-exports nothing: import each name from
the module that defines it, so importing one module loads only what that
module needs.
"""
