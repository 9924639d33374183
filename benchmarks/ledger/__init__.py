"""Perf ledger: per-cell overhead, checkout latency and enqueue-to-durable
time on four seeded workloads, with an outside-in per-layer breakdown.
See README.md in this directory."""
