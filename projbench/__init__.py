"""Benchmark of the projflow CLI: workloads, output checkers, tracing and run tools."""
