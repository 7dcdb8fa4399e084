"""Benchmark for cckit: workloads, tracing and the runner (see README.md)."""
