"""Benchmark harness for quatsurf: seeded workloads, output checks, and a
traced run that reports per-layer self time.  Entry point: ``run.py``."""
