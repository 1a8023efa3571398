"""Benchmark harness for pairq; see README.md in this directory."""
