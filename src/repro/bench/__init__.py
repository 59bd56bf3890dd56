"""Benchmark harness utilities (runner + table/series rendering)."""
