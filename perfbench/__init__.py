"""Standalone benchmark for pimfuncs; run it with ``python3 perfbench/run.py``."""
