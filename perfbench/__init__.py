"""End-to-end and per-layer benchmark of electrovac; run ``python3 perfbench/run.py``."""
