"""Layered benchmark for the speculation stack (see run.py)."""
