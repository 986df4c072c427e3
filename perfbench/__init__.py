"""Steady end-to-end benchmark of the reproduction; entry point ``run.py``."""
