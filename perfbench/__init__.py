"""MooD benchmark: see run.py."""
