"""Support package for the netrev benchmark command (perfbench/run.py)."""
