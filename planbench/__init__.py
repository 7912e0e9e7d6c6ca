"""Layered benchmark of the planner: workloads, tracer and answer checks.

Run it with ``python3 planbench/run.py``; see ``planbench/README.md``.
"""
