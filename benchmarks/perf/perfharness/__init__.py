"""The repo's performance benchmark: workloads, estimators, spans, layer probes.

Entry points (``run.py``, ``aa_check.py``, ``compare.py``) live one directory
up; every entry point calls :func:`perfharness.bootstrap.bootstrap` before it
imports numpy or ``repro``.
"""
