"""Fault-injection suite: prove every recovery path actually recovers.

The measures in :mod:`tests.faultinjection.faults` deterministically
crash a worker process, hang it, raise, or corrupt a score — exactly
once — so these tests exercise the worker engine's restart, request
timeout, re-gather and in-process ladder, the checkpoint-resume machinery (including a real ``SIGKILL``),
and the degenerate-input sanitization gate end-to-end.
"""
