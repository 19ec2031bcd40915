"""Simulated sanitizers for live sanitization (§5.3)."""

from repro.sanitizers.build import (
    ASAN,
    MSAN,
    SANITIZERS,
    TSAN,
    SanitizedContext,
    Sanitizer,
    sanitized_spec,
)
from repro.sanitizers.heap import SanitizerReport, SimHeap

__all__ = [
    "ASAN",
    "MSAN",
    "SANITIZERS",
    "TSAN",
    "SanitizedContext",
    "Sanitizer",
    "sanitized_spec",
    "SanitizerReport",
    "SimHeap",
]
