"""Fibonacci and Lucas recurrences over finite fields and residue rings.

verify_main and verify_complementary return the payload dict of one JSONL
record; Lucas params go through both.
"""

from .fibseq import FIBONACCI, RecurrenceParams, SequenceId
from .theorem import eigen_data, verify_complementary, verify_main

__all__ = [
    "FIBONACCI",
    "RecurrenceParams",
    "SequenceId",
    "eigen_data",
    "verify_main",
    "verify_complementary",
]
