"""Enumeration caps and reproducibility constants.

All exhaustive sweeps are O(N^2) in the modulus, so they are capped.  The
environment variable FIBFIELD_CAP may lower the theorem-verification cap,
never raise it.
"""

from __future__ import annotations

import functools
import os
import sys

# Hard ceiling on any modulus accepted by enumeration operations.
HARD_CAP = 1 << 20

# Default ceiling for theorem-level O(p^2) sweeps.
DEFAULT_THEOREM_CAP = 4096

# All public inputs must fit in signed 62-bit so products stay exact.
INT_WIDTH_CAP = 1 << 62

# Kept in every record's config block for format stability (schema_version 1);
# it drives no computation.
GENERATOR_SEED = 0x5EED

ENV_CAP_VAR = "FIBFIELD_CAP"


def theorem_cap() -> int:
    """Effective cap for theorem sweeps: FIBFIELD_CAP may only lower it."""
    raw = os.environ.get(ENV_CAP_VAR)
    if raw is None:
        return DEFAULT_THEOREM_CAP
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 2:
        _warn_ignored(raw)
        return DEFAULT_THEOREM_CAP
    return min(value, DEFAULT_THEOREM_CAP)


@functools.cache
def _warn_ignored(raw: str) -> None:
    """Say once per process and value that FIBFIELD_CAP is ignored; stdout
    stays canonical."""
    print(f"warning: ignoring {ENV_CAP_VAR}={raw!r} (not an integer >= 2); "
          f"using the default cap {DEFAULT_THEOREM_CAP}", file=sys.stderr)
