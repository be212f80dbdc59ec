"""Enumeration caps and reproducibility constants.

`enumerate` walks all N^2 pairs, O(N^2) steps, and allocates N^2 bytes to
mark them.  A sweep needs O(p) steps, modular powers and bytes per prime:
one walk over the orbits of the lines r = b/a, skipping the orbit of the
line 0, gives each zero-free orbit's period and decides the value-set
condition, each period read by direct iteration of its line orbit's
multiplier and checked against the eigenvalue census.  So
DEFAULT_THEOREM_CAP bounds both the primes a sweep may reach and the modulus
of `enumerate`; every record carries the cap, so it stays at 4096 although
a sweep no longer needs it.  The environment variable FIBFIELD_CAP may lower
the sweep cap, never raise it; it leaves the enumeration cap alone.  The
library checks the sweep cap in one place, `fibseq.star_summary`, the walk
it bounds, and `verify` refuses a range that ends past it.
"""

from __future__ import annotations

import functools
import os
import sys

# Ceiling for theorem-level sweeps and for any enumerated modulus (O(N^2) pairs).
DEFAULT_THEOREM_CAP = 4096

# Public inputs must lie below 2^62: the cap bounds the inputs of
# modarith.is_prime and modarith.factorize.
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
