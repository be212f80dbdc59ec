#!/usr/bin/env python3
"""Write perfbench/reference.json: the outputs every benchmark run is checked against.

    python3 perfbench/make_reference.py

It records, from the fibfield sources in this checkout, the exit code and
the digest of every record of each sweep workload, and builds the fixed pool
of point queries with the digest of each answer.  The run's seed only draws
from that pool.  Every `period` answer in the pool is confirmed by direct
iteration, and the main sweep's records must not depend on --jobs.  Rerun it
only when the canonical output is meant to change.
"""

from __future__ import annotations

import json
import math
import random
import sys
from time import perf_counter

import run

POOL_SEED = 20250811
POOL_ANALYZE = 1000  # primes p drawn log-uniformly in [7, 2^31)
POOL_PERIOD = 1000  # moduli N drawn log-uniformly in [10^2, 10^5), seeds uniform mod N


def log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return min(hi - 1, int(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def build_pool() -> list[list[str]]:
    sys.path.insert(0, str(run.SRC))
    from fibfield.modarith import is_prime

    rng = random.Random(POOL_SEED)
    argvs = []
    while len(argvs) < POOL_ANALYZE:
        p = log_uniform(rng, 7, 1 << 31)
        while not is_prime(p):
            p += 1
        if p < 1 << 31:
            argvs.append(["analyze", str(p), "--json"])
    for _ in range(POOL_PERIOD):
        N = log_uniform(rng, 10**2, 10**5)
        argvs.append(["period", str(N), str(rng.randrange(N)), str(rng.randrange(N)), "--json"])
    return argvs


def sweep_reference(name: str, deadline: float) -> dict:
    sweep = run.SWEEPS[name]
    proc = run.run_child(run.fibfield_cmd(sweep.argv), deadline)
    records = [[json.loads(line)["payload"]["p"], run.digest(line)] for line in proc.lines]
    if sweep.fanout_jobs > 1:
        pooled = run.run_child(run.fibfield_cmd(sweep.argv_at(sweep.fanout_jobs)), deadline)
        if (pooled.code, pooled.lines) != (proc.code, proc.lines):
            raise SystemExit(f"{name}: output depends on --jobs")
    print(f"{name}: exit {proc.code}, {len(records)} records, {proc.wall_s:.1f} s")
    return {"argv": list(sweep.argv), "exit_code": proc.code, "records": records}


def main() -> int:
    reason = run.preflight()
    if reason:
        print(f"make_reference: {reason}", file=sys.stderr)
        return 2
    deadline = perf_counter() + 3600
    sweeps = {name: sweep_reference(name, deadline) for name in run.SWEEPS}
    argvs = build_pool()
    proc = run.run_child(run.client_cmd(False), deadline, json.dumps(argvs).encode())
    lines, summary = run.split_summary(proc)
    if summary is None or len(lines) != len(argvs) or any(summary["exit_codes"]):
        raise SystemExit(f"point-query pool failed: {proc.stderr[-500:]!r}")
    for argv, line in zip(argvs, lines):
        if argv[0] == "period":
            problem = run.check_period_output(argv, line)
            if problem:
                raise SystemExit(problem)
    pool = [[argv, run.digest(line)] for argv, line in zip(argvs, lines)]
    print(f"point-queries: {len(pool)} queries, {proc.wall_s:.1f} s")
    run.REFERENCE.write_text(json.dumps({"sweeps": sweeps, "queries": pool}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
