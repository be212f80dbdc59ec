"""Command-line front end.

Subcommands:
  analyze P            eigenvalues, their orders and the matrix order
  verify FROM TO       exhaustive per-prime sweep of the three conditions
  enumerate N          zero-free orbit representatives mod N
  period N A1 A2       minimal period / value set of one sequence

`--json` emits canonical JSON-lines (one record per line, sorted keys, no
whitespace) so output is byte-reproducible; `--jobs K` fans per-prime work
out to K processes.  Either way each record is written as soon as it is
computed, in ascending p, so an interrupted sweep keeps its finished primes.

Exit codes: 0 success or findings-only, 1 a proven-theorem violation was
detected, 2 usage or validation error, or an --out FILE that cannot be
opened.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import ExitStack
from functools import partial

from .config import GENERATOR_SEED, theorem_cap
from .errors import FibfieldError
from .fibseq import (
    FIBONACCI,
    RecurrenceParams,
    SequenceId,
    enumerate_star,
    is_star,
    mat_order,
    minimal_period,
    value_set,
)
from .modarith import is_prime
from .theorem import (
    SPECIAL_PRIMES,
    eigen_data,
    special_case_report,
    verify_complementary,
    verify_lucas,
    verify_main,
)

SCHEMA_VERSION = 1


def make_record(kind: str, payload: dict, params: RecurrenceParams, cap: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "config": {
            "params": [params.P, params.Q],
            "cap": cap,
            "generator_seed": GENERATOR_SEED,
        },
        "payload": payload,
    }


def dumps_record(record: dict) -> str:
    """Canonical serialization: re-serializing a parsed record is identical."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _parse_lucas(text: str) -> RecurrenceParams:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("--lucas expects P,Q")
    return RecurrenceParams(int(parts[0]), int(parts[1]))


def _orbit_payloads(reports) -> list[dict]:
    return [
        {"seed": [seq.a1, seq.a2], "period": rep.minimal_period, "values": sorted(rep.value_set)}
        for seq, rep in reports
    ]


# ---------------------------------------------------------------- analyze


def cmd_analyze(args) -> int:
    params = args.params
    p = args.p
    if params.is_fibonacci and p in SPECIAL_PRIMES:
        reports = special_case_report(p)
        payload = {"p": p, "splitting": "special", "orbits": _orbit_payloads(reports)}
        record = make_record("analyze", payload, params, theorem_cap())
        if args.json:
            print(dumps_record(record))
        else:
            print(f"p = {p} is a special prime for the Fibonacci recurrence")
            for orbit in payload["orbits"]:
                print(f"  seed {tuple(orbit['seed'])}  period {orbit['period']}  "
                      f"values {orbit['values']}")
        return 0
    ed = eigen_data(p, params)
    if ed.splitting == "split":
        phi, phi_prime = ed.phi, ed.phi_prime
    else:
        phi = [ed.phi.c0, ed.phi.c1]
        phi_prime = [ed.phi_prime.c0, ed.phi_prime.c1]
    payload = {
        "p": p,
        "splitting": ed.splitting,
        "phi": phi,
        "phi_prime": phi_prime,
        "l": ed.l,
        "l_prime": ed.l_prime,
        "M0": ed.M0,
        "M1": ed.M1,
        "mat_order": mat_order(params, p),
    }
    record = make_record("analyze", payload, params, theorem_cap())
    if args.json:
        print(dumps_record(record))
    else:
        print(f"p = {p}: {ed.splitting}")
        print(f"  phi = {phi}, phi' = {phi_prime}")
        print(f"  l = {ed.l}, l' = {ed.l_prime}, M0 = {ed.M0}, M1 = {ed.M1}")
        print(f"  matrix order = {payload['mat_order']}")
    return 0


# ----------------------------------------------------------------- verify


def _verify_worker(p: int, kind: str, params: RecurrenceParams, cap: int) -> dict:
    """Compute one per-prime record; must stay a module-level function so the
    multiprocessing pool can pickle it."""
    if kind != "verify_lucas" and p in SPECIAL_PRIMES:
        payload = {"p": p, "reason": "special prime"}
        return make_record("skip", payload, params, cap)
    if kind == "verify_complementary":
        report = verify_complementary(p)
    elif kind == "verify_main":
        report = verify_main(p, params)
    elif math.gcd(p, 2 * params.P * params.Q * params.discriminant) != 1:
        payload = {"p": p, "reason": "p divides 2*P*Q*(P^2-4Q)"}
        return make_record("skip", payload, params, cap)
    else:
        report = verify_lucas(p, params)
    return make_record(kind, report.payload(), params, cap)


def _load_cached(path: str, kind: str, params: RecurrenceParams) -> dict[int, dict]:
    """Records in FILE that a sweep of this kind and these params would write,
    by p: a main, complementary or Lucas sweep never reuses another's."""
    done: dict[int, dict] = {}
    try:
        with open(path) as fh:
            for line in fh:
                try:
                    record = json.loads(line)
                    same = (record["kind"] in ("skip", kind)
                            and record["config"]["params"] == [params.P, params.Q])
                    p = record["payload"]["p"]
                except (ValueError, KeyError, TypeError):
                    continue
                if same and isinstance(p, int):
                    done[p] = record
    except FileNotFoundError:
        pass
    return done


def cmd_verify(args) -> int:
    cap = theorem_cap()
    if args.start > args.stop:
        print("error: empty range", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 2
    if args.stop > cap:
        print(f"error: range end {args.stop} exceeds cap {cap}", file=sys.stderr)
        return 2
    params = args.params
    if args.complementary:
        kind = "verify_complementary"
    else:
        kind = "verify_main" if params.is_fibonacci else "verify_lucas"
    if args.complementary and not params.is_fibonacci:
        print("error: --complementary applies to the Fibonacci recurrence only",
              file=sys.stderr)
        return 2
    primes = [p for p in range(max(args.start, 2), args.stop + 1) if is_prime(p)]
    cached: dict[int, dict] = {}
    if args.out and not args.force:
        cached = _load_cached(args.out, kind, params)
    todo = [p for p in primes if p not in cached]
    # a cached verdict counts as if it had been computed again
    violations = sum(_is_violation(cached[p]) for p in primes if p in cached)
    findings = sum(_is_finding(cached[p]) for p in primes if p in cached)
    work = partial(_verify_worker, kind=kind, params=params, cap=cap)
    with ExitStack() as stack:
        # line-buffered, so every finished record reaches FILE at once
        out_fh = stack.enter_context(open(args.out, "a", buffering=1)) if args.out else None
        if args.jobs > 1 and len(todo) > 1:
            # deferred: multiprocessing is a slow import that serial runs never need
            from multiprocessing import Pool
            pool = stack.enter_context(Pool(min(args.jobs, len(todo))))
            records = pool.imap(work, todo)
        else:
            records = map(work, todo)
        for record in records:
            line = dumps_record(record)
            if out_fh is not None:
                out_fh.write(line + "\n")
            if args.json:
                print(line)
            elif out_fh is None:
                _print_verify_human(record)
            violations += _is_violation(record)
            findings += _is_finding(record)
    if findings:
        print(f"warning: {findings} report-only discrepancies (not theorem violations)",
              file=sys.stderr)
    if violations:
        print(f"FAILURE: {violations} main-theorem inconsistencies", file=sys.stderr)
        return 1
    return 0


def _is_violation(record: dict) -> bool:
    """An inconsistent main-sweep record: the run exits 1."""
    return record["kind"] == "verify_main" and not record["payload"].get("consistent", True)


def _is_finding(record: dict) -> bool:
    """A report-only discrepancy: a warning on stderr, never exit 1."""
    payload = record["payload"]
    if record["kind"] == "verify_lucas":
        return not payload.get("consistent", True)
    if record["kind"] == "verify_complementary":
        return not payload.get("equivalence_23", True)
    return False


def _print_verify_human(record: dict) -> None:
    kind = record["kind"]
    payload = record["payload"]
    p = payload["p"]
    if kind == "skip":
        print(f"p = {p}: skipped ({payload['reason']})")
        return
    if kind == "verify_complementary":
        true_ms = [m for m, e in payload["entries"].items() if e["period"]]
        print(f"p = {p}: equivalence_23 = {payload['equivalence_23']}, "
              f"star periods at m in {true_ms}")
        return
    true_ms = [m for m, t in payload["conditions"].items() if t["period"]]
    line = f"p = {p}: consistent = {payload['consistent']}, star periods at m in {true_ms}"
    if not payload["consistent"]:
        bad = [m for m, t in payload["conditions"].items()
               if not t["powerset"] == t["period"] == t["order"]]
        line += f", non-uniform at m in {bad}"
    print(line)


# -------------------------------------------------------------- enumerate


def cmd_enumerate(args) -> int:
    params = args.params
    reports = enumerate_star(args.N, params)
    payload = {"N": args.N, "orbits": _orbit_payloads(reports)}
    record = make_record("enumerate", payload, params, theorem_cap())
    if args.json:
        print(dumps_record(record))
    else:
        if not reports:
            print(f"N = {args.N}: no zero-free orbits")
        for orbit in payload["orbits"]:
            print(f"N = {args.N}: seed {tuple(orbit['seed'])}  period {orbit['period']}  "
                  f"values {orbit['values']}")
    return 0


# ----------------------------------------------------------------- period


def cmd_period(args) -> int:
    params = args.params
    seq = SequenceId(args.N, args.a1, args.a2, params)
    m = minimal_period(seq)
    star = is_star(seq)
    values = sorted(value_set(seq))
    payload = {"N": args.N, "seed": [seq.a1, seq.a2], "period": m, "star": star,
               "values": values}
    record = make_record("period", payload, params, theorem_cap())
    if args.json:
        print(dumps_record(record))
    else:
        flag = "zero-free" if star else "hits zero"
        print(f"seed ({seq.a1}, {seq.a2}) mod {args.N}: period {m}, {flag}, values {values}")
    return 0


# ------------------------------------------------------------------ main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibfield",
        description="Fibonacci/Lucas recurrences over residue rings: periods, "
                    "eigenvalue orders and exhaustive condition sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--lucas", type=_parse_lucas, dest="params", default=FIBONACCI,
                       metavar="P,Q", help="recurrence a_n = P a_{n-1} - Q a_{n-2}")
        p.add_argument("--json", action="store_true", help="emit canonical JSON lines")

    p_an = sub.add_parser("analyze", help="eigenvalue orders for one prime")
    p_an.add_argument("p", type=int)
    common(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_ve = sub.add_parser("verify", help="sweep the condition triples over a prime range")
    p_ve.add_argument("start", type=int)
    p_ve.add_argument("stop", type=int)
    p_ve.add_argument("--complementary", action="store_true",
                      help="report the norm-subgroup sweep over m | 2(p+1)")
    p_ve.add_argument("--out", metavar="FILE", help="append JSONL records to FILE, "
                      "skipping primes already present")
    p_ve.add_argument("--force", action="store_true", help="recompute cached primes")
    p_ve.add_argument("--jobs", type=int, default=1, metavar="K",
                      help="per-prime worker processes")
    common(p_ve)
    p_ve.set_defaults(func=cmd_verify)

    p_en = sub.add_parser("enumerate", help="zero-free orbit representatives mod N")
    p_en.add_argument("N", type=int)
    common(p_en)
    p_en.set_defaults(func=cmd_enumerate)

    p_pe = sub.add_parser("period", help="period/value set of one sequence")
    p_pe.add_argument("N", type=int)
    p_pe.add_argument("a1", type=int)
    p_pe.add_argument("a2", type=int)
    common(p_pe)
    p_pe.set_defaults(func=cmd_period)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FibfieldError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
