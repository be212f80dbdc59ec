"""Command-line front end.

Subcommands:
  analyze P            eigenvalues, their orders and the matrix order
  verify FROM TO       exhaustive per-prime sweep of the three conditions
  enumerate N          zero-free orbit representatives mod N
  period N A1 A2       minimal period / value set of one sequence

Every answer is one record.  `--json` prints it as canonical JSON-lines (sorted
keys, no whitespace) so output is byte-reproducible; without it the text is a
rendering of the same record.  `--jobs K` fans per-prime work out to K
processes; either way each record is written as soon as it is computed, in
ascending p, so an interrupted sweep keeps its finished primes.

Exit codes: 0 success or findings-only, 1 a proven-theorem violation was
detected, 2 usage or validation error, or an --out FILE that cannot be
opened, 141 (128 + SIGPIPE) stdout closed by its reader, as by `| head`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
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
    minimal_period,
    value_set,
)
from .modarith import is_prime
from .theorem import (
    SPECIAL_PRIMES,
    degeneracy,
    eigen_data,
    verify_complementary,
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
    # argparse replaces a ValueError's text with "invalid _parse_lucas value"
    try:
        P, Q = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--lucas expects P,Q (two integers), got {text!r}") from None
    return RecurrenceParams(P, Q)


def _orbit_payloads(reports) -> list[dict]:
    return [
        {"seed": [seq.a1, seq.a2], "period": rep.minimal_period, "values": sorted(rep.value_set)}
        for seq, rep in reports
    ]


def _emit(args, kind: str, payload: dict) -> int:
    """Print one command's record: canonical JSON under --json, else as text."""
    record = make_record(kind, payload, args.params, theorem_cap())
    if args.json:
        print(dumps_record(record))
    else:
        _print_human(record)
    return 0


def _orbit_text(orbit: dict) -> str:
    return f"seed {tuple(orbit['seed'])}  period {orbit['period']}  values {orbit['values']}"


def _print_human(record: dict) -> None:
    """The text form of any record; it reads nothing but the record."""
    kind, payload = record["kind"], record["payload"]
    if kind == "period":
        flag = "zero-free" if payload["star"] else "hits zero"
        print(f"seed {tuple(payload['seed'])} mod {payload['N']}: period {payload['period']}, "
              f"{flag}, values {payload['values']}")
    elif kind == "enumerate":
        if not payload["orbits"]:
            print(f"N = {payload['N']}: no zero-free orbits")
        for orbit in payload["orbits"]:
            print(f"N = {payload['N']}: {_orbit_text(orbit)}")
    elif kind == "analyze" and payload["splitting"] == "special":
        print(f"p = {payload['p']} is a special prime for the Fibonacci recurrence")
        for orbit in payload["orbits"]:
            print(f"  {_orbit_text(orbit)}")
    elif kind == "analyze":
        print(f"p = {payload['p']}: {payload['splitting']}")
        print(f"  phi = {payload['phi']}, phi' = {payload['phi_prime']}")
        print(f"  l = {payload['l']}, l' = {payload['l_prime']}, "
              f"M0 = {payload['M0']}, M1 = {payload['M1']}")
        print(f"  matrix order = {payload['mat_order']}")
    elif kind == "skip":
        print(f"p = {payload['p']}: skipped ({payload['reason']})")
    elif kind == "verify_complementary":
        true_ms = [m for m, e in payload["entries"].items() if e["period"]]
        print(f"p = {payload['p']}: equivalence_23 = {payload['equivalence_23']}, "
              f"star periods at m in {true_ms}")
    else:
        true_ms = [m for m, t in payload["conditions"].items() if t["period"]]
        line = (f"p = {payload['p']}: consistent = {payload['consistent']}, "
                f"star periods at m in {true_ms}")
        if not payload["consistent"]:
            bad = [m for m, t in payload["conditions"].items()
                   if not t["powerset"] == t["period"] == t["order"]]
            line += f", non-uniform at m in {bad}"
        print(line)


# ---------------------------------------------------------------- analyze


def cmd_analyze(args) -> int:
    params = args.params
    p = args.p
    if params.is_fibonacci and p in SPECIAL_PRIMES:
        orbits = _orbit_payloads(enumerate_star(p))
        return _emit(args, "analyze", {"p": p, "splitting": "special", "orbits": orbits})
    ed = eigen_data(p, params)
    payload = {
        "p": p,
        "splitting": ed.splitting,
        "phi": ed.phi,
        "phi_prime": ed.phi_prime,
        "l": ed.l,
        "l_prime": ed.l_prime,
        "M0": ed.M0,
        "M1": ed.M1,
        # ord(B): B is diagonalizable at a split p, and at an inert p l = l' = ord(B)
        "mat_order": math.lcm(ed.l, ed.l_prime),
    }
    return _emit(args, "analyze", payload)


# ----------------------------------------------------------------- verify


def _verify_worker(p: int, kind: str, params: RecurrenceParams, cap: int) -> dict:
    """Compute one per-prime record; must stay a module-level function so the
    multiprocessing pool can pickle it."""
    # p = 2 is no odd prime; for Fibonacci params this skips exactly the special primes 2 and 5
    if p == 2 or degeneracy(p, params) is not None:
        reason = "special prime" if params.is_fibonacci else "p divides 2*P*Q*(P^2-4Q)"
        return make_record("skip", {"p": p, "reason": reason}, params, cap)
    if kind == "verify_complementary":
        payload = verify_complementary(p)
    else:
        payload = verify_main(p, params)
    return make_record(kind, payload, params, cap)


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
    params = args.params
    # main prints each usage error and returns 2
    if args.start > args.stop:
        raise ValueError("empty range")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    if args.stop > cap:
        raise ValueError(f"range end {args.stop} exceeds cap {cap}")
    if args.complementary and not params.is_fibonacci:
        raise ValueError("--complementary applies to the Fibonacci recurrence only")
    if args.complementary:
        kind = "verify_complementary"
    else:
        kind = "verify_main" if params.is_fibonacci else "verify_lucas"
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
                _print_human(record)
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


# -------------------------------------------------------------- enumerate


def cmd_enumerate(args) -> int:
    orbits = _orbit_payloads(enumerate_star(args.N, args.params))
    return _emit(args, "enumerate", {"N": args.N, "orbits": orbits})


# ----------------------------------------------------------------- period


def cmd_period(args) -> int:
    seq = SequenceId(args.N, args.a1, args.a2, args.params)
    payload = {"N": args.N, "seed": [seq.a1, seq.a2], "period": minimal_period(seq),
               "star": is_star(seq), "values": sorted(value_set(seq))}
    return _emit(args, "period", payload)


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
                       metavar="P,Q", help="recurrence a_n = P a_{n-1} - Q a_{n-2}; "
                       "a negative P needs the = form, as in --lucas=-3,5")
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
        code = args.func(args)
        # a reader that has gone away is met here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # as the signal module's docs advise: the interpreter flushes stdout
        # again at exit, so point it at devnull to keep that flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (FibfieldError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
