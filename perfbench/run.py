#!/usr/bin/env python3
"""Benchmark of the fibfield verifier: end-to-end timings and per-layer traces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

With --trace 0 the sweeps run the `fibfield` CLI as a subprocess
(`python3 -m fibfield` with PYTHONPATH=src) and point-queries runs a client
process that calls `fibfield.cli.main(argv)` in-process, for S seconds.
With --trace 1 the workload runs at --jobs 1 in a client process whose
fibfield functions are wrapped by perfbench/tracer.py, twice traced and once
untraced, which gives the per-layer metrics and the tracer's own overhead;
the main sweep also runs once untraced at --jobs 2 for the fan-out share.

Every output is checked against perfbench/reference.json.  The last stdout
line is one JSON object with the keys correct, attempted, failed, metrics.
See perfbench/README.md for the metrics and the reasons for each workload.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CLIENT = BENCH / "client.py"
REFERENCE = BENCH / "reference.json"
SUMMARY_PREFIX = b"#perfbench "

RUN_LIMIT_S = 170.0  # children still running this long after the start are killed
QUERY_BATCH = 200  # queries per client process in a timed point-queries run
TRACE_QUERIES = 300  # queries per pass in a traced point-queries run
PERIOD_CHECKS = 8  # period queries re-derived by direct iteration per run


@dataclass(frozen=True)
class Sweep:
    """A `fibfield verify` range whose output is fixed, so it is checked byte for byte."""

    argv: tuple[str, ...]
    setup_argv: tuple[str, ...]
    fanout_jobs: int = 1  # the traced run also times the sweep at this --jobs
    inconsistent: tuple[int, ...] | None = None  # expected main-sweep violations

    def argv_at(self, jobs: int) -> list[str]:
        return [*self.argv, "--jobs", str(jobs)] if jobs > 1 else list(self.argv)


SWEEPS = {
    "main-400-j1": Sweep(("verify", "3", "400", "--json"), ("verify", "3", "7", "--json"),
                         fanout_jobs=2, inconsistent=(13, 17)),
    "complementary-400-j1": Sweep(("verify", "3", "400", "--complementary", "--json"),
                                  ("verify", "3", "7", "--complementary", "--json")),
}
QUERIES = "point-queries"
QUERY_SETUP_ARGV = ("analyze", "7", "--json")
WORKLOADS = (*SWEEPS, QUERIES)


# ------------------------------------------------------------- processes


@dataclass
class Proc:
    """What one child process did, seen from outside."""

    code: int
    wall_s: float
    line_times: list[float]  # seconds from launch to each stdout line
    lines: list[bytes]
    stderr: bytes
    cpu_s: float  # user + system of the process and the children it waited for
    rss_mb: float  # largest RSS among the same processes

    @property
    def first_line_s(self) -> float:
        return self.line_times[0] if self.line_times else self.wall_s


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(cmd: list[str], deadline: float, stdin: bytes | None = None) -> Proc:
    """Run cmd from the checkout root and wait for it; kill its process group
    if it is still running at `deadline` (a perf_counter value)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, start_new_session=True,
        stdin=subprocess.DEVNULL if stdin is None else subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    timer = threading.Timer(max(0.0, deadline - perf_counter()), _kill_group, (proc.pid,))
    timer.start()
    errors: list[bytes] = []
    drain = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    drain.start()
    lines: list[bytes] = []
    times: list[float] = []
    try:
        if stdin is not None:
            proc.stdin.write(stdin)
            proc.stdin.close()
        for line in proc.stdout:
            times.append(perf_counter() - start)
            lines.append(line)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            _kill_group(proc.pid)
            proc.wait()
        drain.join()
        proc.stdout.close()
        proc.stderr.close()
    return Proc(proc.returncode, wall, times, lines, b"".join(errors),
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def fibfield_cmd(argv) -> list[str]:
    return [sys.executable, "-m", "fibfield", *argv]


def client_cmd(traced: bool) -> list[str]:
    return [sys.executable, str(CLIENT), "--root", str(ROOT)] + (["--trace"] if traced else [])


def split_summary(proc: Proc) -> tuple[list[bytes], dict | None]:
    """Separate a client's fibfield output lines from its closing summary."""
    if proc.lines and proc.lines[-1].startswith(SUMMARY_PREFIX):
        return proc.lines[:-1], json.loads(proc.lines[-1][len(SUMMARY_PREFIX):])
    return proc.lines, None


# ------------------------------------------------------------ correctness


def digest(line: bytes) -> str:
    return hashlib.sha256(line).hexdigest()[:16]


class Tally:
    """Operations attempted and failed, and what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)
        elif len(self.problems) == 20:
            self.problems.append("... further problems not shown")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def check_sweep(name: str, ref: dict, lines: list[bytes], code: int, tally: Tally) -> None:
    """One operation per reference record; a record fails if it is missing,
    its bytes differ, or the exit code differs from the reference."""
    records = ref["records"]
    tally.attempted += len(records)
    if code != ref["exit_code"]:
        tally.failed += len(records)
        tally.problem(f"{name}: exit code {code}, expected {ref['exit_code']}")
        return
    bad = sum(i >= len(lines) or digest(lines[i]) != d for i, (_, d) in enumerate(records))
    if len(lines) != len(records):
        tally.problem(f"{name}: {len(lines)} records, expected {len(records)}")
    if bad:
        tally.failed += bad
        tally.problem(f"{name}: {bad} records differ from the reference")
    expected = SWEEPS[name].inconsistent
    if expected is not None and not bad:
        found = set()
        for line in lines:
            record = json.loads(line)
            if record["kind"] == "verify_main" and not record["payload"]["consistent"]:
                found.add(record["payload"]["p"])
        if found != set(expected):
            tally.problem(f"{name}: inconsistent primes {sorted(found)}, expected {list(expected)}")


def check_queries(pool: list, picks: list[int], lines: list[bytes], summary: dict | None,
                  tally: Tally) -> None:
    """One operation per query: it fails if its exit code is not 0 or its
    output differs from the reference."""
    tally.attempted += len(picks)
    if summary is None or len(lines) != len(picks):
        tally.failed += len(picks)
        tally.problem(f"{QUERIES}: {len(lines)} output lines for {len(picks)} queries")
        return
    bad = sum(code != 0 or digest(line) != pool[q][1]
              for q, line, code in zip(picks, lines, summary["exit_codes"]))
    if bad:
        tally.failed += bad
        tally.problem(f"{QUERIES}: {bad} of {len(picks)} queries differ from the reference")


def walk_period(N: int, a1: int, a2: int) -> list[int]:
    """Terms of the Fibonacci-rule sequence (a1, a2) mod N over one period, by direct
    iteration: the first return of the pair is the minimal period."""
    start = a, b = a1 % N, a2 % N
    terms = []
    while True:
        terms.append(a)
        a, b = b, (a + b) % N
        if (a, b) == start:
            return terms


def check_period_output(argv: list[str], line: bytes) -> str | None:
    """Confirm a `period N a1 a2` answer: B^k v = v for the reported k, no
    smaller k works, and the zero-free flag and value set match."""
    N, a1, a2 = (int(x) for x in argv[1:4])
    terms = walk_period(N, a1, a2)
    payload = json.loads(line)["payload"]
    if (payload["period"], payload["star"], payload["values"]) != (
            len(terms), 0 not in terms, sorted(set(terms))):
        return f"period {N} {a1} {a2}: reported period {payload['period']}, walk gives {len(terms)}"
    return None


# ---------------------------------------------------------------- queries


def query_stream(pool: list, seed: int):
    """Seeded closed-loop mix: `analyze p` and `period N a1 a2` alternate, and
    each kind walks its half of the reference pool in a seeded order that is
    reshuffled when used up.  Drawing without replacement keeps the cost mix
    of a run, and so its tail latency, close to the pool's whatever the seed."""
    rng = random.Random(seed)
    halves = [[i for i, (argv, _) in enumerate(pool) if argv[0] == kind]
              for kind in ("analyze", "period")]
    while True:
        for half in halves:
            rng.shuffle(half)
        for pair in zip(*halves):
            yield from pair


def direct_period_checks(pool: list, picks: list[int], outputs: dict[int, bytes],
                         tally: Tally) -> None:
    checked = 0
    for q in dict.fromkeys(picks):
        argv = pool[q][0]
        if argv[0] != "period" or q not in outputs:
            continue
        problem = check_period_output(argv, outputs[q])
        if problem:
            tally.problem(problem)
        checked += 1
        if checked == PERIOD_CHECKS:
            break


# ------------------------------------------------------------ measurement


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def setup_launch(argv, deadline: float, tally: Tally) -> float:
    """Wall time of one fresh CLI launch on a trivial input of the workload's path."""
    proc = run_child(fibfield_cmd(argv), deadline)
    if proc.code != 0:
        tally.problem(f"setup run {' '.join(argv)} exited {proc.code}")
    return proc.wall_s


def repeat_for(seconds: float, step) -> None:
    """Call step() at least once, and again while one more call of median
    length would end the run nearer to `seconds` than it ends now."""
    start = perf_counter()
    durations = []
    while True:
        t0 = perf_counter()
        step()
        durations.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(durations) / 2 >= seconds:
            return


def end_to_end(procs: list[Proc], latencies: list[float], ops: int, setup: list[float],
               samples: dict):
    walls = [p.wall_s for p in procs]
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "first_record_s": metric(statistics.median(p.first_line_s for p in procs), "s"),
        "cpu_s": metric(statistics.median(p.cpu_s for p in procs), "s"),
        "peak_rss_mb": metric(max(p.rss_mb for p in procs), "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
        "query_p50_ms": metric(1000 * quantile(latencies, 0.50), "ms"),
        "query_p99_ms": metric(1000 * quantile(latencies, 0.99), "ms"),
        "queries_per_s": metric(ops / sum(walls), "1/s"),
    }
    samples.update({"operations": len(latencies), "setup_launches": len(setup),
                    "walls_s": [round(w, 3) for w in walls]})
    return metrics, samples


def timed_sweep(name: str, ref: dict, seconds: float, deadline: float, tally: Tally):
    """Setup launches are spread over the run, one before each repetition, so
    that their median does not rest on one moment of the host.  The first
    launch, which may write bytecode caches, is not counted."""
    sweep = SWEEPS[name]
    setup_launch(sweep.setup_argv, deadline, tally)
    setup: list[float] = []
    procs: list[Proc] = []

    def step():
        setup.append(setup_launch(sweep.setup_argv, deadline, tally))
        proc = run_child(fibfield_cmd(sweep.argv), deadline)
        procs.append(proc)
        check_sweep(name, ref, proc.lines, proc.code, tally)

    repeat_for(seconds, step)
    # a sweep prints one record per prime: a record is the operation, and its
    # latency runs from launch to its line on stdout.  The records of one
    # process are not independent samples (today they all appear at exit), so
    # the percentiles are taken over the records of the median repetition.
    median_rep = sorted(procs, key=lambda p: p.wall_s)[len(procs) // 2]
    ops = sum(len(p.line_times) for p in procs)
    return end_to_end(procs, median_rep.line_times or [median_rep.wall_s], ops, setup,
                      {"repetitions": len(procs)})


def timed_queries(pool: list, seed: int, seconds: float, deadline: float, tally: Tally):
    setup_launch(QUERY_SETUP_ARGV, deadline, tally)
    setup: list[float] = []
    stream = query_stream(pool, seed)
    procs: list[Proc] = []
    latencies: list[float] = []
    outputs: dict[int, bytes] = {}
    picked: list[int] = []

    def step():
        setup.append(setup_launch(QUERY_SETUP_ARGV, deadline, tally))
        picks = list(itertools.islice(stream, QUERY_BATCH))
        proc = run_child(client_cmd(False), deadline, json.dumps([pool[q][0] for q in picks]).encode())
        procs.append(proc)
        lines, summary = split_summary(proc)
        check_queries(pool, picks, lines, summary, tally)
        if summary is not None:
            latencies.extend(summary["latencies_s"])
            outputs.update(zip(picks, lines))
        picked.extend(picks)

    repeat_for(seconds, step)
    direct_period_checks(pool, picked, outputs, tally)
    if not latencies:
        latencies = [p.wall_s for p in procs]
    return end_to_end(procs, latencies, len(picked), setup, {"batches": len(procs)})


# ------------------------------------------------------------------ trace

# Spans reported as <span>.calls and <span>.s (inclusive seconds).
REPORTED_SPANS = (
    "fibseq.sweep_star_orbits", "fibseq.mat_order", "fibseq.minimal_period",
    "modarith.power_subgroup", "modarith.factorize", "modarith.multiplicative_order",
    "modarith.is_prime", "quadext.n_pm_power_subgroup", "quadext.field_generator",
    "quadext.ext_order", "theorem.eigen_data", "theorem.verify", "cli.dumps_record",
)
DETERMINISTIC = ("fibseq.pairs_walked", "fibseq.star_orbits", "fibseq.star_pairs",
                 "modarith.power_subgroup.elements", "quadext.n_pm_power_subgroup.elements",
                 "theorem.divisors_checked", "theorem.subgroups_built")


def traced_pass(traced: bool, argvs: list, deadline: float) -> tuple[Proc, list[bytes], dict | None]:
    proc = run_child(client_cmd(traced), deadline, json.dumps(argvs).encode())
    lines, summary = split_summary(proc)
    return proc, lines, summary


def powerset_hits(lines: list[bytes]) -> int:
    hits = 0
    for line in lines:
        payload = json.loads(line)["payload"]
        for entry in {**payload.get("conditions", {}), **payload.get("entries", {})}.values():
            hits += entry["powerset"] is True
    return hits


def layer_metrics(traces: list[dict], untraced_s: float, traced_s: list[float],
                  out_bytes: int, hits: int, fanout_wall: float, jobs: int) -> dict:
    def span(name: str, i: int) -> float:
        return statistics.median(t["spans"].get(name, [0, 0.0, 0.0])[i] for t in traces)

    counts = traces[0]["counts"]
    metrics = {}
    for name in REPORTED_SPANS:
        metrics[f"{name}.calls"] = metric(span(name, 0), "count")
        metrics[f"{name}.s"] = metric(span(name, 1), "s")
    pairs = counts["fibseq.pairs_walked"]
    built = counts["theorem.subgroups_built"]
    metrics.update({
        "fibseq.pairs_walked": metric(pairs, "count"),
        "fibseq.star_orbits": metric(counts["fibseq.star_orbits"], "count"),
        "fibseq.star_yield": metric(counts["fibseq.star_pairs"] / pairs if pairs else 0.0, "ratio"),
        "modarith.power_subgroup.elements": metric(counts["modarith.power_subgroup.elements"], "count"),
        "quadext.n_pm_power_subgroup.elements": metric(
            counts["quadext.n_pm_power_subgroup.elements"], "count"),
        "theorem.verify.self_s": metric(span("theorem.verify", 2), "s"),
        "theorem.divisors_checked": metric(counts["theorem.divisors_checked"], "count"),
        "theorem.powerset_hit_ratio": metric(hits / built if built else 0.0, "ratio"),
        "cli.stdout_bytes": metric(out_bytes, "bytes"),
        "cli.fanout.busy_share": metric(span("cli.verify_worker", 1) / (jobs * fanout_wall), "ratio"),
        "trace.untraced_s": metric(untraced_s, "s"),
        "trace.traced_s": metric(statistics.median(traced_s), "s"),
        "trace.overhead": metric(statistics.median(traced_s) / untraced_s - 1.0, "ratio"),
    })
    return metrics


def traced_run(name: str, refs: dict, seed: int, deadline: float, tally: Tally):
    """Traced, untraced and traced again, each in a fresh client at --jobs 1;
    a deterministic counter that differs between the traced passes fails."""
    if name == QUERIES:
        pool = refs["queries"]
        picks = list(itertools.islice(query_stream(pool, seed), TRACE_QUERIES))
        argvs = [pool[q][0] for q in picks]
    else:
        argvs = [SWEEPS[name].argv_at(1)]
    results = [traced_pass(traced, argvs, deadline) for traced in (True, False, True)]
    for proc, lines, summary in results:
        if summary is None:
            tally.attempted += len(argvs)
            tally.failed += len(argvs)
            tally.problem(f"{name}: client exited {proc.code}: {proc.stderr[-300:]!r}")
            return {}, {}
        if name == QUERIES:
            check_queries(pool, picks, lines, summary, tally)
        else:
            check_sweep(name, refs["sweeps"][name], lines, summary["exit_codes"][0], tally)
    if name == QUERIES:
        direct_period_checks(pool, picks, dict(zip(picks, results[1][1])), tally)
    traces = [summary["trace"] for _, _, summary in results[::2]]
    for key in DETERMINISTIC:
        if traces[0]["counts"][key] != traces[1]["counts"][key]:
            tally.problem(f"{name}: counter {key} differs between repeats: "
                          f"{traces[0]['counts'][key]} vs {traces[1]['counts'][key]}")
    out_bytes = {sum(map(len, lines)) for _, lines, _ in results}
    if len(out_bytes) != 1:
        tally.problem(f"{name}: stdout bytes differ between repeats: {sorted(out_bytes)}")
    loop_s = [sum(summary["latencies_s"]) for _, _, summary in results]
    untraced = results[1][0]
    jobs = SWEEPS[name].fanout_jobs if name in SWEEPS else 1
    fanout_wall = untraced.wall_s
    if jobs > 1:
        # the timed runs are serial; one untraced run with a process pool shows
        # what fan-out does with the same work, and that the output does not
        # depend on --jobs
        proc = run_child(fibfield_cmd(SWEEPS[name].argv_at(jobs)), deadline)
        check_sweep(name, refs["sweeps"][name], proc.lines, proc.code, tally)
        fanout_wall = proc.wall_s
    hits = 0 if name == QUERIES else powerset_hits(results[0][1])
    metrics = layer_metrics(traces, loop_s[1], [loop_s[0], loop_s[2]], min(out_bytes), hits,
                            fanout_wall, jobs)
    samples = {"traced_passes": 2, "untraced_passes": 1,
               "absent": traces[0]["absent"], "fanout_jobs": jobs}
    return metrics, samples


# ---------------------------------------------------------------- report


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_state() -> tuple[str | None, bool | None]:
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, capture_output=True, text=True, timeout=10,
                               check=True).stdout.strip() != ""
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, dirty


def metadata(args) -> dict:
    sha, dirty = git_state()
    return {
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": sha, "git_dirty": dirty, "src_sha256": source_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
    }


def print_table(name: str, metrics: dict, samples: dict, tally: Tally) -> None:
    print(f"== {name}  (samples: {json.dumps(samples)})")
    for key, m in metrics.items():
        print(f"  {key:42s} {m['value']:>14.6g} {m['unit']}")
    rate = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'error_rate':42s} {rate:>14.6g} failed/attempted ({tally.failed}/{tally.attempted})")
    for problem in tally.problems:
        print(f"  PROBLEM: {problem}")


def expected_metrics(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(name: str, refs: dict, args) -> tuple[dict, Tally]:
    deadline = perf_counter() + RUN_LIMIT_S
    tally = Tally()
    if args.trace:
        metrics, samples = traced_run(name, refs, args.seed, deadline, tally)
    elif name == QUERIES:
        metrics, samples = timed_queries(refs["queries"], args.seed, args.seconds, deadline, tally)
    else:
        metrics, samples = timed_sweep(name, refs["sweeps"][name], args.seconds, deadline, tally)
    if metrics and set(metrics) != set(expected_metrics(args.trace)):
        tally.problem("metric names do not match BENCHMARK.json: "
                      f"{sorted(set(metrics) ^ set(expected_metrics(args.trace)))}")
    print_table(name, metrics, samples, tally)
    return metrics, tally


def preflight() -> str | None:
    """Why fibfield must not be measured here, or None."""
    if not (SRC / "fibfield" / "cli.py").is_file():
        return f"no fibfield sources under {SRC}"
    if "FIBFIELD_CAP" in os.environ:
        return "FIBFIELD_CAP is set; the benchmark measures the default cap only"
    if sys.flags.optimize or os.environ.get("PYTHONOPTIMIZE"):
        return "python -O / PYTHONOPTIMIZE strips the program's assert checks"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # children run in their own sessions; turning SIGTERM into SystemExit lets
    # run_child's cleanup kill them when the benchmark itself is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    reason = preflight()
    if reason is None and not (REFERENCE.is_file() and (ROOT / "BENCHMARK.json").is_file()):
        reason = "perfbench/reference.json or BENCHMARK.json is missing"
    if reason:
        print(f"perfbench: {reason}", file=sys.stderr)
        return 2
    refs = json.loads(REFERENCE.read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print("# meta " + json.dumps({**metadata(args), "workloads": list(names)}))
    results = {name: run_workload(name, refs, args) for name in names}
    if args.workload == "all":
        metrics = {f"{n}.{k}": v for n, (ms, _) in results.items() for k, v in ms.items()}
    else:
        metrics = results[args.workload][0]
    tallies = [t for _, t in results.values()]
    correct = all(t.correct for t in tallies)
    print(json.dumps({"correct": correct, "attempted": sum(t.attempted for t in tallies),
                      "failed": sum(t.failed for t in tallies), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
