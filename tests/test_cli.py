import hashlib
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from fibfield import cli, fibseq, modarith, theorem
from fibfield.errors import InternalInvariantViolation
from fibfield.theorem import verify_main

from conftest import check_eigen_invariants, reference_pool

PKG = [sys.executable, "-m", "fibfield"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(PKG + list(args), capture_output=True, text=True, env=env)


def records(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


class TestAnalyze:
    def test_split(self):
        r = run_cli("analyze", "11", "--json")
        assert r.returncode == 0
        (rec,) = records(r.stdout)
        assert rec["kind"] == "analyze"
        payload = rec["payload"]
        assert payload["splitting"] == "split"
        assert (payload["phi"], payload["l"], payload["l_prime"]) == (8, 10, 5)

    def test_inert(self):
        (rec,) = records(run_cli("analyze", "7", "--json").stdout)
        payload = rec["payload"]
        assert payload["splitting"] == "inert"
        assert payload["l"] == payload["l_prime"] == 16
        assert payload["mat_order"] == 16

    @pytest.mark.parametrize("argv, stdout", [
        (["analyze", "7", "--lucas", "3,5", "--json"],
         '{"config":{"cap":4096,"generator_seed":24301,"params":[3,5]},"kind":"analyze",'
         '"payload":{"M0":48,"M1":48,"l":48,"l_prime":48,"mat_order":48,"p":7,'
         '"phi":[0,1],"phi_prime":[3,6],"splitting":"inert"},"schema_version":1}\n'),
        (["analyze", "7", "--lucas=-3,5", "--json"],
         '{"config":{"cap":4096,"generator_seed":24301,"params":[-3,5]},"kind":"analyze",'
         '"payload":{"M0":48,"M1":48,"l":48,"l_prime":48,"mat_order":48,"p":7,'
         '"phi":[0,1],"phi_prime":[4,6],"splitting":"inert"},"schema_version":1}\n'),
    ], ids=["3,5", "-3,5"])
    def test_inert_lucas_exact(self, capsys, argv, stdout):
        # phi = B and phi' = P - B as coordinates in F_7[B]; l = l' = ord(B) = 48
        assert cli.main(argv) == 0
        assert capsys.readouterr() == (stdout, "")

    def test_negative_p_needs_equals_form(self, capsys):
        # argparse reads "-3,5" after a space as an option, not as the value of --lucas
        assert cli.main(["analyze", "7", "--lucas=-3,5"]) == 0
        assert "phi' = [4, 6]" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["analyze", "7", "--lucas", "-3,5"])
        assert exit_info.value.code == 2
        assert "--lucas: expected one argument" in capsys.readouterr().err

    def test_special(self):
        (rec,) = records(run_cli("analyze", "5", "--json").stdout)
        payload = rec["payload"]
        assert payload["splitting"] == "special"
        assert payload["orbits"] == [{"seed": [1, 3], "period": 4, "values": [1, 2, 3, 4]}]

    def test_usage_error(self):
        assert run_cli("analyze", "9", "--json").returncode == 2

    @pytest.mark.parametrize("p,splitting", [(3000000019, "split"), (3000000037, "inert")])
    def test_past_the_square_width(self, p, splitting):
        # p^2 - 1 passes the 2^62 width cap, p itself does not
        r = run_cli("analyze", str(p), "--json")
        assert r.returncode == 0, r.stderr
        (rec,) = records(r.stdout)
        payload = rec["payload"]
        assert payload["splitting"] == splitting
        assert payload["mat_order"] == payload["M1"]
        assert check_eigen_invariants(p).M1 == payload["M1"]

    @pytest.mark.parametrize("p, factored, mat_order_calls", [
        (2147483579, [2147483578], 0),
        (2147483647, [2147483646, 2, 2147483648], 1),
    ], ids=["split", "inert"])
    def test_each_fact_once(self, monkeypatch, capsys, p, factored, mat_order_calls):
        # a split p factors p - 1 once for both eigenvalue orders; an inert p
        # reads l = l' = ord(B) from one mat_order, which factors p - 1 for
        # ord_p(Q) = 2, then 2 and p + 1; the payload's matrix order is lcm(l, l')
        calls = []
        mat_calls = []
        real_factorize = modarith.factorize
        real_mat_order = fibseq.mat_order

        def counting_factorize(n):
            calls.append(n)
            return real_factorize(n)

        def counting_mat_order(params, N):
            mat_calls.append(N)
            return real_mat_order(params, N)

        for module in (modarith, fibseq, theorem):
            monkeypatch.setattr(module, "factorize", counting_factorize)
        for module in (fibseq, theorem):
            monkeypatch.setattr(module, "mat_order", counting_mat_order)
        # cli no longer imports mat_order; one imported again would be counted too
        monkeypatch.setattr(cli, "mat_order", counting_mat_order, raising=False)
        assert cli.main(["analyze", str(p), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert calls == factored
        assert mat_calls == [p] * mat_order_calls
        assert payload["mat_order"] == real_mat_order(fibseq.FIBONACCI, p)


class TestEnumerate:
    def test_p5(self):
        (rec,) = records(run_cli("enumerate", "5", "--json").stdout)
        assert rec["payload"]["orbits"] == [{"seed": [1, 3], "period": 4, "values": [1, 2, 3, 4]}]

    def test_p2(self):
        (rec,) = records(run_cli("enumerate", "2", "--json").stdout)
        assert rec["payload"]["orbits"] == []

    def test_composite(self):
        r = run_cli("enumerate", "10", "--json")
        assert r.returncode == 0
        (rec,) = records(r.stdout)
        assert rec["payload"]["N"] == 10
        for orbit in rec["payload"]["orbits"]:
            assert 0 not in orbit["values"]

    def test_over_cap(self, monkeypatch, capsys):
        def no_alloc(size):
            raise AssertionError(f"allocated {size} bytes")

        monkeypatch.setattr(fibseq, "bytearray", no_alloc, raising=False)
        assert cli.main(["enumerate", "4097"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: N = 4097 exceeds the enumeration cap 4096\n")

    def test_cap_ignores_env(self, monkeypatch, capsys):
        monkeypatch.setenv("FIBFIELD_CAP", "3")
        assert cli.main(["analyze", "5", "--json"]) == 0
        (rec,) = records(capsys.readouterr().out)
        assert rec["payload"]["orbits"] == [{"seed": [1, 3], "period": 4, "values": [1, 2, 3, 4]}]


class TestPeriod:
    def test_star(self):
        (rec,) = records(run_cli("period", "11", "1", "4", "--json").stdout)
        assert rec["payload"] == {"N": 11, "seed": [1, 4], "period": 5, "star": True,
                                  "values": [1, 3, 4, 5, 9]}

    def test_not_star(self):
        (rec,) = records(run_cli("period", "7", "1", "1", "--json").stdout)
        assert rec["payload"]["period"] == 16
        assert not rec["payload"]["star"]

    def test_zero_pair(self):
        (rec,) = records(run_cli("period", "11", "0", "0", "--json").stdout)
        assert rec["payload"]["period"] == 1
        assert not rec["payload"]["star"]

    @pytest.mark.parametrize("argv,period", [
        (["period", "99991", "5", "7", "--lucas", "2,3"], 1999640016),
        (["period", "1000000007", "1", "1"], 2000000016),
    ])
    def test_over_cap(self, monkeypatch, capsys, argv, period):
        def no_terms(seq, count):
            raise AssertionError(f"generated {count} terms")

        monkeypatch.setattr(fibseq, "generate", no_terms)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: period {period} exceeds the cap of 16777216 terms\n")


class TestReferencePool:
    def test_replay_every_tenth_query(self, capsys):
        # the benchmark checks every answer against these digests; replaying a
        # tenth of the pool here shows a drift in analyze or period output,
        # up to p near 2^31, without the benchmark
        for argv, digest in reference_pool()[::10]:
            assert cli.main(argv) == 0, argv
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest, argv


class TestModulus:
    @pytest.mark.parametrize("argv", [
        ("period", "0", "1", "1"),
        ("period", "-5", "1", "2"),
        ("enumerate", "0"),
        ("enumerate", "-3"),
    ])
    def test_below_one_rejected(self, argv):
        r = run_cli(*argv)
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr.startswith(f"error: modulus N = {argv[1]} must be at least 1")

    def test_one_accepted(self):
        (rec,) = records(run_cli("period", "1", "1", "1", "--json").stdout)
        assert rec["payload"]["period"] == 1
        (rec,) = records(run_cli("enumerate", "1", "--json").stdout)
        assert rec["payload"]["orbits"] == []


class TestVerify:
    def test_consistent_range(self):
        r = run_cli("verify", "19", "43", "--json")
        assert r.returncode == 0
        recs = records(r.stdout)
        assert [rec["payload"]["p"] for rec in recs] == [19, 23, 29, 31, 37, 41, 43]
        assert all(rec["payload"]["consistent"] for rec in recs)

    def test_skip_records(self):
        recs = records(run_cli("verify", "2", "7", "--json").stdout)
        kinds = {rec["payload"]["p"]: rec["kind"] for rec in recs}
        assert kinds == {2: "skip", 3: "verify_main", 5: "skip", 7: "verify_main"}

    @pytest.mark.parametrize("extra,digest,err,reason", [
        ([], "f6e7946b199e612b0eb72d83605222ef72b08b16a5d7c1f15ece7ec03e07c878", "",
         "special prime"),
        (["--complementary"], "46d8a5127a8653992425eabed3a5afc3dd344694b15831ef136ea24132fd5b6c",
         "warning: 2 report-only discrepancies (not theorem violations)\n", "special prime"),
        (["--lucas", "3,1"], "fbe30519abbf5f55ce7318ec9ff7d420e0f0051ed8b64b7b7cbd3e3939e3b3cb",
         "warning: 1 report-only discrepancies (not theorem violations)\n",
         "p divides 2*P*Q*(P^2-4Q)"),
    ])
    def test_skip_p2_golden(self, extra, digest, err, reason):
        # stdout digest, stderr and exit code of verify 2 12 --json, whose first record
        # skips p = 2 by gcd(p, 2*Q*D) != 1; (3, 1) is swept at p = 3, which divides P
        r = run_cli("verify", "2", "12", "--json", *extra)
        assert (r.returncode, r.stderr) == (0, err)
        assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest
        assert records(r.stdout)[0]["payload"] == {"p": 2, "reason": reason}

    def test_violation_detected(self):
        # the literal value-set condition really does disagree at p = 13
        r = run_cli("verify", "13", "13", "--json")
        assert r.returncode == 1
        (rec,) = records(r.stdout)
        assert not rec["payload"]["consistent"]

    def test_empty_range(self):
        r = run_cli("verify", "10", "9")
        assert (r.returncode, r.stdout, r.stderr) == (2, "", "error: empty range\n")

    def test_over_cap(self):
        r = run_cli("verify", "3", "5000")
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", "error: range end 5000 exceeds cap 4096\n")

    def test_complementary_lucas_golden(self):
        # stdout digest, stderr and exit code of verify 3 300 --complementary --lucas 2,3
        # --json: the sweep runs over m | ord_p(3)*(p+1) and only reports
        r = run_cli("verify", "3", "300", "--complementary", "--lucas", "2,3", "--json")
        assert (r.returncode, r.stderr) == (
            0, "warning: 37 report-only discrepancies (not theorem violations)\n")
        assert hashlib.sha256(r.stdout.encode()).hexdigest() == (
            "f1a243819f811a5c3bec2e5ef20a9114dfa10461018a338e3508bbae1d381ae8")
        recs = records(r.stdout)
        assert len(recs) == 61
        assert {rec["kind"] for rec in recs} == {"skip", "verify_complementary"}

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_rejected(self, jobs):
        r = run_cli("verify", "3", "20", "--jobs", jobs)
        assert (r.returncode, r.stdout, r.stderr) == (2, "", "error: --jobs must be at least 1\n")

    @pytest.mark.parametrize("argv, sizes", [
        (["3", "20", "--jobs", "64"], [7]),  # 7 primes, so no more than 7 workers
        (["3", "20", "--jobs", "2"], [2]),
        (["13", "13", "--jobs", "4"], []),  # one prime runs in this process
    ])
    def test_pool_size(self, monkeypatch, capsys, argv, sizes):
        started = []

        class FakePool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, iterable):
                return map(func, iterable)

        serial = cli.main(["verify", *argv[:2], "--json"])
        expected = capsys.readouterr().out
        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        assert cli.main(["verify", *argv, "--json"]) == serial
        assert capsys.readouterr().out == expected
        assert started == sizes

    def test_env_cap_lowers(self):
        assert run_cli("verify", "3", "50", env_extra={"FIBFIELD_CAP": "30"}).returncode == 2
        assert run_cli("verify", "19", "29", "--json",
                       env_extra={"FIBFIELD_CAP": "30"}).returncode == 0

    def test_env_cap_ignored_warns_once(self):
        plain = run_cli("verify", "19", "29", "--json")
        assert "FIBFIELD_CAP" not in plain.stderr
        for raw in ("abc", "1"):
            r = run_cli("verify", "19", "29", "--json", env_extra={"FIBFIELD_CAP": raw})
            assert (r.returncode, r.stdout) == (0, plain.stdout)
            assert r.stderr.count("FIBFIELD_CAP") == 1

    def test_human_line_names_nonuniform_m(self):
        r = run_cli("verify", "11", "13")
        assert r.returncode == 1
        lines = r.stdout.splitlines()
        assert "non-uniform" not in lines[0]
        assert lines[1].endswith("non-uniform at m in ['12']")
        for p, line in zip((11, 13), lines):
            period_ms = [m for m, t in verify_main(p)["conditions"].items() if t["period"]]
            assert f", star periods at m in {period_ms}" in line

    def test_complementary_findings_are_warnings(self):
        r = run_cli("verify", "7", "7", "--complementary", "--json")
        assert r.returncode == 0
        (rec,) = records(r.stdout)
        assert rec["kind"] == "verify_complementary"
        assert not rec["payload"]["equivalence_23"]
        assert rec["payload"]["entries"]["16"] == {"period": False, "order": True,
                                                   "powerset": "inapplicable"}
        assert "warning" in r.stderr

    @pytest.mark.parametrize("params, digest, err", [
        ("1,-2", "5cc2c48278b43929a8f7883111030dd7b65cecda8a67a8bd715662a280e1cbb2",
         "warning: 7 report-only discrepancies (not theorem violations)\n"),
        ("3,1", "a300225acb2e0004425b899d2486b47723ddccb67c78f0eb354b0bad420a3603",
         "warning: 1 report-only discrepancies (not theorem violations)\n"),
        ("2,3", "c20d3d3040190d25444c6f5b3ad3e51ff2d43b197d27ea4a08bc707559fa2042",
         "warning: 21 report-only discrepancies (not theorem violations)\n"),
    ])
    def test_lucas_golden(self, params, digest, err):
        # stdout digest, stderr and exit code of verify 3 300 --lucas P,Q --json
        r = run_cli("verify", "3", "300", "--lucas", params, "--json")
        assert (r.returncode, r.stderr) == (0, err)
        assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize("extra, digest, err", [
        ([], "212eb92a109ad71bf99a07c29fa9d7b493fd70c5dbce3352c6fec51891f32ede", ""),
        (["--complementary"], "e1bd60f5ab6f97ec1377d9d9b5c18e40cecf9e02b8605eeb25f213dd8733d46b",
         "warning: 1 report-only discrepancies (not theorem violations)\n"),
    ])
    def test_golden_near_1000(self, extra, digest, err):
        # stdout digest, stderr and exit code of verify 1000 1100 --json: 16 records
        r = run_cli("verify", "1000", "1100", "--json", *extra)
        assert (r.returncode, r.stderr) == (0, err)
        assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest
        assert len(records(r.stdout)) == 16

    @pytest.mark.parametrize("extra, digest, code, err, inconsistent", [
        ([], "4a2528fcb8bce9690d77a3e2d601b9b147901b71626438e1ed1a8f0477949c10", 1,
         "FAILURE: 2 main-theorem inconsistencies\n", [13, 17]),
        (["--complementary"], "3be28a17a88f412d08a710e5f7374f2ad49f9d6575664acde002de78817c5d0c",
         0, "warning: 111 report-only discrepancies (not theorem violations)\n", []),
        (["--lucas", "2,3"], "0ba403926f678cee62e9b78c77dd3bf8f1c81e7320c3b064531a806033b5f8ee",
         0, "warning: 193 report-only discrepancies (not theorem violations)\n", 193),
        (["--lucas", "1,-2"], "591e4cabd99dbf6c0bed757e24f5cc3b80f33b8585dfffb2635cf601e1941e44",
         0, "warning: 54 report-only discrepancies (not theorem violations)\n", 54),
    ])
    def test_golden_full_cap(self, extra, digest, code, err, inconsistent):
        # verify 3 4096 --json, the whole default cap: 563 records; the main
        # sweep is inconsistent at p = 13 and 17 and nowhere else, and the
        # Lucas sweeps (P, Q) = (2, 3) and (1, -2), whose |Q| >= 2 gives
        # multipliers other than +-1, report 193 and 54 inconsistent primes
        r = run_cli("verify", "3", "4096", "--json", *extra)
        assert (r.returncode, r.stderr) == (code, err)
        assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest
        recs = records(r.stdout)
        assert len(recs) == 563
        bad = [rec["payload"]["p"] for rec in recs if not rec["payload"].get("consistent", True)]
        assert (len(bad) if isinstance(inconsistent, int) else bad) == inconsistent

    def test_broken_pipe(self):
        # a reader that stops after one line, as `| head -1` does: exit
        # 128 + SIGPIPE, and nothing on stderr; the 506 KB of output cannot
        # all fit in the pipe before it closes
        with subprocess.Popen(PKG + ["verify", "3", "4096", "--json"], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            assert json.loads(proc.stdout.readline())["payload"]["p"] == 3
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=120), err) == (141, "")

    def test_human_complementary(self):
        r = run_cli("verify", "3", "30", "--complementary")
        assert (r.returncode, r.stderr) == (
            0, "warning: 3 report-only discrepancies (not theorem violations)\n")
        assert r.stdout == (
            "p = 3: equivalence_23 = False, star periods at m in []\n"
            "p = 5: skipped (special prime)\n"
            "p = 7: equivalence_23 = False, star periods at m in []\n"
            "p = 11: equivalence_23 = True, star periods at m in []\n"
            "p = 13: equivalence_23 = True, star periods at m in ['28']\n"
            "p = 17: equivalence_23 = True, star periods at m in ['36']\n"
            "p = 19: equivalence_23 = True, star periods at m in []\n"
            "p = 23: equivalence_23 = False, star periods at m in []\n"
            "p = 29: equivalence_23 = True, star periods at m in []\n")

    def test_human_lucas(self):
        r = run_cli("verify", "3", "30", "--lucas", "1,-2")
        assert (r.returncode, r.stderr) == (0, "")
        assert r.stdout == (
            "p = 3: skipped (p divides 2*P*Q*(P^2-4Q))\n"
            "p = 5: consistent = True, star periods at m in ['2', '4']\n"
            "p = 7: consistent = True, star periods at m in ['2', '3']\n"
            "p = 11: consistent = True, star periods at m in ['2', '10']\n"
            "p = 13: consistent = True, star periods at m in ['2', '12']\n"
            "p = 17: consistent = True, star periods at m in ['2', '8']\n"
            "p = 19: consistent = True, star periods at m in ['2', '18']\n"
            "p = 23: consistent = True, star periods at m in ['2', '11']\n"
            "p = 29: consistent = True, star periods at m in ['2', '28']\n")

    def test_lucas_mode(self):
        r = run_cli("verify", "3", "30", "--lucas", "3,1", "--json")
        assert r.returncode == 0
        recs = records(r.stdout)
        assert all(rec["kind"] in ("verify_lucas", "skip") for rec in recs)
        assert all(not rec["payload"].get("theorem_proven", False) for rec in recs)

    @pytest.mark.parametrize("value", ["1", "a,b", "1,2,3"])
    def test_lucas_malformed(self, capsys, value):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["verify", "3", "10", "--lucas", value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "P,Q" in err and "_parse_lucas" not in err


HUMAN_OUTPUT = [
    (["analyze", "11"], "p = 11: split\n"
                        "  phi = 8, phi' = 4\n"
                        "  l = 10, l' = 5, M0 = 5, M1 = 10\n"
                        "  matrix order = 10\n"),
    (["analyze", "7"], "p = 7: inert\n"
                       "  phi = [0, 1], phi' = [1, 6]\n"
                       "  l = 16, l' = 16, M0 = 16, M1 = 16\n"
                       "  matrix order = 16\n"),
    (["analyze", "7", "--lucas", "3,5"], "p = 7: inert\n"
                                         "  phi = [0, 1], phi' = [3, 6]\n"
                                         "  l = 48, l' = 48, M0 = 48, M1 = 48\n"
                                         "  matrix order = 48\n"),
    (["analyze", "5"], "p = 5 is a special prime for the Fibonacci recurrence\n"
                       "  seed (1, 3)  period 4  values [1, 2, 3, 4]\n"),
    (["analyze", "2"], "p = 2 is a special prime for the Fibonacci recurrence\n"),
    (["enumerate", "5"], "N = 5: seed (1, 3)  period 4  values [1, 2, 3, 4]\n"),
    (["enumerate", "2"], "N = 2: no zero-free orbits\n"),
    (["enumerate", "10"], "N = 10: seed (1, 3)  period 12  values [1, 2, 3, 4, 6, 7, 8, 9]\n"
                          "N = 10: seed (2, 6)  period 4  values [2, 4, 6, 8]\n"),
    (["period", "11", "1", "4"], "seed (1, 4) mod 11: period 5, zero-free, "
                                 "values [1, 3, 4, 5, 9]\n"),
    (["period", "7", "1", "1"], "seed (1, 1) mod 7: period 16, hits zero, "
                                "values [0, 1, 2, 3, 4, 5, 6]\n"),
    (["period", "11", "0", "0"], "seed (0, 0) mod 11: period 1, hits zero, values [0]\n"),
]


class TestHumanOutput:
    # the human text is a rendering of the record that --json prints
    @pytest.mark.parametrize("argv, stdout", HUMAN_OUTPUT,
                             ids=["-".join(argv) for argv, _ in HUMAN_OUTPUT])
    def test_exact_stdout(self, capsys, argv, stdout):
        assert cli.main(argv) == 0
        assert capsys.readouterr() == (stdout, "")


class TestColdStart:
    def test_import_skips_unused_modules(self):
        # -S, because a site .pth file may import modules of its own
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = ("import sys, fibfield.cli; "
                "print(sorted({'dataclasses', 'multiprocessing'} & set(sys.modules)))")
        r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=src))
        assert (r.returncode, r.stdout, r.stderr) == (0, "[]\n", "")

    @pytest.mark.parametrize("argv,code", [("verify 3 7", 0), ("verify 3 17", 1),
                                           ("verify 5 3", 2)])
    def test_exit_freezes_heap_and_runs_atexit(self, argv, code):
        # the handler runs after python -m fibfield's last statement, so it
        # sees the heap frozen and the exit code is main's
        src = os.path.dirname(os.path.dirname(cli.__file__))
        script = ("import atexit, gc, runpy, sys\n"
                  "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))\n"
                  "runpy.run_module('fibfield', run_name='__main__', alter_sys=True)\n")
        r = subprocess.run([sys.executable, "-c", script, *argv.split()], capture_output=True,
                           text=True, env=dict(os.environ, PYTHONPATH=src))
        assert r.returncode == code
        assert r.stderr.endswith("True\n")

    def test_main_in_process_freezes_nothing(self, capsys):
        import gc
        before = gc.get_freeze_count()
        assert cli.main(["verify", "3", "30", "--json"]) == 1
        assert capsys.readouterr().out
        assert gc.get_freeze_count() == before


class TestJsonDiscipline:
    def test_roundtrip_byte_identical(self):
        out = run_cli("verify", "19", "43", "--json").stdout
        for line in out.splitlines():
            rec = json.loads(line)
            assert json.dumps(rec, sort_keys=True, separators=(",", ":")) == line

    @pytest.mark.parametrize("extra", [[], ["--complementary"], ["--lucas", "3,1"]],
                             ids=["main", "complementary", "lucas"])
    def test_jobs_determinism(self, extra):
        a = run_cli("verify", "19", "43", "--json", "--jobs", "1", *extra)
        b = run_cli("verify", "19", "43", "--json", "--jobs", "4", *extra)
        assert a.stdout
        assert (a.returncode, a.stdout, a.stderr) == (b.returncode, b.stdout, b.stderr)


class TestOutCaching:
    def test_skip_cached_primes(self, tmp_path):
        out = tmp_path / "cache.jsonl"
        r1 = run_cli("verify", "19", "31", "--out", str(out))
        assert r1.returncode == 0
        first = out.read_text()
        assert len(first.splitlines()) == 4  # 19, 23, 29, 31
        r2 = run_cli("verify", "19", "43", "--out", str(out))
        assert r2.returncode == 0
        second = out.read_text()
        assert second.startswith(first)
        new_ps = [json.loads(line)["payload"]["p"] for line in second.splitlines()[4:]]
        assert new_ps == [37, 41, 43]

    def test_lucas_after_main_not_skipped(self, tmp_path):
        out = tmp_path / "cache.jsonl"
        run_cli("verify", "3", "30", "--out", str(out))
        r = run_cli("verify", "3", "30", "--lucas", "3,1", "--out", str(out), "--json")
        assert r.returncode == 0
        assert r.stdout == run_cli("verify", "3", "30", "--lucas", "3,1", "--json").stdout

    def test_complementary_after_main_not_skipped(self, tmp_path):
        out = tmp_path / "cache.jsonl"
        run_cli("verify", "3", "30", "--out", str(out))
        r = run_cli("verify", "3", "30", "--complementary", "--out", str(out), "--json")
        assert r.returncode == 0
        # the skip record of p = 5 is the same in both sweeps, so it is reused
        fresh = records(run_cli("verify", "3", "30", "--complementary", "--json").stdout)
        assert records(r.stdout) == [rec for rec in fresh if rec["kind"] != "skip"]
        assert len(records(r.stdout)) == 8

    def test_stale_skip_is_swept(self, tmp_path, capsys):
        # a file written when sweeps also skipped p | P: its skip of p = 3 for
        # (3, 1) no longer holds, so p = 3 is swept; the skip of p = 5, which
        # divides D = 5, still holds and is reused; a skip of p = 0 is ignored
        skip = ('{"config":{"cap":4096,"generator_seed":24301,"params":[3,1]},"kind":"skip",'
                '"payload":{"p":%d,"reason":"p divides 2*P*Q*(P^2-4Q)"},"schema_version":1}\n')
        out = tmp_path / "cache.jsonl"
        out.write_text(skip % 0 + skip % 3 + skip % 5)
        assert cli.main(["verify", "3", "30", "--lucas", "3,1", "--json"]) == 0
        fresh = capsys.readouterr()
        assert cli.main(["verify", "3", "30", "--lucas", "3,1", "--json", "--out", str(out)]) == 0
        cached = capsys.readouterr()
        assert cached.err == fresh.err == (
            "warning: 1 report-only discrepancies (not theorem violations)\n")
        assert records(cached.out) == [rec for rec in records(fresh.out)
                                       if rec["payload"]["p"] != 5]
        assert records(cached.out)[0]["kind"] == "verify_lucas"

    def test_cached_failure_still_exits_1(self, tmp_path):
        out = tmp_path / "cache.jsonl"
        assert run_cli("verify", "3", "30", "--out", str(out)).returncode == 1
        first = out.read_text()
        r = run_cli("verify", "3", "30", "--out", str(out))
        assert (r.returncode, r.stdout) == (1, "")
        assert out.read_text() == first
        assert run_cli("verify", "19", "30", "--out", str(out)).returncode == 0

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failure_keeps_finished_records(self, tmp_path, monkeypatch, capsys, jobs):
        assert cli.main(["verify", "3", "40", "--json"]) == 1
        finished = capsys.readouterr().out.splitlines()[:8]
        assert [json.loads(line)["payload"]["p"] for line in finished] == [
            3, 5, 7, 11, 13, 17, 19, 23]
        real = cli.verify_main

        def failing(p, params):
            if p == 29:
                raise InternalInvariantViolation("injected at p = 29")
            return real(p, params)

        # forked pool workers inherit the patched module
        monkeypatch.setattr(cli, "verify_main", failing)
        out = tmp_path / "f.jsonl"
        argv = ["verify", "3", "40", "--json", "--out", str(out), "--jobs", jobs]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == finished
        assert out.read_text().splitlines() == finished
        assert captured.err == "error: injected at p = 29\n"

    def test_missing_directory_is_usage_error(self, tmp_path):
        out = tmp_path / "missing_dir" / "f.jsonl"
        r = run_cli("verify", "3", "5", "--out", str(out))
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr
        assert not out.parent.exists()

    def test_directory_as_out_is_usage_error(self, tmp_path):
        r = run_cli("verify", "3", "5", "--out", str(tmp_path))
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr

    def test_force_recomputes(self, tmp_path):
        out = tmp_path / "cache.jsonl"
        run_cli("verify", "19", "23", "--out", str(out))
        run_cli("verify", "19", "23", "--out", str(out), "--force")
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert lines[:2] == lines[2:]
