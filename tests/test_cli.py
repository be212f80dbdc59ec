import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from fibfield import cli, fibseq
from fibfield.errors import InternalInvariantViolation
from fibfield.theorem import verify_main

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

    def test_special(self):
        (rec,) = records(run_cli("analyze", "5", "--json").stdout)
        payload = rec["payload"]
        assert payload["splitting"] == "special"
        assert payload["orbits"] == [{"seed": [1, 3], "period": 4, "values": [1, 2, 3, 4]}]

    def test_usage_error(self):
        assert run_cli("analyze", "9", "--json").returncode == 2


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

    def test_violation_detected(self):
        # the literal value-set condition really does disagree at p = 13
        r = run_cli("verify", "13", "13", "--json")
        assert r.returncode == 1
        (rec,) = records(r.stdout)
        assert not rec["payload"]["consistent"]

    def test_empty_range(self):
        assert run_cli("verify", "10", "9").returncode == 2

    def test_over_cap(self):
        assert run_cli("verify", "3", "5000").returncode == 2

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
            period_ms = [str(m) for m, t in verify_main(p).triples.items() if t.cond_period]
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

    def test_lucas_mode(self):
        r = run_cli("verify", "3", "30", "--lucas", "3,1", "--json")
        assert r.returncode == 0
        recs = records(r.stdout)
        assert all(rec["kind"] in ("verify_lucas", "skip") for rec in recs)
        assert all(not rec["payload"].get("theorem_proven", False) for rec in recs)


class TestColdStart:
    def test_import_skips_unused_modules(self):
        # -S, because a site .pth file may import modules of its own
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = ("import sys, fibfield.cli; "
                "print(sorted({'dataclasses', 'multiprocessing'} & set(sys.modules)))")
        r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=src))
        assert (r.returncode, r.stdout, r.stderr) == (0, "[]\n", "")


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
