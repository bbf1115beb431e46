import json
import subprocess
import sys
import time
from decimal import Decimal
from math import comb

import pytest

from schurkit import canonical_text, from_term_list, verify
from schurkit.cli import build_parser, main, run
from schurkit.characters import _character
from schurkit.symfun import _branches, _schur, _schur_via_characters

S321 = "t1**6/45 - t1**3*t3/3 + t1*t5 - t3**2"
M321 = (
    "x1**3*x2**2*x3 + x1**3*x2*x3**2 + x1**2*x2**3*x3 + x1**2*x2*x3**3"
    " + x1*x2**3*x3**2 + x1*x2**2*x3**3"
)
P321 = (
    "-Q**2*x1**2*x2**2*x3**2 - Q*x1**2*x2**2*x3**2 + x1**3*x2**2*x3"
    " + x1**3*x2*x3**2 + x1**2*x2**3*x3 + 2*x1**2*x2**2*x3**2"
    " + x1**2*x2*x3**3 + x1*x2**3*x3**2 + x1*x2**2*x3**3"
)


class TestPolynomialCommands:
    def test_schur(self):
        assert run(["schur", "3,2,1"]) == (0, S321)

    def test_homogeneous_and_elementary(self):
        assert run(["homogeneous", "3"]) == (0, "t1**3/6 + t1*t2 + t3")
        assert run(["elementary", "3"]) == (0, "t1**3/6 - t1*t2 + t3")

    def test_monomial(self):
        assert run(["monomial", "3,2,1", "--vars", "3"]) == (0, M321)

    def test_hall_littlewood(self):
        assert run(["hall-littlewood", "3,2,1", "--vars", "3"]) == (0, P321)

    def test_skew(self):
        assert run(["schur", "2,1", "--skew", "1"]) == (0, "t1**2")

    def test_empty_partition_gives_one(self):
        assert run(["schur", ""]) == (0, "1")


class TestJson:
    @pytest.mark.parametrize(
        "argv",
        [
            ["schur", "3,2,1"],
            ["schur", "3,1", "--skew", "1"],
            ["homogeneous", "4"],
            ["monomial", "2,1", "--vars", "3"],
            ["hall-littlewood", "2,1", "--vars", "3"],
        ],
    )
    def test_json_matches_text(self, argv):
        status, text = run(argv)
        assert status == 0
        status, encoded = run(argv + ["--json"])
        assert status == 0
        payload = json.loads(encoded)
        assert canonical_text(from_term_list(payload["terms"])) == text

    def test_payload_fields(self):
        _, encoded = run(["hall-littlewood", "2,1", "--vars", "3", "--json"])
        payload = json.loads(encoded)
        assert payload["family"] == "hall-littlewood"
        assert payload["lambda"] == [2, 1]
        assert payload["mu"] is None
        assert payload["vars"] == 3
        assert isinstance(payload["terms"], list)

    @pytest.mark.parametrize(
        "argv, family, lam, mu, n_vars",
        [
            (["homogeneous", "3"], "homogeneous", [3], None, None),
            (["elementary", "3"], "elementary", [3], None, None),
            (["schur", "3,1", "--skew", "1"], "schur", [3, 1], [1], None),
            (["monomial", "2,1", "--vars", "3"], "monomial", [2, 1], None, 3),
            (["hall-littlewood", "2,1", "--vars", "3"], "hall-littlewood", [2, 1], None, 3),
        ],
    )
    def test_payload_names_its_request(self, argv, family, lam, mu, n_vars):
        status, encoded = run(argv + ["--json"])
        assert status == 0
        payload = json.loads(encoded)
        assert (payload["family"], payload["lambda"], payload["mu"], payload["vars"]) == (
            family, lam, mu, n_vars
        )

    def test_skew_payload_records_mu(self):
        _, encoded = run(["schur", "3,1", "--skew", "1", "--json"])
        payload = json.loads(encoded)
        assert payload["lambda"] == [3, 1]
        assert payload["mu"] == [1]

    def test_compact_encoding(self):
        _, encoded = run(["homogeneous", "2", "--json"])
        assert ": " not in encoded and ", " not in encoded
        assert json.loads(encoded)


class TestPartitionCommands:
    def test_partition_summary(self):
        status, text = run(["partition", "3,2,1"])
        assert status == 0
        assert "rows: 3" in text
        assert "columns: 3" in text
        assert "boxes: 6" in text
        assert "diagonal: 2" in text
        assert "transpose: 3,2,1" in text

    def test_draw(self):
        assert run(["draw", "3,2,1", "--symbol", "4"]) == (0, "#\n# #\n# # #")

    def test_draw_star(self):
        assert run(["draw", "2", "--symbol", "0"]) == (0, "* *")

    def test_list_order(self):
        status, text = run(["list", "4"])
        assert status == 0
        assert text.splitlines() == ["1,1,1,1", "2,1,1", "3,1", "2,2", "4"]

    def test_list_zero(self):
        # The empty partition's literal is the empty string.
        assert run(["list", "0"]) == (0, "")

    def test_character(self):
        assert run(["character", "1,1", "--cycles", "2:1"]) == (0, "-1")
        assert run(["character", "2,1", "--cycles", "1:3"]) == (0, "2")
        # Counts of a repeated size add up.
        assert run(["character", "2,1", "--cycles", "1:1,1:2"]) == (0, "2")


class TestVerifyCommand:
    def test_all_scopes_pass(self):
        status, text = run(["verify", "all", "--max-boxes", "4"])
        assert status == 0
        lines = text.splitlines()
        assert [l.split(":")[0] for l in lines] == [
            "degenerations",
            "characters",
            "oracles",
        ]
        assert all(": pass (" in l and l.endswith(" cases)") for l in lines)

    def test_single_scope(self):
        status, text = run(["verify", "characters", "--max-boxes", "5"])
        assert status == 0
        assert text.startswith("characters: pass (")

    def test_wrong_character_fails(self, monkeypatch):
        """The orthogonality sweep catches one flipped table entry."""
        real = verify._character

        def flipped(parts, cycles):
            value = real(parts, cycles)
            return -value if (parts, cycles) == ((2, 1), ()) else value

        monkeypatch.setattr(verify, "_character", flipped)
        assert run(["verify", "characters", "--max-boxes", "3"]) == (3, "characters: FAIL (36 cases)")

    @pytest.mark.parametrize("name", ["schur", "monomial"])
    def test_wrong_degeneration_fails(self, name, monkeypatch):
        """The degeneration sweep catches one shape's Q=0 side (Schur) or
        Q=1 side (monomial) gone wrong."""
        real = getattr(verify, name)

        def perturbed(lam, *rest):
            value = real(lam, *rest)
            return value + 1 if lam.parts == (2, 1) else value

        monkeypatch.setattr(verify, name, perturbed)
        assert run(["verify", "degenerations", "--max-boxes", "3"]) == (
            3, "degenerations: FAIL (14 cases)"
        )

    def test_wrong_oracle_fails(self, monkeypatch):
        """The oracle sweep catches one shape where the two Schur routes part,
        also after a clean run has filled both Schur memos: a hit is compared,
        not trusted."""
        argv = ["verify", "oracles", "--max-boxes", "5"]
        assert run(argv) == (0, "oracles: pass (19 cases)")
        real = verify.schur_via_characters

        def perturbed(lam):
            value = real(lam)
            return value + 1 if lam.parts == (2, 1) else value

        monkeypatch.setattr(verify, "schur_via_characters", perturbed)
        assert run(argv) == (3, "oracles: FAIL (19 cases)")
        assert run(["verify", "oracles", "--max-boxes", "3"]) == (3, "oracles: FAIL (7 cases)")

    def test_failure_exits_three(self, monkeypatch):
        monkeypatch.setattr(
            "schurkit.verify.run_scope", lambda scope, max_boxes: [("oracles", False, 7)]
        )
        assert run(["verify", "oracles"]) == (3, "oracles: FAIL (7 cases)")

    def test_unknown_scope_rejected(self):
        """The parser only passes known scopes; run_scope refuses others itself."""
        with pytest.raises(ValueError, match="unknown scope 'bogus'"):
            verify.run_scope("bogus", 4)

    def test_parser_agrees_with_verify(self):
        """The parser spells out verify's scopes and box bound, so that
        parsing does not load verify; they stay the same as verify's own."""
        verify_parser = next(
            a for a in build_parser()._actions if a.dest == "command"
        ).choices["verify"]
        scope, max_boxes = (
            next(a for a in verify_parser._actions if a.dest == dest)
            for dest in ("scope", "max_boxes")
        )
        assert sorted(scope.choices) == sorted(verify.SCOPES)
        assert f"at most {verify.MAX_BOXES_LIMIT} " in max_boxes.help

    def test_repeated_oracle_sweep_hits_the_schur_memo(self):
        """All 67 shapes of at most 8 boxes stay in both routes' memos
        between sweeps."""
        argv = ["verify", "oracles", "--max-boxes", "8"]
        assert run(argv) == (0, "oracles: pass (67 cases)")
        before = [memo.cache_info() for memo in (_schur, _schur_via_characters)]
        assert run(argv) == (0, "oracles: pass (67 cases)")
        after = [memo.cache_info() for memo in (_schur, _schur_via_characters)]
        for a, b in zip(after, before):
            assert (a.hits - b.hits, a.misses - b.misses) == (67, 0)

    def test_repeated_character_sweep_hits_the_character_cache(self):
        """One sweep of at most 8 boxes makes 985 lookups under 919 keys, the
        ones character() makes: its identity checks read the table's own
        entries.  The keys stay in the bounded cache between sweeps."""
        argv = ["verify", "characters", "--max-boxes", "8"]
        _character.cache_clear()
        assert run(argv) == (0, "characters: pass (1904 cases)")
        before = _character.cache_info()
        assert (before.hits, before.misses) == (66, 919)
        assert run(argv) == (0, "characters: pass (1904 cases)")
        after = _character.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (985, 0)

    def test_max_boxes_bound(self, capsys):
        status, text = run(["verify", "all", "--max-boxes", "99"])
        assert (status, text) == (2, "")
        assert capsys.readouterr().err.startswith("schurkit: ")


class TestBenchCommand:
    def test_partitions_plain(self):
        status, text = run(["bench", "partitions", "10"])
        assert status == 0
        lines = text.splitlines()
        assert lines[0] == "target: partitions"
        assert lines[1] == "size: 10"
        assert lines[2] == "partitions: 42"
        assert lines[3].startswith("seconds: ")

    def test_partitions_csv(self):
        status, text = run(["bench", "partitions", "10", "--csv"])
        assert status == 0
        header, row = text.splitlines()
        assert header == "target,size,items,seconds"
        fields = row.split(",")
        assert fields[:3] == ["partitions", "10", "42"]
        float(fields[3])

    def test_hall_littlewood(self):
        status, text = run(["bench", "hall-littlewood", "3", "--csv"])
        assert status == 0
        assert text.splitlines()[1].startswith("hall-littlewood,3,9,")

    def test_schur_staircase(self):
        status, text = run(["bench", "schur", "7"])
        assert status == 0
        lines = text.splitlines()
        assert lines[:3] == ["target: schur", "size: 7", "output terms: 159"]
        assert lines[3].startswith("seconds: ")
        status, text = run(["bench", "schur", "3", "--csv"])
        assert status == 0
        assert text.splitlines()[1].startswith("schur,3,4,")

    def test_schur_times_a_build(self):
        """bench schur calls the kernel behind the memo, so a repeat still
        times a build: the memo never holds the staircase, only its entries
        h_k, which a repeat reads as hits."""
        _schur.cache_clear()
        assert run(["bench", "schur", "7"])[0] == 0
        info = _schur.cache_info()
        assert run(["bench", "schur", "7"])[0] == 0
        after = _schur.cache_info()
        assert (after.misses, after.currsize) == (info.misses, info.currsize)
        _schur((7, 6, 5, 4, 3, 2, 1), ())
        assert _schur.cache_info().misses == info.misses + 1

    def test_hall_littlewood_times_a_full_build(self):
        """bench hall-littlewood empties the branch table before its timer,
        so a repeat tabulates every shape again and reads none left by the
        first run: a warm repeat would count no misses.  Hits are the shapes
        a build meets again at a later letter, the same in both runs."""
        assert run(["bench", "hall-littlewood", "5"])[0] == 0
        first = _branches.cache_info()
        assert run(["bench", "hall-littlewood", "5"])[0] == 0
        again = _branches.cache_info()
        assert again.misses == first.misses > 0
        assert again.hits == first.hits

    def test_size_bounds(self, capsys):
        assert run(["bench", "partitions", "81"])[0] == 2
        assert run(["bench", "hall-littlewood", "9"])[0] == 2
        assert run(["bench", "hall-littlewood", "0"])[0] == 2
        capsys.readouterr()

    @pytest.mark.parametrize("size", ["0", "9", "-1"])
    def test_schur_staircase_guard(self, size, capsys):
        assert run(["bench", "schur", size]) == (2, "")
        assert capsys.readouterr().err == "schurkit: schur bench staircase must be in 1..8\n"


class TestErrorPaths:
    @pytest.mark.parametrize(
        "argv",
        [
            ["schur", "1,2,3"],
            ["draw", "3,2,1", "--symbol", "9"],
            ["character", "2,1", "--cycles", "2:1"],
            ["list", "-4"],
            ["homogeneous", "-1"],
            ["hall-littlewood", "1,1,1", "--vars", "2"],
            ["hall-littlewood", "2,1", "--vars", "3", "--workers", "0"],
            ["elementary", "-1"],
            ["draw", "2000000000"],
            ["partition", "2000000000"],
            ["character", "99999999999", "--cycles", "99999999999:1"],
            ["character", "2", "--cycles", "1:5,1:-3"],
        ],
    )
    def test_domain_errors_exit_two(self, argv, capsys):
        assert run(argv) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("schurkit: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["schur", "99999999999"],
            ["schur", "3,2", "--skew", "99999999999"],
            ["monomial", "99999999999", "--vars", "1"],
            ["hall-littlewood", "99999999999", "--vars", "1"],
        ],
    )
    def test_every_shape_literal_is_bounded(self, argv, capsys):
        """Each shape literal is refused past the box bound before any work."""
        start = time.perf_counter()
        assert run(argv) == (2, "")
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == "schurkit: shape must have at most 1000000 boxes\n"

    @pytest.mark.parametrize("cycles", ["1:-1", "1:5,1:-1", "1:-1,1:5"])
    def test_negative_count_message(self, cycles, capsys):
        """Each count is checked, not only the sum over its size."""
        assert run(["character", "2", "--cycles", cycles]) == (2, "")
        assert capsys.readouterr().err == (
            "schurkit: multiplicities must be nonnegative integers, got -1\n"
        )

    @pytest.mark.parametrize("command", ["list", "homogeneous", "elementary"])
    def test_negative_degree_message(self, command, capsys):
        assert run([command, "-1"]) == (2, "")
        assert capsys.readouterr().err == "schurkit: n must be nonnegative\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["frobnicate"],
            ["schur", "a,b"],
            ["character", "2,1", "--cycles", "nope"],
            ["verify", "everything"],
            ["bench", "sorting", "5"],
            [],
        ],
    )
    def test_usage_errors_exit_one(self, argv, capsys):
        assert run(argv) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("schurkit: ")

    def test_out_of_memory_exits_two(self, monkeypatch, capsys):
        def exhausted(n):
            raise MemoryError
        monkeypatch.setattr("schurkit.cli.homogeneous", exhausted)
        assert run(["homogeneous", "3"]) == (2, "")
        assert capsys.readouterr().err == "schurkit: out of memory\n"

    def test_out_of_memory_in_a_process(self, child_env):
        """Under a 1.5 GB address-space limit, listing the partitions of
        5 * 10^9, or spelling e_n's key (1,) * n for n near 10^11, runs out
        of memory and ends in one stderr line."""
        resource = pytest.importorskip("resource")
        limit = 1536 * 2**20
        for argv in (["list", "5000000000"], ["elementary", "99999999999"]):
            proc = subprocess.run(
                [sys.executable, "-m", "schurkit.cli", *argv],
                capture_output=True,
                text=True,
                env=child_env,
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
                timeout=60,
            )
            assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "schurkit: out of memory\n"), argv

    def test_nothing_on_stdout_after_error(self, capsys):
        status = main(["schur", "1,2,3"])
        assert status == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err != ""


class TestDeterminism:
    def test_repeated_runs_identical(self):
        first = run(["hall-littlewood", "2,2", "--vars", "3"])
        second = run(["hall-littlewood", "2,2", "--vars", "3"])
        assert first == second

    def test_worker_counts_identical(self):
        outputs = {
            run(["hall-littlewood", "2,1", "--vars", "4", "--workers", str(w)])
            for w in (1, 2, 3)
        }
        assert len(outputs) == 1

    def test_json_stable(self):
        first = run(["schur", "3,2,1", "--json"])
        second = run(["schur", "3,2,1", "--json"])
        assert first == second

    def test_hash_seed_does_not_change_output(self, child_env):
        """One child process per PYTHONHASHSEED runs every family in text and
        JSON, the verify sweeps and miwa_push's error on a polynomial with
        both x1 and Q; all print the same bytes."""
        argvs = [["partition", "5,3,3,1"], ["draw", "3,2"], ["list", "6"],
                 ["character", "5,3,1", "--cycles", "2:2,1:5"], ["verify", "all", "--max-boxes", "5"]]
        for argv in (["homogeneous", "6"], ["elementary", "5"], ["schur", "5,4,2", "--skew", "2,1"],
                     ["monomial", "3,2,2,1", "--vars", "6"], ["hall-littlewood", "3,2,1", "--vars", "5"]):
            argvs += [argv, argv + ["--json"]]
        script = (
            "import json, sys\n"
            "from schurkit import AlphabetContext, Polynomial, miwa_push, q_var, t_var, x_var\n"
            "from schurkit.cli import run\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    print(run(argv))\n"
            "p = sum(Polynomial.variable(v) for v in (x_var(1), q_var(), t_var(1)))\n"
            "try:\n"
            "    miwa_push(p, AlphabetContext(2))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        outputs = {}
        for seed in ("0", "1", "2"):
            proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                                  capture_output=True, text=True,
                                  env={**child_env, "PYTHONHASHSEED": seed})
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
            outputs[seed] = proc.stdout
        assert outputs["0"] == outputs["1"] == outputs["2"]
        assert outputs["0"].endswith("polynomial must use only t-variables, found Q\n")


class TestLongInputs:
    """One cycle or one letter more does not mean one stack frame more."""

    def test_thousand_fixed_points(self):
        assert run(["character", "1000", "--cycles", "1:1000"]) == (0, "1")

    def test_eleven_hundred_letters(self):
        assert run(["hall-littlewood", "", "--vars", "1100"]) == (0, "1")

    def test_digits_past_the_int_to_str_limit(self):
        """f^(8000,8000), a Catalan number of 4811 digits, is past CPython's
        default limit of 4300 digits for str(int); the CLI prints it whole."""
        want = comb(16000, 8000) // 8001
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        if 0 < limit < 4811:  # as by default: str() raises, so the fallback prints
            with pytest.raises(ValueError):
                str(want)
        assert run(["character", "8000,8000", "--cycles", "1:16000"]) == (0, str(Decimal(want)))

    def test_long_tails_in_a_process(self, child_env):
        """Fixed points are closed in one step, not one strip each: a row of
        a million boxes, a hook of a thousand and two rows of three thousand
        finish well inside the budget in a fresh process."""
        hook = ",".join(["500"] + ["1"] * 500)
        for argv, want in ((["1000000", "--cycles", "1:1000000"], 1),
                           ([hook, "--cycles", "1:1000"], comb(999, 500)),
                           (["3000,3000", "--cycles", "1:6000"], comb(6000, 3000) // 3001)):
            proc = subprocess.run([sys.executable, "-m", "schurkit.cli", "character", *argv],
                                  capture_output=True, text=True, env=child_env, timeout=20)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{want}\n", ""), argv[0][:10]

    def test_thousand_fixed_points_in_a_process(self, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "schurkit.cli", "character", "1000", "--cycles", "1:1000"],
            capture_output=True,
            text=True,
            env=child_env,
        )
        assert proc.returncode == 0
        assert proc.stdout == "1\n"
        assert proc.stderr == ""


class TestMainAndProcess:
    def test_main_appends_newline(self, capsys):
        assert main(["draw", "2,1"]) == 0
        assert capsys.readouterr().out == "#\n# #\n"

    def test_module_invocation(self, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "schurkit.cli", "schur", "3,2,1"],
            capture_output=True,
            text=True,
            env=child_env,
        )
        assert proc.returncode == 0
        assert proc.stdout == S321 + "\n"
        assert proc.stderr == ""

    def test_module_invocation_error(self, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "schurkit.cli", "schur", "1,2,3"],
            capture_output=True,
            text=True,
            env=child_env,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("schurkit: ")

    def test_closed_stdout_is_quiet(self, child_env):
        """A reader that leaves after one line, as `| head -1` does, gets
        the command's own status and no traceback on stderr."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "schurkit.cli", "list", "40"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env,
        )
        assert proc.stdout.readline() == b"1," * 39 + b"1\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
        proc.stderr.close()

    def test_shared_parser_matches_fresh_processes(self, capsys, child_env):
        """run() reuses one parser; a sequence of calls in one process prints
        what each call prints in a process of its own, so no default, value
        or error carries over from one call to the next."""
        assert build_parser() is build_parser()
        for argv in (
            ["schur", "3,1", "--skew", "1", "--json"],
            ["character", "3,x", "--cycles", "1:4"],  # usage error
            ["schur", "1,2,3"],  # domain error
            ["schur", "3,1"],
        ):
            status, output = run(argv)
            err = capsys.readouterr().err
            proc = subprocess.run(
                [sys.executable, "-m", "schurkit.cli", *argv],
                capture_output=True,
                text=True,
                env=child_env,
            )
            assert (status, output + "\n" if output else "") == (proc.returncode, proc.stdout), argv
            assert err == proc.stderr and err.count("\n") <= 1, argv
