import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schurkit
from schurkit import canonical_text, from_term_list
from schurkit.cli import main, run

# A child `python -m schurkit.cli` imports the same package as this process,
# also when only pytest's `pythonpath` setting puts it on the path.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(schurkit.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")
    ])),
}

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

    def test_failure_exits_three(self, monkeypatch):
        monkeypatch.setattr(
            "schurkit.cli.run_scope", lambda scope, max_boxes: [("oracles", False, 7)]
        )
        assert run(["verify", "oracles"]) == (3, "oracles: FAIL (7 cases)")

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

    def test_size_bounds(self, capsys):
        assert run(["bench", "partitions", "81"])[0] == 2
        assert run(["bench", "hall-littlewood", "9"])[0] == 2
        assert run(["bench", "hall-littlewood", "0"])[0] == 2
        capsys.readouterr()


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


class TestMainAndProcess:
    def test_main_appends_newline(self, capsys):
        assert main(["draw", "2,1"]) == 0
        assert capsys.readouterr().out == "#\n# #\n"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "schurkit.cli", "schur", "3,2,1"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0
        assert proc.stdout == S321 + "\n"
        assert proc.stderr == ""

    def test_module_invocation_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "schurkit.cli", "schur", "1,2,3"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("schurkit: ")
