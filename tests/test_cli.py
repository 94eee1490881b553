import json
import subprocess
import sys

import pytest

from sdcodes import cli
from sdcodes.fixtures_io import fixture, serialize_matrix


def run_cli(capsys, *argv):
    status = cli.main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line]


class TestInfo:
    def test_fixture_flag(self, capsys):
        status, out, _ = run_cli(capsys, "info", "--fixture", "G3")
        assert status == 0
        assert "n=24 k=12 d=2" in out
        assert "type=TypeI" in out

    def test_json_keys(self, capsys):
        status, out, _ = run_cli(capsys, "info", "--fixture", "G6", "--json")
        assert status == 0
        (record,) = json_lines(out)
        assert set(record) == {
            "command", "input", "n", "k", "d", "self_dual", "type",
            "weight_enumerator", "exit_status",
        }
        assert record["d"] == 8 and record["type"] == "TypeII"
        assert record["weight_enumerator"]["8"] == 759

    def test_file_and_fixture_prefix_inputs(self, capsys, tmp_path):
        path = tmp_path / "g5.txt"
        path.write_text(serialize_matrix(fixture("G5")))
        status, out, _ = run_cli(capsys, "info", str(path))
        assert status == 0 and "d=4" in out
        status, out, _ = run_cli(capsys, "info", "fixture:G5")
        assert status == 0 and "d=4" in out

    def test_missing_input(self, capsys):
        status, _, err = run_cli(capsys, "info")
        assert status == 2 and "required" in err

    def test_both_inputs_rejected(self, capsys):
        status, _, err = run_cli(capsys, "info", "fixture:G1", "--fixture", "G2")
        assert status == 2 and "not both" in err

    def test_nonexistent_file(self, capsys):
        status, _, err = run_cli(capsys, "info", "/no/such/file")
        assert status == 2 and "no such file" in err

    def test_unknown_fixture(self, capsys):
        status, _, err = run_cli(capsys, "info", "fixture:G9")
        assert status == 2 and "unknown fixture" in err

    def test_parse_error_carries_position(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("101\n1x1\n")
        status, _, err = run_cli(capsys, "info", str(path))
        assert status == 2 and "line 2" in err


class TestDual:
    def test_self_dual_fixture_round_trips(self, capsys, fixture_codes):
        status, out, _ = run_cli(capsys, "dual", "--fixture", "G2", "--json")
        assert status == 0
        (record,) = json_lines(out)
        assert record["n"] == 24 and record["k"] == 12
        from sdcodes import BitMatrix, from_generator

        assert from_generator(BitMatrix.from_strings(record["rows"])) == fixture_codes["G2"]

    def test_human_output_parses(self, capsys):
        status, out, _ = run_cli(capsys, "dual", "--fixture", "G1")
        assert status == 0
        from sdcodes import parse_matrix

        body = "\n".join(out.splitlines()[1:]) + "\n"
        assert parse_matrix(body).nrows == 12


class TestNeighborhood:
    def test_type1_fixture(self, capsys):
        status, out, _ = run_cli(capsys, "neighborhood", "--fixture", "G3", "--json")
        assert status == 0
        (record,) = json_lines(out)
        assert record["c_max_dimension"] == 11
        assert sorted(m["distance"] for m in record["members"]) == [2, 8, 8]
        assert sorted(m["type"] for m in record["members"]) == [
            "TypeI", "TypeII", "TypeII",
        ]
        checks = {v["check"]: v["passed"] for v in record["verdicts"]}
        assert checks["no_better_type1"] is True
        assert checks["distance2_coincidence"] is True
        assert checks["singly_even_range"] is True

    def test_second_triple_verdicts(self, capsys):
        status, out, _ = run_cli(capsys, "neighborhood", "--fixture", "G4", "--json")
        assert status == 0
        (record,) = json_lines(out)
        assert sorted(m["distance"] for m in record["members"]) == [4, 6, 8]
        checks = {v["check"]: v["passed"] for v in record["verdicts"]}
        assert checks["no_better_type1"] is True
        assert checks["distance2_coincidence"] is None

    def test_type2_input_exits_2(self, capsys):
        status, _, err = run_cli(capsys, "neighborhood", "--fixture", "G1")
        assert status == 2 and "Type I" in err

    def test_members_reingestible(self, capsys, fixture_codes):
        status, out, _ = run_cli(capsys, "neighborhood", "--fixture", "G3", "--json")
        (record,) = json_lines(out)
        from sdcodes import BitMatrix, from_generator

        members = {
            from_generator(BitMatrix.from_strings(m["rows"]))
            for m in record["members"]
        }
        assert members == {
            fixture_codes["G1"], fixture_codes["G2"], fixture_codes["G3"]
        }


class TestNeighbors:
    def test_yes(self, capsys):
        status, out, _ = run_cli(capsys, "neighbors", "fixture:G1", "fixture:G2", "--json")
        assert status == 0
        (record,) = json_lines(out)
        assert record["neighbors"] is True
        assert record["intersection_dimension"] == 11

    def test_no_exits_1(self, capsys):
        status, out, _ = run_cli(capsys, "neighbors", "fixture:G1", "fixture:G4")
        assert status == 1
        assert "neighbors=no" in out

    def test_non_self_dual_input_exits_2(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1000\n0100\n")
        status, _, err = run_cli(capsys, "neighbors", str(path), str(path))
        assert status == 2 and "self-dual" in err


class TestEquivalent:
    def test_witness_reported(self, capsys, fixture_codes):
        status, out, _ = run_cli(capsys, "equivalent", "fixture:G1", "fixture:G2", "--json")
        assert status == 0
        (record,) = json_lines(out)
        assert record["equivalent"] is True
        from sdcodes import CoordinatePermutation, apply_permutation

        p = CoordinatePermutation(tuple(record["witness"]))
        assert apply_permutation(fixture_codes["G1"], p) == fixture_codes["G2"]

    def test_inequivalent_exits_1(self, capsys):
        status, out, _ = run_cli(capsys, "equivalent", "fixture:G1", "fixture:G3", "--json")
        assert status == 1
        (record,) = json_lines(out)
        assert record["equivalent"] is False and record["witness"] is None

    def test_failed_witness_check_exits_1(self, capsys, monkeypatch, fixture_codes):
        from sdcodes import equivalence

        monkeypatch.setattr(equivalence, "apply_permutation", lambda c, p: fixture_codes["G3"])
        status, out, err = run_cli(capsys, "equivalent", "fixture:G1", "fixture:G2", "--json")
        assert status == 1 and out == ""
        assert "consistency check failed" in err


class TestSearch:
    def test_deterministic_in_process(self, capsys):
        status1, out1, _ = run_cli(capsys, "search", "--n", "16", "--steps", "200",
                                   "--seed", "7", "--json")
        status2, out2, _ = run_cli(capsys, "search", "--n", "16", "--steps", "200",
                                   "--seed", "7", "--json")
        assert status1 == status2 == 0
        assert out1 == out2
        final = json_lines(out1)[-1]
        assert final["event"] == "result"
        assert final["best"]["TypeI"]["d"] >= 2

    def test_min_d_stops_early(self, capsys):
        status, out, _ = run_cli(capsys, "search", "--n", "16", "--steps", "500",
                                 "--seed", "7", "--min-d", "4", "--json")
        assert status == 0
        final = json_lines(out)[-1]
        assert final["stopped_early"] is True
        assert final["steps_completed"] < 500

    def test_report_best_rows_reproduce_distance(self, capsys):
        status, out, _ = run_cli(capsys, "search", "--n", "16", "--steps", "50",
                                 "--seed", "3", "--report-best", "--json")
        assert status == 0
        final = json_lines(out)[-1]
        from sdcodes import BitMatrix, from_generator

        for ctype, entry in final["best"].items():
            code = from_generator(BitMatrix.from_strings(entry["rows"]))
            assert code.is_self_dual()
            assert str(code.classify()) == ctype
            assert code.minimum_distance() == entry["d"]

    def test_no_distance_walk(self, capsys):
        status, out, _ = run_cli(capsys, "search", "--n", "16", "--steps", "20",
                                 "--seed", "1", "--no-distance", "--json")
        assert status == 0
        records = json_lines(out)
        assert len(records) == 1
        assert records[0]["best"] == {}
        assert records[0]["final_type"] in ("TypeI", "TypeII")

    def test_no_distance_with_min_d_rejected(self, capsys):
        status, _, err = run_cli(capsys, "search", "--n", "16", "--no-distance",
                                 "--min-d", "4")
        assert status == 2 and "min-d" in err

    def test_length_not_multiple_of_8(self, capsys):
        status, _, err = run_cli(capsys, "search", "--n", "10")
        assert status == 2 and "divisible by 8" in err

    def test_cap_requires_no_distance(self, capsys):
        status, _, err = run_cli(capsys, "search", "--n", "64")
        assert status == 2 and "no-distance" in err
        status, out, _ = run_cli(capsys, "search", "--n", "64", "--steps", "3",
                                 "--no-distance", "--json")
        assert status == 0


class TestVerifyPaper:
    def test_corrupted_fixture_fails_the_suite(self, capsys, monkeypatch):
        import sdcodes.fixtures_io as fio

        corrupted = dict(fio._FIXTURE_TEXT)
        text = corrupted["G1"]
        flip = text.index("1")
        corrupted["G1"] = text[:flip] + "0" + text[flip + 1:]
        monkeypatch.setattr(fio, "_FIXTURE_TEXT", corrupted)
        fio.fixture.cache_clear()
        try:
            status, out, _ = run_cli(capsys, "verify-paper", "--json")
        finally:
            fio.fixture.cache_clear()
        assert status == 1
        records = json_lines(out)
        failed = [r for r in records if r.get("passed") is False]
        assert failed
        assert records[-1]["failed"] == len(failed)


class TestSubprocess:
    def test_stdin_and_script_entry(self):
        text = serialize_matrix(fixture("G4"), spaced=True)
        proc = subprocess.run(
            [sys.executable, "-m", "sdcodes.cli", "info", "-", "--json"],
            input=text, capture_output=True, text=True,
        )
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert record["input"] == "<stdin>" and record["d"] == 6

    def test_search_byte_identical_across_processes(self):
        argv = [sys.executable, "-m", "sdcodes.cli", "search", "--n", "16",
                "--steps", "200", "--seed", "7", "--json"]
        a = subprocess.run(argv, capture_output=True)
        b = subprocess.run(argv, capture_output=True)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_usage_error_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sdcodes.cli", "frobnicate"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
