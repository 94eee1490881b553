import io
import json
import random
import subprocess
import sys
import time
from itertools import islice

import pytest

from oracles import o_member, to_bits
from sdcodes import CoordinatePermutation, apply_permutation, cli, code, gf2
from sdcodes.fixtures_io import fixture, serialize_matrix
from sdcodes.gf2 import BitMatrix, BitVector
from sdcodes.neighborhood import (
    double_pair_code,
    neighborhood_of,
    random_self_dual,
    verify_distance2_coincidence,
    verify_no_better_type1,
    walk_self_dual,
)


def run_cli(capsys, *argv):
    status = cli.main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line]


class TestInfo:
    def test_fixture_flag(self, capsys):
        status, out, _ = run_cli(capsys, "info", "fixture:G3")
        assert status == 0
        assert "n=24 k=12 d=2" in out
        assert "type=TypeI" in out

    def test_json_keys(self, capsys):
        status, out, _ = run_cli(capsys, "info", "fixture:G6", "--json")
        assert status == 0
        (record,) = json_lines(out)
        assert set(record) == {
            "command", "input", "n", "k", "d", "self_dual", "type",
            "weight_enumerator", "exit_status",
        }
        assert record["d"] == 8 and record["type"] == "TypeII"
        # [weight, count] pairs in weight order, not an object keyed by strings
        assert record["weight_enumerator"] == [[0, 1], [8, 759], [12, 2576], [16, 759], [24, 1]]

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

    def test_fixture_option_removed(self, capsys):
        # a fixture is named only by the input token fixture:NAME
        with pytest.raises(SystemExit) as exc:
            cli.main(["info", "--fixture", "G3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --fixture" in capsys.readouterr().err

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
        status, out, _ = run_cli(capsys, "dual", "fixture:G2", "--json")
        assert status == 0
        (record,) = json_lines(out)
        assert record["n"] == 24 and record["k"] == 12
        from sdcodes import from_generator, parse_matrix

        assert from_generator(parse_matrix("\n".join(record["rows"]))) == fixture_codes["G2"]

    def test_human_output_parses(self, capsys):
        status, out, _ = run_cli(capsys, "dual", "fixture:G1")
        assert status == 0
        from sdcodes import parse_matrix

        body = "\n".join(out.splitlines()[1:]) + "\n"
        assert parse_matrix(body).nrows == 12

    def test_zero_dimensional_dual(self, capsys, tmp_path):
        path = tmp_path / "identity10.txt"
        path.write_text(serialize_matrix(BitMatrix([BitVector(10, 1 << i) for i in range(10)])))
        status, out, _ = run_cli(capsys, "dual", str(path), "--json")
        assert status == 0
        (record,) = json_lines(out)
        assert record["k"] == 0 and record["rows"] == []
        # the text format has no empty matrix
        status, out, err = run_cli(capsys, "dual", str(path))
        assert status == 2 and out == "" and "not representable" in err


class TestNeighborhood:
    def test_type1_fixture(self, capsys):
        status, out, _ = run_cli(capsys, "neighborhood", "fixture:G3", "--json")
        assert status == 0
        (record,) = json_lines(out)
        assert record["c_max_dimension"] == 11
        assert sorted(m["distance"] for m in record["members"]) == [2, 8, 8]
        assert sorted(m["type"] for m in record["members"]) == [
            "TypeI", "TypeII", "TypeII",
        ]
        checks = {v["check"]: v["passed"] for v in record["verdicts"]}
        assert checks == {"no_better_type1": True, "distance2_coincidence": True}

    def test_second_triple_verdicts(self, capsys):
        status, out, _ = run_cli(capsys, "neighborhood", "fixture:G4", "--json")
        assert status == 0
        (record,) = json_lines(out)
        assert sorted(m["distance"] for m in record["members"]) == [4, 6, 8]
        checks = {v["check"]: v["passed"] for v in record["verdicts"]}
        assert checks["no_better_type1"] is True
        assert checks["distance2_coincidence"] is None

    def test_verdicts_are_the_records_of_the_checks(self, capsys, tmp_path):
        # passed, n/a and failed: the two checks' dicts, printed as they are
        path = tmp_path / "walk32.txt"
        path.write_text(serialize_matrix(random_self_dual(32, 12, 19).generator))
        for source in ("fixture:G3", "fixture:G4", str(path)):
            _, out, _ = run_cli(capsys, "neighborhood", source, "--json")
            (record,) = json_lines(out)
            nb = neighborhood_of(cli._load_source(source)[1])
            assert record["verdicts"] == [verify_no_better_type1(nb), verify_distance2_coincidence(nb)]

    def test_type2_input_exits_2(self, capsys):
        status, _, err = run_cli(capsys, "neighborhood", "fixture:G1")
        assert status == 2 and "Type I" in err

    def test_members_reingestible(self, capsys, fixture_codes):
        status, out, _ = run_cli(capsys, "neighborhood", "fixture:G3", "--json")
        (record,) = json_lines(out)
        from sdcodes import from_generator, parse_matrix

        members = {
            from_generator(parse_matrix("\n".join(m["rows"])))
            for m in record["members"]
        }
        assert members == {
            fixture_codes["G1"], fixture_codes["G2"], fixture_codes["G3"]
        }

    def test_c_max_beyond_the_sweep_cap_exits_0(self, capsys, tmp_path):
        # n=64: c_max has dimension 31, past the sweep's cap of 30
        path = tmp_path / "n64.txt"
        path.write_text(serialize_matrix(random_self_dual(64, 21, 0).generator))
        status, out, _ = run_cli(capsys, "neighborhood", str(path), "--json")
        (record,) = json_lines(out)
        assert status == 0 and record["c_max_dimension"] == 31
        assert sorted(m["distance"] for m in record["members"]) == [6, 8, 8]

    def test_heavy_coset_sums_refused_with_the_weight_limit(self, capsys, tmp_path):
        # the double-pair code at n=512 has member sums of weight 256 and more,
        # past what a byte holds; the search refuses them in its first rounds
        path = tmp_path / "double512.txt"
        path.write_text(serialize_matrix(double_pair_code(512).generator))
        start = time.perf_counter()
        status, out, err = run_cli(capsys, "neighborhood", str(path))
        assert time.perf_counter() - start < 1
        assert status == 2 and out == ""
        assert "coset search weighs 255 or more" in err and "weight limit 254" in err

    def test_json_builds_no_human_text(self, capsys, monkeypatch):
        # the spaced rows of the members are built only when they are printed
        def refuse(rows):
            raise AssertionError(f"built the human text of {len(rows)} rows")

        monkeypatch.setattr(cli, "_spaced", refuse)
        status, out, _ = run_cli(capsys, "neighborhood", "fixture:G4", "--json")
        (record,) = json_lines(out)
        assert status == 0 and len(record["members"]) == 3
        with pytest.raises(AssertionError, match="human text"):
            run_cli(capsys, "neighborhood", "fixture:G4")

    def test_failed_verdict_in_the_human_text(self, capsys, tmp_path):
        # d=6 against Type II distances 4 and 4: exit 1, the verdict printed
        path = tmp_path / "walk32.txt"
        path.write_text(serialize_matrix(random_self_dual(32, 12, 19).generator))
        status, out, _ = run_cli(capsys, "neighborhood", str(path))
        lines = out.splitlines()
        assert status == 1 and lines[0] == "n=32 c_max_dimension=15"
        assert lines[-2:] == ["verdict no_better_type1: FAIL", "verdict distance2_coincidence: n/a"]
        assert [line.split()[:3] for line in lines if line.startswith("member")] == [
            ["member", "1:", "type=TypeII"], ["member", "2:", "type=TypeII"], ["member", "3:", "type=TypeI"],
        ]

    def test_no_sweep_per_neighborhood(self, capsys, monkeypatch, tmp_path):
        # representatives and member distances come from one Brouwer-Zimmermann
        # search of the Type I member and its shadow, the verdicts from those
        # distances, and neither c_max nor its dual is swept
        sweeps = []
        span = code._span_words

        def counted(rows):
            sweeps.append(len(rows))
            return span(rows)

        monkeypatch.setattr(code, "_span_words", counted)
        path = tmp_path / "walk32.txt"
        path.write_text(serialize_matrix(random_self_dual(32, 12, 19).generator))
        status, out, _ = run_cli(capsys, "neighborhood", str(path), "--json")
        (record,) = json_lines(out)
        assert status == 1 and record["c_max_dimension"] == 15
        assert sweeps == []


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

    def test_one_intersection_per_pair(self, capsys, monkeypatch):
        meets = []
        intersection = code.LinearCode.intersection

        def counted(self, other):
            meets.append(other)
            return intersection(self, other)

        monkeypatch.setattr(code.LinearCode, "intersection", counted)
        for b, expected in (("fixture:G2", 0), ("fixture:G4", 1)):
            meets.clear()
            status, out, _ = run_cli(capsys, "neighbors", "fixture:G1", b, "--json")
            assert status == expected and len(meets) == 1


@pytest.mark.parametrize("command", ["neighbors", "equivalent"])
def test_stdin_named_twice_is_refused_before_reading(capsys, monkeypatch, command):
    # stdin is read once, so a second '-' would see empty input; the command
    # reads none of it, and the message names stdin, not the matrix
    stdin = io.StringIO(serialize_matrix(fixture("G1")))
    monkeypatch.setattr(sys, "stdin", stdin)
    status, out, err = run_cli(capsys, command, "-", "-", "--json")
    assert status == 2 and out == ""
    assert err == "error: '-' names both inputs, but stdin can feed only one\n"
    assert stdin.tell() == 0


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

    def test_search_past_its_budget_exits_2(self, capsys, monkeypatch):
        from sdcodes import equivalence

        monkeypatch.setattr(equivalence, "EQUIVALENCE_WORD_BUDGET", 10)
        status, out, err = run_cli(capsys, "equivalent", "fixture:G1", "fixture:G2", "--json")
        assert status == 2 and out == ""
        assert err.startswith("error: equivalence search budget exceeded") and "past the budget 10" in err

    def test_length_256_exits_2_without_traceback(self, tmp_path):
        for name, steps in (("A", 10), ("B", 11)):
            (tmp_path / name).write_text(serialize_matrix(random_self_dual(256, steps, 0).generator))
        proc = subprocess.run(
            [sys.executable, "-m", "sdcodes.cli", "equivalent", str(tmp_path / "A"), str(tmp_path / "B")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2 and proc.stdout == "" and "Traceback" not in proc.stderr
        assert proc.stderr == "error: instance too large: length 256 is past 255, the limit of the byte weights\n"


def replay_search(n, steps, seed, min_d=None):
    """The --json records of search, replayed with the exact distance of
    every code of the walk, and whether each code could skip its rounds: it
    does not beat its type's best and has a row no heavier than that best,
    or it has a row no heavier than the divisor of its weights, 2 for a
    Type I code and 4 for a Type II one."""
    records, best, skips, stopped = [], {}, [], False
    for step, c in enumerate(islice(walk_self_dual(n, seed), steps + 1)):
        ctype, d = str(c.classify()), c.minimum_distance()
        entry = best.get(ctype)
        improves = entry is None or d > entry["d"]
        lightest = min(map(int.bit_count, c.rows))
        skips.append(lightest <= (4 if ctype == "TypeII" else 2) or not improves and lightest <= entry["d"])
        if improves:
            best[ctype] = {"d": d, "step": step}
            records.append({"command": "search", "event": "improvement", "step": step, "type": ctype, "d": d})
        if min_d is not None and d >= min_d:
            stopped = True
            break
    records.append({
        "command": "search", "event": "result", "n": n, "seed": seed, "steps": steps,
        "steps_completed": step, "stopped_early": stopped,
        "best": dict(sorted(best.items())), "exit_status": 0,
    })
    return records, skips


# --min-d per length: reached by most walks below, not by all
SEARCH_MIN_D = {16: 4, 24: 6, 32: 6, 40: 6, 48: 8, 56: 8}


class TestSearch:
    def test_records_match_a_replay_with_exact_distances(self, capsys):
        stopped = []
        for n, min_d in SEARCH_MIN_D.items():
            steps = 40 if n <= 40 else 25
            for seed in range(4):
                for extra in ([], ["--min-d", str(min_d)]):
                    status, out, _ = run_cli(capsys, "search", "--n", str(n), "--steps", str(steps),
                                             "--seed", str(seed), "--json", *extra)
                    expected, _ = replay_search(n, steps, seed, min_d if extra else None)
                    assert status == 0 and json_lines(out) == expected
                    if extra:
                        stopped.append(expected[-1]["stopped_early"])
        assert 0 < stopped.count(False) < stopped.count(True)

    def test_codes_that_cannot_improve_build_no_information_sets(self, capsys, monkeypatch):
        # one search draws rounds only for a code that has no row of weight at
        # most its weight divisor, and beats its type's best or has no row of
        # weight at most that best
        _, skips = replay_search(40, 8, 1)
        calls = []
        generators = code._information_set_generators

        def counted(c):
            calls.append(c.k)
            return generators(c)

        monkeypatch.setattr(code, "_information_set_generators", counted)
        status, _, _ = run_cli(capsys, "search", "--n", "40", "--steps", "8", "--seed", "1", "--json")
        assert status == 0
        assert len(calls) == skips.count(False) < len(skips) == 9

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
        from sdcodes import from_generator, parse_matrix

        for ctype, entry in final["best"].items():
            code = from_generator(parse_matrix("\n".join(entry["rows"])))
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

    def test_no_distance_walk_does_each_job_once(self, capsys, monkeypatch):
        # each step makes one reduction of its step vector, against the 256
        # rows of c at the pivots c stores, which gives both the inserted row
        # and the certificate's coset of x; the few row differences are cleared
        # only at the pivots they hit; the draw's outside-c test is read off
        # the step's products with the rows of c; only the final code is
        # classified; each step's rows, pivots and mask are proved an RREF by
        # its certificate, so only the start code runs the RREF check
        reductions, classified, checked = [], [], []
        reduced, classify, rref_pivots = code._reduced, code.LinearCode.classify, gf2._rref_pivots

        def counted_reduced(rows, bits, pivots):
            reductions.append(len(rows))
            return reduced(rows, bits, pivots)

        def counted_classify(self):
            classified.append(self.n)
            return classify(self)

        def counted_rref_pivots(rows, ncols):
            checked.append(len(rows))
            return rref_pivots(rows, ncols)

        monkeypatch.setattr(gf2, "_reduced", counted_reduced)
        monkeypatch.setattr(code, "_reduced", counted_reduced)
        monkeypatch.setattr(code.LinearCode, "classify", counted_classify)
        monkeypatch.setattr(gf2, "_rref_pivots", counted_rref_pivots)
        status, out, _ = run_cli(capsys, "search", "--n", "512", "--steps", "30",
                                 "--no-distance", "--json")
        assert status == 0 and json_lines(out)[-1]["steps_completed"] == 30
        assert reductions == [256] * 30
        assert classified == [512]
        assert checked == [256]

    def test_no_distance_with_min_d_rejected(self, capsys):
        status, _, err = run_cli(capsys, "search", "--n", "16", "--no-distance",
                                 "--min-d", "4")
        assert status == 2 and "min-d" in err

    def test_length_not_multiple_of_8(self, capsys):
        status, _, err = run_cli(capsys, "search", "--n", "10")
        assert status == 2 and "divisible by 8" in err

    def test_negative_steps_rejected(self, capsys):
        status, out, err = run_cli(capsys, "search", "--n", "8", "--steps", "-1")
        assert status == 2 and out == "" and "steps must be nonnegative, got -1" in err

    def test_distances_past_the_sweep_cap(self, capsys):
        # k=32: each step's distance comes from a few Brouwer-Zimmermann rounds
        status, out, _ = run_cli(capsys, "search", "--n", "64", "--steps", "3", "--json")
        assert status == 0 and json_lines(out) == replay_search(64, 3, 0)[0]
        status, out, _ = run_cli(capsys, "search", "--n", "64", "--steps", "3",
                                 "--no-distance", "--json")
        assert status == 0

    def test_every_reused_no_is_proved_by_the_oracles(self, capsys, monkeypatch):
        # search keeps the lightest word y of each type's last search and
        # answers a code of that type with no search when y lies in it and
        # weighs at most the type's best b; each such answer is replayed: y
        # is in the code by rank, wt(y) <= b, and minimum_distance(b) <= b
        walked, searched = [], {}
        query = cli._distance_query

        def walk(n, seed):
            for c in walk_self_dual(n, seed):
                walked.append(c)
                yield c

        def spied(c, stop_at):
            searched[len(walked) - 1] = found = query(c, stop_at)
            return found

        monkeypatch.setattr(cli, "walk_self_dual", walk)
        monkeypatch.setattr(cli, "_distance_query", spied)
        reused = 0
        for n, seed in [(40, s) for s in range(4)] + [(48, s) for s in range(3)] + [(64, s) for s in range(2)]:
            walked.clear()
            searched.clear()
            status, out, _ = run_cli(capsys, "search", "--n", str(n), "--steps", "120", "--seed", str(seed), "--json")
            assert status == 0 and len(walked) == 121
            words, best = {}, {}
            for step, c in enumerate(walked):
                ctype = str(c.classify())
                if step in searched:
                    d, words[ctype] = searched[step]
                    assert c._reduce(words[ctype]) == 0 and words[ctype].bit_count() == d
                    best[ctype] = max(best.get(ctype, 0), d)
                    continue
                y, b = words[ctype], best[ctype]
                assert o_member([to_bits(r) for r in c.generator], to_bits(BitVector(n, y)))
                assert y.bit_count() <= b and c.minimum_distance(b) <= b
                reused += 1
            assert {t: e["d"] for t, e in json_lines(out)[-1]["best"].items()} == best
        # 528 of the 1,089 codes walked are answered by a reused word
        assert reused == 528

    def test_exits_2_with_its_records_when_a_search_reaches_the_cap(self, capsys, monkeypatch):
        # at a cap of 2^12 sums, the first code (k=24) that two rounds do not
        # settle is refused before round 3, which would bring its sums to
        # 2*(24 + 276 + 2024); the three records before it stay on stdout
        monkeypatch.setattr(code, "DEFAULT_ENUMERATION_CAP", 12)
        status, out, err = run_cli(capsys, "search", "--n", "48", "--steps", "20", "--json")
        assert status == 2
        assert [(r["event"], r["d"]) for r in json_lines(out)] == [("improvement", d) for d in (2, 4, 6)]
        assert err == (
            "error: instance too large: round 3 of the Brouwer-Zimmermann search would bring "
            "the row sums drawn to 4648, past the enumeration cap 2^12\n"
        )


class TestGeneratorRowOrder:
    """No output hangs on the order of the rows of the generators that
    _information_set_generators returns: with each generator's (row, pivot)
    pairs in a seeded shuffle, every command prints the same bytes and exits
    with the same status."""

    def test_shuffled_rows_change_no_output(self, capsys, monkeypatch, tmp_path):
        walk = random_self_dual(32, 12, 19)
        images = list(range(32))
        random.Random(47).shuffle(images)
        paths = [tmp_path / "walk32.txt", tmp_path / "permuted32.txt"]
        for path, c in zip(paths, (walk, apply_permutation(walk, CoordinatePermutation(tuple(images))))):
            path.write_text(serialize_matrix(c.generator))
        commands = [
            ["search", "--n", str(n), "--steps", "120", "--seed", str(seed), "--json"]
            for n in (40, 48) for seed in range(4)
        ]
        commands += [["neighborhood", source, "--json"] for source in ("fixture:G3", "fixture:G4", str(paths[0]))]
        commands += [["equivalent", "fixture:G1", "fixture:G2", "--json"], ["equivalent", *map(str, paths), "--json"]]
        expected = [run_cli(capsys, *argv) for argv in commands]
        generators = code._information_set_generators
        moved = []

        def shuffled(c):
            gens = []
            for rows, pivots in generators(c):
                pairs = list(zip(rows, pivots))
                rng.shuffle(pairs)
                moved.append(pairs != list(zip(rows, pivots)))
                gens.append(([r for r, _ in pairs], [p for _, p in pairs]))
            return gens

        monkeypatch.setattr(code, "_information_set_generators", shuffled)
        for seed in range(2):
            rng = random.Random(seed)
            assert [run_cli(capsys, *argv) for argv in commands] == expected
        assert sum(moved) > len(moved) // 2


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

    def test_repeated_in_process_calls_match_fresh_runs(self, capsys):
        # the parser is built once per process; each call must still parse
        # as a fresh process does, also after a parse error
        runs = [
            ["info", "fixture:G3", "--json"],
            ["search", "--n", "16", "--steps", "20", "--seed", "3", "--json"],
            ["search", "--n", "sixteen"],
            ["info", "fixture:G4"],
            ["neighbors", "fixture:G1", "fixture:G2", "--json"],
            ["search", "--n", "16", "--steps", "20", "--seed", "4", "--no-distance"],
        ]
        for argv in runs:
            try:
                status = cli.main(argv)
            except SystemExit as e:
                status = e.code
            out = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "sdcodes.cli", *argv], capture_output=True, text=True
            )
            assert (status, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert cli._parser() is cli._parser()
