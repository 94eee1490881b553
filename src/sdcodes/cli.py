"""Command-line interface: inspect codes, build neighborhoods, verify, search.

Each command yields records and builds no text; main prints them, with --json
as single lines with sorted keys, so identical invocations produce
byte-identical output, and else as the text its command's renderer reads from
each record.  Exit status contract: 0 success, 1 check-failed (a structural or
requested check did not hold), 2 usage or input error.  main returns the last
record's exit_status, or 1 or 2 for an exception, raised after the records
before it are printed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import islice

from .code import InternalConsistencyError, LinearCode, _distance_query, from_generator
from .equivalence import are_permutation_equivalent
from .fixtures_io import FIXTURE_NAMES, MatrixFormatError, fixture, parse_matrix, serialize_matrix
from .gf2 import BitMatrix, BitVector, _to01
from .neighborhood import (
    _meet_dimension,
    neighborhood_of,
    verify_distance2_coincidence,
    verify_no_better_type1,
    walk_self_dual,
)


_INPUT_HELP = f"matrix file, '-' for stdin, or fixture:NAME ({', '.join(FIXTURE_NAMES)})"


def _matrix_rows(code: LinearCode) -> list[str]:
    return [_to01(r, code.n) for r in code.rows]


def _spaced(rows: list[str]) -> str:
    """Rows as the spaced text matrix of serialize_matrix, without its final newline."""
    return "\n".join(map(" ".join, rows))


def _load_source(token: str | None) -> tuple[str, LinearCode]:
    """Resolve one input token: '-' (stdin) first, then an existing path, then fixture:NAME."""
    if token is None:
        raise MatrixFormatError(f"an input is required: {_INPUT_HELP}")
    if token == "-":
        return "<stdin>", from_generator(parse_matrix(sys.stdin.read()))
    if os.path.exists(token):
        with open(token, "rb") as fh:
            return token, from_generator(parse_matrix(fh.read()))
    if token.startswith("fixture:"):
        return token[8:], from_generator(fixture(token[8:]))
    raise MatrixFormatError(f"no such file: {token}")


def _load_pair(args) -> tuple[tuple[str, LinearCode], tuple[str, LinearCode]]:
    """Resolve a two-input command's inputs; stdin is read once, so '-' may name only one."""
    if args.a == args.b == "-":
        raise MatrixFormatError("'-' names both inputs, but stdin can feed only one")
    return _load_source(args.a), _load_source(args.b)


def _cmd_info(args):
    name, code = _load_source(args.input)
    we = code.weight_enumerator()
    yield {
        "command": "info",
        "input": name,
        "n": code.n,
        "k": code.k,
        "d": min((w for w in we if w), default=None),
        "self_dual": code.is_self_dual(),
        "type": str(code.classify()),
        "weight_enumerator": [[w, c] for w, c in we.items()],
        "exit_status": 0,
    }


def _info_text(record: dict) -> str:
    d = "-" if record["d"] is None else record["d"]
    return (
        f"n={record['n']} k={record['k']} d={d} "
        f"self_dual={'yes' if record['self_dual'] else 'no'} type={record['type']}\n"
        "weight_enumerator: " + " ".join(f"{w}:{c}" for w, c in record["weight_enumerator"])
    )


def _cmd_dual(args):
    name, code = _load_source(args.input)
    dual = code.dual()
    yield {
        "command": "dual",
        "input": name,
        "n": dual.n,
        "k": dual.k,
        "rows": _matrix_rows(dual),
        "exit_status": 0,
    }


def _dual_text(record: dict) -> str:
    # serialize_matrix holds the text rule for k=0, which the text format
    # cannot always show, so the matrix goes through it
    rows = BitMatrix([BitVector.from_string(r) for r in record["rows"]], record["n"])
    return f"n={record['n']} k={record['k']}\n{serialize_matrix(rows, spaced=True)}".rstrip("\n")


def _cmd_neighborhood(args):
    name, code = _load_source(args.input)
    nb = neighborhood_of(code)
    verdicts = [verify_no_better_type1(nb), verify_distance2_coincidence(nb)]
    members = [
        {"type": str(t), "distance": d, "representative": rep.to01(), "rows": _matrix_rows(m)}
        for m, rep, t, d in zip(nb.members, nb.representatives, nb.member_types, nb.member_distances)
    ]
    yield {
        "command": "neighborhood",
        "input": name,
        "n": nb.c_max.n,
        "c_max_dimension": nb.c_max.k,
        "members": members,
        "verdicts": verdicts,
        "exit_status": 1 if any(v["passed"] is False for v in verdicts) else 0,
    }


def _neighborhood_text(record: dict) -> str:
    lines = [f"n={record['n']} c_max_dimension={record['c_max_dimension']}"]
    for i, m in enumerate(record["members"], 1):
        lines.append(f"member {i}: type={m['type']} d={m['distance']} representative={m['representative']}")
        lines.append(_spaced(m["rows"]))
    for v in record["verdicts"]:
        status = "pass" if v["passed"] else ("n/a" if v["passed"] is None else "FAIL")
        lines.append(f"verdict {v['check']}: {status}")
    return "\n".join(lines)


def _cmd_neighbors(args):
    (name_a, code_a), (name_b, code_b) = _load_pair(args)
    meet = _meet_dimension(code_a, code_b)
    result = meet == code_a.n // 2 - 1
    yield {
        "command": "neighbors",
        "inputs": [name_a, name_b],
        "n": code_a.n,
        "intersection_dimension": meet,
        "neighbors": result,
        "exit_status": 0 if result else 1,
    }


def _neighbors_text(record: dict) -> str:
    answer = "yes" if record["neighbors"] else "no"
    return f"neighbors={answer} intersection_dimension={record['intersection_dimension']}"


def _cmd_equivalent(args):
    (name_a, code_a), (name_b, code_b) = _load_pair(args)
    witness = are_permutation_equivalent(code_a, code_b)
    yield {
        "command": "equivalent",
        "inputs": [name_a, name_b],
        "equivalent": witness is not None,
        "witness": list(witness.images) if witness else None,
        "exit_status": 0 if witness else 1,
    }


def _equivalent_text(record: dict) -> str:
    if not record["equivalent"]:
        return "equivalent=no"
    return "equivalent=yes\nwitness=" + " ".join(map(str, record["witness"]))


def _cmd_verify_paper(args):
    from .verification import CHECKS, VerificationContext

    ctx = VerificationContext()
    failed = 0
    for criterion, check, fn in CHECKS:
        passed, details = fn(ctx)
        failed += not passed
        yield {"criterion": criterion, "check": check, "passed": passed, "details": dict(details)}
    yield {
        "command": "verify-paper",
        "checks": len(CHECKS),
        "passed": len(CHECKS) - failed,
        "failed": failed,
        "exit_status": 1 if failed else 0,
    }


def _verify_paper_text(record: dict) -> str:
    if "criterion" in record:
        return f"{'ok  ' if record['passed'] else 'FAIL'} {record['criterion']:2d} {record['check']}"
    return f"passed {record['passed']}/{record['checks']} checks"


def _cmd_search(args):
    if args.n % 8 != 0 or args.n <= 0:
        raise MatrixFormatError(f"search requires a length divisible by 8, got {args.n}")
    if args.steps < 0:
        raise MatrixFormatError(f"steps must be nonnegative, got {args.steps}")
    track = not args.no_distance
    if not track and args.min_d is not None:
        raise MatrixFormatError("--min-d requires distance evaluation")
    best: dict[str, dict] = {}
    words: dict[str, int] = {}  # the lightest word of each type's last search
    stopped_early = False
    for step, code in enumerate(islice(walk_self_dual(args.n, args.seed), args.steps + 1)):
        if not track:
            continue
        ctype = str(code.classify())
        entry = best.get(ctype)
        # asked only whether it beats its type's best: d is exact past it, else
        # d <= best < --min-d while the walk runs, so records and stop match exact
        # d; a word of that type that lies in code says so with no search
        if entry is not None and (y := words[ctype]).bit_count() <= entry["d"] and code._reduce(y) == 0:
            d = y.bit_count()
        else:
            d, words[ctype] = _distance_query(code, 0 if entry is None else entry["d"])
        if entry is None or d > entry["d"]:
            best[ctype] = {"d": d, "step": step}
            if args.report_best:
                best[ctype]["rows"] = _matrix_rows(code)
            yield {"command": "search", "event": "improvement", "step": step, "type": ctype, "d": d}
        if args.min_d is not None and d >= args.min_d:
            stopped_early = True
            break
    record = {
        "command": "search",
        "event": "result",
        "n": args.n,
        "seed": args.seed,
        "steps": args.steps,
        "steps_completed": step,
        "stopped_early": stopped_early,
        "best": {t: dict(e) for t, e in sorted(best.items())},
        "exit_status": 0,
    }
    if not track:
        record["final_type"] = str(code.classify())
        if args.report_best:
            record["final_rows"] = _matrix_rows(code)
    yield record


def _search_text(record: dict) -> str:
    if record["event"] == "improvement":
        return f"step {record['step']}: new best {record['type']} d={record['d']}"
    early = " [stopped early]" if record["stopped_early"] else ""
    lines = ["completed {steps_completed} of {steps} steps (n={n} seed={seed})".format_map(record) + early]
    for ctype, entry in record["best"].items():
        lines.append(f"best {ctype}: d={entry['d']} at step {entry['step']}")
        if "rows" in entry:
            lines.append(_spaced(entry["rows"]))
    if "final_type" in record:
        # a walk's codes are self-dual, so k is n/2
        lines.append(f"final code: {record['final_type']} (n={record['n']} k={record['n'] // 2})")
        if "final_rows" in record:
            lines.append(_spaced(record["final_rows"]))
    return "\n".join(lines)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sdcodes",
        description="Self-dual binary codes: inspection, neighborhoods, search.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # (name, command, text renderer, help, inputs)
    commands = [
        ("info", _cmd_info, _info_text, "dimensions, distance, type, weight distribution", ["input"]),
        ("dual", _cmd_dual, _dual_text, "generator matrix of the dual code", ["input"]),
        ("neighborhood", _cmd_neighborhood, _neighborhood_text,
         "the three-member neighborhood of a Type I code", ["input"]),
        ("neighbors", _cmd_neighbors, _neighbors_text, "whether two self-dual codes are neighbors", ["a", "b"]),
        ("equivalent", _cmd_equivalent, _equivalent_text, "permutation equivalence with witness", ["a", "b"]),
        ("verify-paper", _cmd_verify_paper, _verify_paper_text, "run all sixteen acceptance checks", []),
        ("search", _cmd_search, _search_text, "seeded neighbor walk tracking best distances", []),
    ]
    for name, command, render, help_text, inputs in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="one JSON record per line")
        for dest in inputs:
            # a lone input may be left out; _load_source then refuses with exit 2
            p.add_argument(dest, nargs="?" if len(inputs) == 1 else None, help=_INPUT_HELP)
        p.set_defaults(func=command, render=render)
    p = sub.choices["search"]
    p.add_argument("--n", type=int, required=True, help="code length (multiple of 8)")
    p.add_argument("--steps", type=int, default=100, help="number of walk steps")
    p.add_argument("--seed", type=int, default=0, help="walk seed")
    p.add_argument("--report-best", action="store_true", help="include best generator matrices")
    p.add_argument("--min-d", type=int, default=None, help="stop once a code with d >= MIN_D is seen")
    p.add_argument(
        "--no-distance",
        action="store_true",
        help="skip distance evaluation (for walks whose searches would reach the enumeration cap)",
    )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        for record in args.func(args):
            print(json.dumps(record, sort_keys=True, separators=(",", ":")) if args.json else args.render(record))
        return record["exit_status"]
    except InternalConsistencyError as e:
        print(f"consistency check failed: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
