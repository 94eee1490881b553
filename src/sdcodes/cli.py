"""Command-line interface: inspect codes, build neighborhoods, verify, search.

Exit status contract: 0 success, 1 check-failed (a structural or requested
check did not hold), 2 usage or input error.  With --json every record is a
single line with sorted keys, so identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import islice

from .code import (
    InternalConsistencyError,
    LinearCode,
    _distance_query,
    from_generator,
)
from .equivalence import are_permutation_equivalent
from .fixtures_io import FIXTURE_NAMES, MatrixFormatError, fixture, parse_matrix, serialize_matrix
from .gf2 import _to01
from .neighborhood import (
    _meet_dimension,
    neighborhood_of,
    verify_distance2_coincidence,
    verify_no_better_type1,
    walk_self_dual,
)


_INPUT_HELP = f"matrix file, '-' for stdin, or fixture:NAME ({', '.join(FIXTURE_NAMES)})"


def _emit(args, record: dict, human: str):
    if args.json:
        print(json.dumps(record, sort_keys=True, separators=(",", ":")))
    elif human:
        print(human)


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


def _cmd_info(args) -> int:
    name, code = _load_source(args.input)
    we = code.weight_enumerator()
    d = min((w for w in we if w), default=None)
    ctype = code.classify()
    record = {
        "command": "info",
        "input": name,
        "n": code.n,
        "k": code.k,
        "d": d,
        "self_dual": code.is_self_dual(),
        "type": str(ctype),
        "weight_enumerator": [[w, c] for w, c in we.items()],
        "exit_status": 0,
    }
    lines = [
        f"n={code.n} k={code.k} d={d if d is not None else '-'} "
        f"self_dual={'yes' if code.is_self_dual() else 'no'} type={ctype}",
        "weight_enumerator: " + " ".join(f"{w}:{c}" for w, c in we.items()),
    ]
    _emit(args, record, "\n".join(lines))
    return record["exit_status"]


def _cmd_dual(args) -> int:
    name, code = _load_source(args.input)
    dual = code.dual()
    record = {
        "command": "dual",
        "input": name,
        "n": dual.n,
        "k": dual.k,
        "rows": _matrix_rows(dual),
        "exit_status": 0,
    }
    # serialize_matrix holds the text rule for k=0, which the text format
    # cannot always show, so this matrix goes through it, for human output only
    matrix = "" if args.json else serialize_matrix(dual.generator, spaced=True)
    _emit(args, record, f"n={dual.n} k={dual.k}\n{matrix}".rstrip("\n"))
    return record["exit_status"]


def _cmd_neighborhood(args) -> int:
    name, code = _load_source(args.input)
    nb = neighborhood_of(code)
    verdicts = [verify_no_better_type1(nb), verify_distance2_coincidence(nb)]
    members = [
        {"type": str(t), "distance": d, "representative": rep.to01(), "rows": _matrix_rows(m)}
        for m, rep, t, d in zip(nb.members, nb.representatives, nb.member_types, nb.member_distances)
    ]
    record = {
        "command": "neighborhood",
        "input": name,
        "n": nb.c_max.n,
        "c_max_dimension": nb.c_max.k,
        "members": members,
        "verdicts": verdicts,
        "exit_status": 1 if any(v["passed"] is False for v in verdicts) else 0,
    }
    _emit(args, record, "" if args.json else _neighborhood_text(record))
    return record["exit_status"]


def _neighborhood_text(record: dict) -> str:
    """The human output of neighborhood, read from its record."""
    lines = [f"n={record['n']} c_max_dimension={record['c_max_dimension']}"]
    for i, m in enumerate(record["members"], 1):
        lines.append(f"member {i}: type={m['type']} d={m['distance']} representative={m['representative']}")
        lines.append(_spaced(m["rows"]))
    for v in record["verdicts"]:
        status = "pass" if v["passed"] else ("n/a" if v["passed"] is None else "FAIL")
        lines.append(f"verdict {v['check']}: {status}")
    return "\n".join(lines)


def _cmd_neighbors(args) -> int:
    (name_a, code_a), (name_b, code_b) = _load_pair(args)
    meet = _meet_dimension(code_a, code_b)
    result = meet == code_a.n // 2 - 1
    record = {
        "command": "neighbors",
        "inputs": [name_a, name_b],
        "n": code_a.n,
        "intersection_dimension": meet,
        "neighbors": result,
        "exit_status": 0 if result else 1,
    }
    _emit(
        args,
        record,
        f"neighbors={'yes' if result else 'no'} intersection_dimension={meet}",
    )
    return record["exit_status"]


def _cmd_equivalent(args) -> int:
    (name_a, code_a), (name_b, code_b) = _load_pair(args)
    witness = are_permutation_equivalent(code_a, code_b)
    record = {
        "command": "equivalent",
        "inputs": [name_a, name_b],
        "equivalent": witness is not None,
        "witness": list(witness.images) if witness else None,
        "exit_status": 0 if witness else 1,
    }
    if witness:
        human = "equivalent=yes\nwitness=" + " ".join(str(i) for i in witness.images)
    else:
        human = "equivalent=no"
    _emit(args, record, human)
    return record["exit_status"]


def _cmd_verify_paper(args) -> int:
    from .verification import CHECKS, VerificationContext

    ctx = VerificationContext()
    failed = 0
    total = len(CHECKS)
    for criterion, check, fn in CHECKS:
        passed, details = fn(ctx)
        failed += not passed
        _emit(
            args,
            {"criterion": criterion, "check": check, "passed": passed, "details": dict(details)},
            f"{'ok  ' if passed else 'FAIL'} {criterion:2d} {check}",
        )
    record = {
        "command": "verify-paper",
        "checks": total,
        "passed": total - failed,
        "failed": failed,
        "exit_status": 1 if failed else 0,
    }
    _emit(args, record, f"passed {total - failed}/{total} checks")
    return record["exit_status"]


def _cmd_search(args) -> int:
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
            _emit(
                args,
                {
                    "command": "search",
                    "event": "improvement",
                    "step": step,
                    "type": ctype,
                    "d": d,
                },
                f"step {step}: new best {ctype} d={d}",
            )
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
    lines = [
        f"completed {step} of {args.steps} steps (n={args.n} seed={args.seed})"
        + (" [stopped early]" if stopped_early else "")
    ]
    for ctype, entry in sorted(best.items()):
        lines.append(f"best {ctype}: d={entry['d']} at step {entry['step']}")
        if args.report_best:
            lines.append(_spaced(entry["rows"]))
    if not track:
        record["final_type"] = str(code.classify())
        lines.append(f"final code: {record['final_type']} (n={code.n} k={code.k})")
        if args.report_best:
            record["final_rows"] = _matrix_rows(code)
            lines.append(_spaced(record["final_rows"]))
    _emit(args, record, "\n".join(lines))
    return record["exit_status"]


def _add_io_flags(p, single_input: bool):
    p.add_argument("--json", action="store_true", help="one JSON record per line")
    if single_input:
        p.add_argument("input", nargs="?", help=_INPUT_HELP)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sdcodes",
        description="Self-dual binary codes: inspection, neighborhoods, search.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("info", help="dimensions, distance, type, weight distribution")
    _add_io_flags(p, single_input=True)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("dual", help="generator matrix of the dual code")
    _add_io_flags(p, single_input=True)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser(
        "neighborhood", help="the three-member neighborhood of a Type I code"
    )
    _add_io_flags(p, single_input=True)
    p.set_defaults(func=_cmd_neighborhood)

    p = sub.add_parser("neighbors", help="whether two self-dual codes are neighbors")
    _add_io_flags(p, single_input=False)
    p.add_argument("a", help=_INPUT_HELP)
    p.add_argument("b", help=_INPUT_HELP)
    p.set_defaults(func=_cmd_neighbors)

    p = sub.add_parser("equivalent", help="permutation equivalence with witness")
    _add_io_flags(p, single_input=False)
    p.add_argument("a", help=_INPUT_HELP)
    p.add_argument("b", help=_INPUT_HELP)
    p.set_defaults(func=_cmd_equivalent)

    p = sub.add_parser("verify-paper", help="run all sixteen acceptance checks")
    _add_io_flags(p, single_input=False)
    p.set_defaults(func=_cmd_verify_paper)

    p = sub.add_parser("search", help="seeded neighbor walk tracking best distances")
    _add_io_flags(p, single_input=False)
    p.add_argument("--n", type=int, required=True, help="code length (multiple of 8)")
    p.add_argument("--steps", type=int, default=100, help="number of walk steps")
    p.add_argument("--seed", type=int, default=0, help="walk seed")
    p.add_argument(
        "--report-best", action="store_true", help="include best generator matrices"
    )
    p.add_argument(
        "--min-d", type=int, default=None, help="stop once a code with d >= MIN_D is seen"
    )
    p.add_argument(
        "--no-distance",
        action="store_true",
        help="skip distance evaluation (for walks whose searches would reach the enumeration cap)",
    )
    p.set_defaults(func=_cmd_search)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalConsistencyError as e:
        print(f"consistency check failed: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
