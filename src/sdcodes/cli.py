"""Command-line interface: inspect codes, build neighborhoods, verify, search.

Exit status contract: 0 success, 1 check-failed (a structural or requested
check did not hold), 2 usage or input error.  With --json every record is a
single line with sorted keys, so identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .code import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    InternalConsistencyError,
    LinearCode,
    from_generator,
)
from .equivalence import are_permutation_equivalent
from .fixtures_io import (
    FIXTURE_NAMES,
    MatrixFormatError,
    fixture,
    parse_matrix,
    serialize_matrix,
)
from .gf2 import BitMatrix
from .neighborhood import (
    neighborhood_of,
    verify_distance2_coincidence,
    verify_no_better_type1,
    verify_singly_even_range,
    walk_self_dual,
)


def _emit(args, record: dict, human: str):
    if args.json:
        print(json.dumps(record, sort_keys=True, separators=(",", ":")))
    elif human:
        print(human)


def _matrix_rows(code: LinearCode) -> list[str]:
    return [row.to01() for row in code.generator]


def _load_source(token: str) -> tuple[str, LinearCode]:
    """Resolve one input token: existing path first, then '-', then fixture:NAME."""
    if token == "-":
        return "<stdin>", from_generator(parse_matrix(sys.stdin.read()))
    if os.path.exists(token):
        with open(token, "rb") as fh:
            return token, from_generator(parse_matrix(fh.read()))
    if token.startswith("fixture:"):
        return token[8:], from_generator(fixture(token[8:]))
    raise MatrixFormatError(f"no such file: {token}")


def _load_single(args) -> tuple[str, LinearCode]:
    if args.fixture is not None and args.input is not None:
        raise MatrixFormatError("give either an input path or --fixture, not both")
    if args.fixture is not None:
        return args.fixture, from_generator(fixture(args.fixture))
    if args.input is not None:
        return _load_source(args.input)
    raise MatrixFormatError("an input path, '-', or --fixture is required")


def _cmd_info(args) -> int:
    name, code = _load_single(args)
    d = code.minimum_distance() if code.k > 0 else None
    we = code.weight_enumerator()
    ctype = code.classify()
    record = {
        "command": "info",
        "input": name,
        "n": code.n,
        "k": code.k,
        "d": d,
        "self_dual": code.is_self_dual(),
        "type": str(ctype),
        "weight_enumerator": {str(w): c for w, c in we.items()},
        "exit_status": 0,
    }
    lines = [
        f"n={code.n} k={code.k} d={d if d is not None else '-'} "
        f"self_dual={'yes' if code.is_self_dual() else 'no'} type={ctype}",
        "weight_enumerator: " + " ".join(f"{w}:{c}" for w, c in we.items()),
    ]
    _emit(args, record, "\n".join(lines))
    return 0


def _cmd_dual(args) -> int:
    name, code = _load_single(args)
    dual = code.dual()
    record = {
        "command": "dual",
        "input": name,
        "n": dual.n,
        "k": dual.k,
        "rows": _matrix_rows(dual),
        "exit_status": 0,
    }
    human = f"n={dual.n} k={dual.k}\n" + serialize_matrix(dual.generator, spaced=True)
    _emit(args, record, human.rstrip("\n"))
    return 0


def _cmd_neighborhood(args) -> int:
    name, code = _load_single(args)
    nb = neighborhood_of(code)
    verdicts = [
        verify_no_better_type1(nb),
        verify_distance2_coincidence(nb),
        verify_singly_even_range(nb),
    ]
    failed = any(v.passed is False for v in verdicts)
    record = {
        "command": "neighborhood",
        "input": name,
        "n": nb.c_max.n,
        "c_max_dimension": nb.c_max.k,
        "members": [
            {
                "type": str(t),
                "distance": d,
                "representative": rep.to01(),
                "rows": _matrix_rows(m),
            }
            for m, rep, t, d in zip(
                nb.members, nb.representatives, nb.member_types, nb.member_distances
            )
        ],
        "verdicts": [
            {"check": v.check, "passed": v.passed, "details": dict(v.details)}
            for v in verdicts
        ],
        "exit_status": 1 if failed else 0,
    }
    lines = [f"n={nb.c_max.n} c_max_dimension={nb.c_max.k}"]
    for i, (m, rep, t, d) in enumerate(
        zip(nb.members, nb.representatives, nb.member_types, nb.member_distances), 1
    ):
        lines.append(f"member {i}: type={t} d={d} representative={rep.to01()}")
        lines.append(serialize_matrix(m.generator, spaced=True).rstrip("\n"))
    for v in verdicts:
        status = "pass" if v.passed else ("n/a" if v.passed is None else "FAIL")
        lines.append(f"verdict {v.check}: {status}")
    _emit(args, record, "\n".join(lines))
    return 1 if failed else 0


def _cmd_neighbors(args) -> int:
    name_a, code_a = _load_source(args.a)
    name_b, code_b = _load_source(args.b)
    from .neighborhood import are_neighbors

    result = are_neighbors(code_a, code_b)
    meet = code_a.intersection(code_b).k
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
    return 0 if result else 1


def _cmd_equivalent(args) -> int:
    name_a, code_a = _load_source(args.a)
    name_b, code_b = _load_source(args.b)
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
    return 0 if witness else 1


def _cmd_verify_paper(args) -> int:
    from .verification import VerificationContext, iter_checks

    ctx = VerificationContext()
    failed = 0
    total = 0
    for result in iter_checks(ctx):
        total += 1
        if not result.passed:
            failed += 1
        _emit(
            args,
            {
                "criterion": result.criterion,
                "check": result.check,
                "passed": result.passed,
                "details": dict(result.details),
            },
            f"{'ok  ' if result.passed else 'FAIL'} {result.criterion:2d} {result.check}",
        )
    record = {
        "command": "verify-paper",
        "checks": total,
        "passed": total - failed,
        "failed": failed,
        "exit_status": 1 if failed else 0,
    }
    _emit(args, record, f"passed {total - failed}/{total} checks")
    return 1 if failed else 0


def _cmd_search(args) -> int:
    if args.n % 8 != 0 or args.n <= 0:
        raise MatrixFormatError(f"search requires a length divisible by 8, got {args.n}")
    if args.steps < 0:
        raise MatrixFormatError(f"steps must be nonnegative, got {args.steps}")
    track = not args.no_distance
    if not track and args.min_d is not None:
        raise MatrixFormatError("--min-d requires distance evaluation")
    if track and args.n // 2 > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"distance evaluation supports length <= {2 * DEFAULT_ENUMERATION_CAP}; "
            "pass --no-distance to walk without it"
        )
    walk = walk_self_dual(args.n, args.seed)
    best: dict[str, dict] = {}
    stopped_early = False
    steps_completed = 0
    code = next(walk)
    for step in range(args.steps + 1):
        if step > 0:
            code = next(walk)
            steps_completed = step
        ctype = str(code.classify())
        if not track:
            continue
        d = code.minimum_distance()
        entry = best.get(ctype)
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
        "steps_completed": steps_completed,
        "stopped_early": stopped_early,
        "best": {t: dict(e) for t, e in sorted(best.items())},
        "exit_status": 0,
    }
    lines = [
        f"completed {steps_completed} of {args.steps} steps (n={args.n} seed={args.seed})"
        + (" [stopped early]" if stopped_early else "")
    ]
    for ctype, entry in sorted(best.items()):
        lines.append(f"best {ctype}: d={entry['d']} at step {entry['step']}")
        if args.report_best:
            m = BitMatrix.from_strings(entry["rows"])
            lines.append(serialize_matrix(m, spaced=True).rstrip("\n"))
    if not track:
        record["final_type"] = str(code.classify())
        if args.report_best:
            record["final_rows"] = _matrix_rows(code)
        lines.append(f"final code: {code.classify()} (n={code.n} k={code.k})")
        if args.report_best:
            lines.append(serialize_matrix(code.generator, spaced=True).rstrip("\n"))
    _emit(args, record, "\n".join(lines))
    return 0


def _add_io_flags(p, single_input: bool):
    p.add_argument("--json", action="store_true", help="one JSON record per line")
    if single_input:
        p.add_argument(
            "input",
            nargs="?",
            help="matrix file, '-' for stdin, or fixture:NAME",
        )
        p.add_argument(
            "--fixture", choices=FIXTURE_NAMES, help="use an embedded matrix"
        )


def _parser() -> argparse.ArgumentParser:
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
    p.add_argument("a", help="matrix file, '-', or fixture:NAME")
    p.add_argument("b", help="matrix file, '-', or fixture:NAME")
    p.set_defaults(func=_cmd_neighbors)

    p = sub.add_parser("equivalent", help="permutation equivalence with witness")
    _add_io_flags(p, single_input=False)
    p.add_argument("a", help="matrix file, '-', or fixture:NAME")
    p.add_argument("b", help="matrix file, '-', or fixture:NAME")
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
        help="skip distance evaluation (for lengths beyond the enumeration cap)",
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
    except (MatrixFormatError, EnumerationCapError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
