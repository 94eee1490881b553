"""The sixteen library-level acceptance checks, shared by CLI and tests.

Each check is a named function over a VerificationContext that lazily builds
and caches the expensive shared objects: the six embedded fixture codes,
their two neighborhoods, one hundred random-walk neighborhoods per length in
{8, 16, 24}, and a registry of every self-dual code the suite constructs.
Checks return plain JSON-serializable detail dicts so the CLI can stream one
record per check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Mapping

from .code import CodeType, LinearCode, extremal_bound, from_generator
from .equivalence import apply_permutation, are_permutation_equivalent
from .fixtures_io import FIXTURE_NAMES, fixture, parse_matrix, serialize_matrix
from .gf2 import BitMatrix, BitVector
from .neighborhood import (
    Neighborhood,
    max_doubly_even_subcode,
    neighborhood_of,
    verify_distance2_coincidence,
    verify_no_better_type1,
    walk_self_dual,
)

EXPECTED_DISTANCES = {"G1": 8, "G2": 8, "G3": 2, "G4": 6, "G5": 4, "G6": 8}
GOLAY_WEIGHT_DISTRIBUTION = {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
RANDOM_WALK_LENGTHS = (8, 16, 24)
RANDOM_NEIGHBORHOODS_PER_LENGTH = 100


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    check: str
    passed: bool
    details: Mapping[str, object]


class VerificationContext:
    """Lazily built shared state; construct once, run any subset of checks."""

    def __init__(self):
        # every self-dual code the suite constructs, with its type and distance
        self.registry: dict[LinearCode, tuple[CodeType, int]] = {}

    def _register(self, code: LinearCode, ctype: CodeType, d: int | None = None):
        if code not in self.registry:
            if d is None:
                d = code.minimum_distance()
            self.registry[code] = (ctype, d)

    def _register_neighborhood(self, nb: Neighborhood):
        for member, ctype, d in zip(nb.members, nb.member_types, nb.member_distances):
            self._register(member, ctype, d)

    @cached_property
    def fixture_codes(self) -> dict[str, LinearCode]:
        codes = {name: from_generator(fixture(name)) for name in FIXTURE_NAMES}
        for c in codes.values():
            if c.is_self_dual():
                self._register(c, c.classify())
        return codes

    @cached_property
    def fixture_neighborhoods(self) -> tuple[Neighborhood, Neighborhood]:
        nb1 = neighborhood_of(self.fixture_codes["G3"])
        nb2 = neighborhood_of(self.fixture_codes["G4"])
        self._register_neighborhood(nb1)
        self._register_neighborhood(nb2)
        return nb1, nb2

    @cached_property
    def random_neighborhoods(self) -> dict[int, list[Neighborhood]]:
        """Per length: neighborhoods of the first 100 Type I codes on a seeded walk."""
        out: dict[int, list[Neighborhood]] = {}
        for n in RANDOM_WALK_LENGTHS:
            found: list[Neighborhood] = []
            walk = walk_self_dual(n, seed=n)
            for _ in range(50 * RANDOM_NEIGHBORHOODS_PER_LENGTH):
                c = next(walk)
                ctype = c.classify()
                self._register(c, ctype)
                if ctype is CodeType.TYPE_I:
                    nb = neighborhood_of(c)
                    self._register_neighborhood(nb)
                    found.append(nb)
                    if len(found) == RANDOM_NEIGHBORHOODS_PER_LENGTH:
                        break
            else:
                raise RuntimeError(f"walk at n={n} yielded too few Type I codes")
            out[n] = found
        return out

    def all_neighborhoods(self) -> list[Neighborhood]:
        nb1, nb2 = self.fixture_neighborhoods
        return [nb1, nb2] + [
            nb for nbs in self.random_neighborhoods.values() for nb in nbs
        ]


def _check_fixture_self_duality(ctx: VerificationContext):
    details = {}
    for name, c in ctx.fixture_codes.items():
        details[name] = {"n": c.n, "k": c.k, "self_dual": c.is_self_dual()}
    passed = all(
        v["n"] == 24 and v["k"] == 12 and v["self_dual"] for v in details.values()
    )
    return passed, {"codes": details}


def _check_fixture_distances(ctx: VerificationContext):
    got = {name: c.minimum_distance() for name, c in ctx.fixture_codes.items()}
    return got == EXPECTED_DISTANCES, {"expected": EXPECTED_DISTANCES, "got": got}


def _check_neighborhood_reconstruction(ctx: VerificationContext):
    codes = ctx.fixture_codes
    nb1, nb2 = ctx.fixture_neighborhoods
    first = set(nb1.members) == {codes["G1"], codes["G2"], codes["G3"]}
    second = set(nb2.members) == {codes["G4"], codes["G5"], codes["G6"]}
    return first and second, {
        "anchor_G3_recovers_G1_G2_G3": first,
        "anchor_G4_recovers_G4_G5_G6": second,
    }


def _check_neighborhood_composition(ctx: VerificationContext):
    def composed(nb: Neighborhood) -> bool:
        counts = [t.value for t in nb.member_types]
        return sorted(counts) == ["TypeI", "TypeII", "TypeII"]

    nb1, nb2 = ctx.fixture_neighborhoods
    random_counts = {
        str(n): len(nbs) for n, nbs in ctx.random_neighborhoods.items()
    }
    all_ok = composed(nb1) and composed(nb2) and all(
        composed(nb) for nbs in ctx.random_neighborhoods.values() for nb in nbs
    )
    return all_ok, {
        "fixture_neighborhoods_composed": composed(nb1) and composed(nb2),
        "random_neighborhoods": random_counts,
    }


def _check_type1_distance_bound(ctx: VerificationContext):
    checked = 0
    failures = []
    for nb in ctx.all_neighborhoods():
        v = verify_no_better_type1(nb)
        checked += 1
        if not v.passed:
            failures.append(dict(v.details))
    nb1, nb2 = ctx.fixture_neighborhoods
    return not failures, {
        "neighborhoods_checked": checked,
        "first_fixture": {"type1": nb1.type1_distance(), "type2": sorted(nb1.type2_distances())},
        "second_fixture": {"type1": nb2.type1_distance(), "type2": sorted(nb2.type2_distances())},
        "failures": failures[:5],
    }


def _check_distance2_coincidence(ctx: VerificationContext):
    applicable = 0
    failures = []
    for nb in ctx.all_neighborhoods():
        v = verify_distance2_coincidence(nb)
        if v.passed is None:
            continue
        applicable += 1
        if not v.passed:
            failures.append(dict(v.details))
    nb1, _ = ctx.fixture_neighborhoods
    first_applies = nb1.type1_distance() == 2
    return first_applies and not failures, {
        "applicable_neighborhoods": applicable,
        "first_fixture_distance2": first_applies,
        "failures": failures[:5],
    }


def _mu(a: int, b: int) -> int:
    return (a & b).bit_count()


def _random_triples(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        length = rng.randrange(8, 129)
        yield (
            rng.getrandbits(length),
            rng.getrandbits(length),
            rng.getrandbits(length),
        )


def _triple_regime():
    for length in range(1, 7):
        space = 1 << length
        for a in range(space):
            for b in range(space):
                for c in range(space):
                    yield a, b, c
    yield from _random_triples(10_000, seed=0xC0DE)


def _check_overlap_addition_identity(ctx: VerificationContext):
    checked = 0
    for a, b, c in _triple_regime():
        if _mu(a ^ b, c) != _mu(b, c) + _mu(a, b ^ c) - _mu(a, b):
            return False, {"counterexample": [a, b, c], "checked": checked}
        checked += 1
    return True, {"triples_checked": checked}


def _check_weight_sum_formula(ctx: VerificationContext):
    checked = 0
    for a, b, _ in _triple_regime():
        if (a ^ b).bit_count() != a.bit_count() + b.bit_count() - 2 * _mu(a, b):
            return False, {"counterexample": [a, b], "checked": checked}
        checked += 1
    return True, {"pairs_checked": checked}


def _populated_registry(ctx: VerificationContext):
    ctx.fixture_codes
    ctx.fixture_neighborhoods
    ctx.random_neighborhoods
    return ctx.registry


def _check_all_ones_membership(ctx: VerificationContext):
    registry = _populated_registry(ctx)
    missing = sum(
        1 for code in registry if not code.contains(BitVector.ones(code.n))
    )
    return missing == 0, {
        "codes_checked": len(registry),
        "codes_missing_all_ones": missing,
    }


def _check_extremal_bounds(ctx: VerificationContext):
    registry = _populated_registry(ctx)
    violations = 0
    for code, (ctype, d) in registry.items():
        if d > extremal_bound(code.n, ctype):
            violations += 1
    golay = ctx.fixture_codes["G1"]
    entry = registry.get(golay)
    d1 = entry[1] if entry else golay.minimum_distance()
    meets = (
        d1 == extremal_bound(24, CodeType.TYPE_II) == extremal_bound(24, CodeType.TYPE_I) == 8
    )
    return violations == 0 and meets, {
        "codes_checked": len(registry),
        "violations": violations,
        "length24_bounds_met_with_equality": meets,
    }


def _check_common_subcode_uniqueness(ctx: VerificationContext):
    codes = ctx.fixture_codes
    sub = max_doubly_even_subcode(codes["G3"])
    shared_rows = LinearCode(24, fixture("G3").row_ints()[:11])
    triple_meet = codes["G1"].intersection(codes["G2"].intersection(codes["G3"]))
    stable = (
        set(neighborhood_of(codes["G3"]).members)
        == set(neighborhood_of(codes["G3"]).members)
    ) and (
        set(neighborhood_of(codes["G4"]).members)
        == set(neighborhood_of(codes["G4"]).members)
    )
    return (sub == shared_rows and sub == triple_meet and stable), {
        "equals_shared_row_span": sub == shared_rows,
        "equals_triple_intersection": sub == triple_meet,
        "reconstruction_stable": stable,
        "dimension": sub.k,
    }


def _check_fixture_equivalence(ctx: VerificationContext):
    codes = ctx.fixture_codes
    witness = are_permutation_equivalent(codes["G1"], codes["G2"])
    witness_ok = (
        witness is not None
        and apply_permutation(codes["G1"], witness) == codes["G2"]
    )
    we_differs = (
        codes["G1"].weight_enumerator() != codes["G3"].weight_enumerator()
    )
    rejected = are_permutation_equivalent(codes["G1"], codes["G3"]) is None
    return witness_ok and we_differs and rejected, {
        "witness_found_and_verified": witness_ok,
        "witness": list(witness.images) if witness else None,
        "distance2_member_rejected": rejected,
        "rejection_via_weight_distribution": we_differs,
    }


def _check_golay_weight_distribution(ctx: VerificationContext):
    got = ctx.fixture_codes["G1"].weight_enumerator().as_dict()
    expected = GOLAY_WEIGHT_DISTRIBUTION
    return got == expected, {
        "expected": {str(k): v for k, v in expected.items()},
        "got": {str(k): v for k, v in got.items()},
    }


def _naive_min_distance(rows: list[int], k: int) -> int:
    # binary-counter oracle: re-encode every message from scratch
    best = None
    for i in range(1, 1 << k):
        w = 0
        for j in range(k):
            if (i >> j) & 1:
                w ^= rows[j]
        c = w.bit_count()
        if best is None or c < best:
            best = c
    return best


def _check_distance_oracle_agreement(ctx: VerificationContext):
    rng = random.Random(0xD157)
    agreed = 0
    for _ in range(50):
        while True:
            n = rng.randrange(4, 21)
            nrows = rng.randrange(1, min(n, 12) + 1)
            code = LinearCode(n, [rng.getrandbits(n) for _ in range(nrows)])
            if code.k > 0:
                break
        fast = code.minimum_distance()
        slow = _naive_min_distance(code.rows, code.k)
        if fast != slow:
            return False, {"n": code.n, "k": code.k, "fast": fast, "slow": slow}
        agreed += 1
    return True, {"codes_checked": agreed}


def _check_matrix_roundtrip(ctx: VerificationContext):
    checked = 0
    for name in FIXTURE_NAMES:
        m = fixture(name)
        for spaced in (False, True):
            text = serialize_matrix(m, spaced=spaced)
            if parse_matrix(text) != m or serialize_matrix(parse_matrix(text), spaced=spaced) != text:
                return False, {"failed_on": name, "spaced": spaced}
            checked += 1
    rng = random.Random(0x10)
    for _ in range(100):
        ncols = rng.randrange(1, 41)
        nrows = rng.randrange(1, 9)
        m = BitMatrix(
            [BitVector(ncols, rng.getrandbits(ncols)) for _ in range(nrows)],
            ncols=ncols,
        )
        spaced = rng.random() < 0.5
        text = serialize_matrix(m, spaced=spaced)
        if parse_matrix(text) != m or serialize_matrix(parse_matrix(text), spaced=spaced) != text:
            return False, {"failed_on": "random", "ncols": ncols, "nrows": nrows}
        checked += 1
    return True, {"matrices_checked": checked}


def _check_search_determinism(ctx: VerificationContext):
    import contextlib
    import io

    from . import cli

    argv = ["search", "--n", "16", "--steps", "200", "--seed", "7", "--json"]
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(list(argv))
        if status != 0:
            return False, {"exit_status": status}
        outputs.append(buf.getvalue())
    identical = outputs[0] == outputs[1]
    return identical, {
        "identical": identical,
        "output_bytes": len(outputs[0].encode()),
    }


CHECKS: list[tuple[int, str, Callable]] = [
    (1, "fixture_self_duality", _check_fixture_self_duality),
    (2, "fixture_distances", _check_fixture_distances),
    (3, "neighborhood_reconstruction", _check_neighborhood_reconstruction),
    (4, "neighborhood_composition", _check_neighborhood_composition),
    (5, "type1_distance_bound", _check_type1_distance_bound),
    (6, "distance2_coincidence", _check_distance2_coincidence),
    (7, "overlap_addition_identity", _check_overlap_addition_identity),
    (8, "weight_sum_formula", _check_weight_sum_formula),
    (9, "all_ones_membership", _check_all_ones_membership),
    (10, "extremal_bounds", _check_extremal_bounds),
    (11, "common_subcode_uniqueness", _check_common_subcode_uniqueness),
    (12, "fixture_equivalence", _check_fixture_equivalence),
    (13, "golay_weight_distribution", _check_golay_weight_distribution),
    (14, "distance_oracle_agreement", _check_distance_oracle_agreement),
    (15, "matrix_roundtrip", _check_matrix_roundtrip),
    (16, "search_determinism", _check_search_determinism),
]


def run_check(criterion: int, ctx: VerificationContext | None = None) -> CheckResult:
    ctx = ctx or VerificationContext()
    for num, name, fn in CHECKS:
        if num == criterion:
            passed, details = fn(ctx)
            return CheckResult(num, name, passed, details)
    raise ValueError(f"no acceptance check numbered {criterion}")


def iter_checks(ctx: VerificationContext | None = None) -> Iterator[CheckResult]:
    ctx = ctx or VerificationContext()
    for num, name, fn in CHECKS:
        passed, details = fn(ctx)
        yield CheckResult(num, name, passed, details)


def run_all() -> list[CheckResult]:
    return list(iter_checks(VerificationContext()))
