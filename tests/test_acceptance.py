"""One test per acceptance criterion, with an explicit PASS/FAIL line each,
a check of the registry that criteria 9 and 10 read, and the records of
criteria 5, 6 and 10 when they fail.

The expensive shared objects (fixture codes, neighborhoods, random walks)
are built once in a module-scoped context and reused across criteria.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from sdcodes.code import CodeType
from sdcodes.verification import (
    CHECKS,
    VerificationContext,
    _check_distance2_coincidence,
    _check_extremal_bounds,
    _check_type1_distance_bound,
)


@pytest.fixture(scope="module")
def ctx():
    return VerificationContext()


@pytest.mark.parametrize(
    "criterion,name,fn",
    CHECKS,
    ids=[f"{num:02d}_{name}" for num, name, _ in CHECKS],
)
def test_acceptance(criterion, name, fn, ctx, capsys):
    passed, details = fn(ctx)
    with capsys.disabled():
        print(f"\nACCEPTANCE {criterion:02d} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"acceptance criterion {criterion} ({name}) failed: {details}"


def test_registry_agrees_with_brouwer_zimmermann(ctx):
    # a neighborhood member's distance comes from its neighborhood's search
    # of the shadow cosets, every other code's from Brouwer-Zimmermann; each
    # entry is checked against the latter, and a fresh context derives the
    # same registry with nothing else read first
    assert len(ctx.registry) == 693
    for c, entry in ctx.registry.items():
        assert entry == (c.classify(), c.minimum_distance())
    assert VerificationContext().registry == ctx.registry


def with_distances(ctx, distances):
    """A context whose one neighborhood, also its first fixture's, is that of
    G3 (Type I member first) with its member distances replaced."""
    nb1, nb2 = ctx.fixture_neighborhoods
    bad = replace(nb1, member_distances=distances)
    return SimpleNamespace(all_neighborhoods=lambda: [bad], fixture_neighborhoods=(bad, nb2))


class TestChecksCanFail:
    """Criteria 5, 6 and 10 report a neighborhood or a registry entry that
    breaks the paper's claims, fed in by hand."""

    def test_type1_above_both_type2(self, ctx):
        assert ctx.fixture_neighborhoods[0].member_types[0] is CodeType.TYPE_I
        assert _check_type1_distance_bound(with_distances(ctx, (10, 8, 8))) == (False, {
            "neighborhoods_checked": 1,
            "first_fixture": {"type1": 10, "type2": [8, 8]},
            "second_fixture": {"type1": 6, "type2": [4, 8]},
            "failures": [{"type1_distance": 10, "type2_distances": [8, 8]}],
        })

    def test_distance2_with_unequal_type2(self, ctx):
        assert _check_distance2_coincidence(with_distances(ctx, (2, 4, 8))) == (False, {
            "applicable_neighborhoods": 1,
            "first_fixture_distance2": True,
            "failures": [{"type1_distance": 2, "type2_distances": [4, 8]}],
        })

    def test_distance_past_the_extremal_bound(self, fixture_codes):
        g1, g3 = fixture_codes["G1"], fixture_codes["G3"]
        ctx = SimpleNamespace(
            registry={g1: (CodeType.TYPE_II, 8), g3: (CodeType.TYPE_I, 10)},
            fixture_codes=fixture_codes,
        )
        assert _check_extremal_bounds(ctx) == (False, {
            "codes_checked": 2,
            "violations": 1,
            "length24_bounds_met_with_equality": True,
        })
