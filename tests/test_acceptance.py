"""One test per acceptance criterion, with an explicit PASS/FAIL line each,
and a check of the registry that criteria 9 and 10 read.

The expensive shared objects (fixture codes, neighborhoods, random walks)
are built once in a module-scoped context and reused across criteria.
"""

import pytest

from sdcodes.verification import CHECKS, VerificationContext


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
