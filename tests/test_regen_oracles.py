"""The frozen data of oracles.py is what regen_oracles.py computes."""

import math

import pytest

import oracles


@pytest.fixture(scope="module")
def regen():
    pytest.importorskip("mpmath")
    import regen_oracles

    return regen_oracles


@pytest.fixture(scope="module")
def tables(regen):
    return regen.compute()


def test_regeneration_reproduces_the_frozen_oracles(regen, tables):
    assert regen.compare(tables, oracles) == []


def test_identified_edges_agree_at_the_roots_and_not_at_the_printed_rows(regen, tables):
    """The second formulation: the edge lengths identified by the paper's
    edge conditions are equal at every regenerated root, and differ by more
    than 1e-5 at every row of the tabulation as printed."""
    for pair, root in tables["TRUE_ROOTS"].items():
        assert max(regen.edge_length_gaps(*root, *pair)) < 1e-40, pair
        printed = oracles.LEGACY_TABLE_AS_PRINTED[pair]
        assert max(regen.edge_length_gaps(*printed, *pair)) > 1e-5, pair


def test_check_compares_compute_bmax_with_the_50_digit_b_max(regen, tables, monkeypatch):
    assert list(tables["BMAX_50_DIGITS"]) == list(range(2, 61))
    monkeypatch.setattr(regen, "compute_bmax", lambda a: 2 * a)
    assert regen.compare(tables, oracles) == [
        f"compute_bmax({a}) = {2 * a}, 50-digit b_max = {want}"
        for a, want in ((2, 7), (3, 8), (4, 9), (5, 11))
    ]


def test_check_covers_the_improper_roots(regen, tables, monkeypatch):
    """A (2, b) second root two ulps off, and an IMPROPER_ROOT_23 that is not
    the (2, 3) row, are both reported."""
    x, y = oracles.IMPROPER_ROOTS[(2, 5)]
    monkeypatch.setitem(oracles.IMPROPER_ROOTS, (2, 5), (x + 2 * math.ulp(x), y))
    monkeypatch.setattr(oracles, "IMPROPER_ROOT_23", oracles.IMPROPER_ROOTS[(2, 4)])
    problems = regen.compare(tables, oracles)
    assert len(problems) == 3, problems
    assert problems[0].startswith("IMPROPER_ROOTS[(2, 5)]")
    assert problems[1:] == [
        "IMPROPER_ROOT_23 differs by more than one ulp",
        "IMPROPER_ROOT_23 is not the (2, 3) row of IMPROPER_ROOTS",
    ]
