"""The frozen data of oracles.py is what regen_oracles.py computes."""

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
