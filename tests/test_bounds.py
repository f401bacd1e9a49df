"""Geometric bounds, witness classes, and basis obstructions."""

import pytest

from patlab import (
    BadParameter,
    ResourceLimit,
    all_perms,
    alt_sawtooth,
    basis_length_check,
    basis_obstruction,
    contains,
    exact_forbidden,
    in_witness_class,
    sawtooth,
    shortest_bound,
    tent,
    witness,
)


def perm_set(strings):
    return {tuple(int(c) for c in s) for s in strings}


class TestShortestBound:
    def test_sawtooth2_simple(self):
        rep = shortest_bound(sawtooth(2), "simple", "below")
        assert (rep.component_count, rep.bound) == (1, 4)

    def test_alt_sawtooth9_simple(self):
        rep = shortest_bound(alt_sawtooth(9), "simple", "below")
        assert (rep.component_count, rep.bound) == (4, 10)

    def test_tent_refined(self):
        rep = shortest_bound(tent(), "refined", "below")
        assert (rep.component_count, rep.bound) == (1, 5)

    def test_bound_formula(self):
        for m in (tent(), sawtooth(3), alt_sawtooth(5)):
            for method, offset in (("simple", 2), ("refined", 3)):
                for orientation in ("below", "above"):
                    rep = shortest_bound(m, method, orientation)
                    assert rep.bound == 2 * rep.component_count + offset
                    assert rep.method == method and rep.orientation == orientation

    def test_bad_arguments(self):
        with pytest.raises(BadParameter):
            shortest_bound(tent(), "fancy")
        with pytest.raises(BadParameter):
            shortest_bound(tent(), "simple", "sideways")


class TestWitness:
    def test_explicit_members(self):
        assert witness(1, "simple") == (3, 4, 2, 1)
        assert witness(2, "simple") == (3, 5, 6, 4, 2, 1)
        assert witness(1, "refined") == (4, 2, 1, 3, 5)

    def test_lengths(self):
        for k in range(1, 8):
            assert len(witness(k, "simple")) == 2 * k + 2
            assert len(witness(k, "refined")) == 2 * k + 3

    @pytest.mark.parametrize("variant", ["simple", "refined"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_membership(self, k, variant):
        assert in_witness_class(witness(k, variant), k, variant)

    def test_bad_order(self):
        with pytest.raises(BadParameter):
            witness(0, "simple")
        with pytest.raises(BadParameter):
            witness(1, "other")


class TestWitnessClass:
    def test_no_descent_means_no_membership(self):
        assert not in_witness_class((1, 2, 3, 4, 5), 1, "refined")

    def test_simple_order_one_census(self):
        # at length 4 the class is just the explicit witness
        members = {p for p in all_perms(4) if in_witness_class(p, 1, "simple")}
        assert members == {(3, 4, 2, 1)}

    def test_refined_order_one_census(self):
        members = {p for p in all_perms(5) if in_witness_class(p, 1, "refined")}
        assert members == perm_set(
            ["34215", "35214", "42135", "45213", "45312", "52134"]
        )

    def test_refined_requires_recovery_entry(self):
        # 34215 minus its recovering tail entry drops out of the refined class
        assert in_witness_class((3, 4, 2, 1, 5), 1, "refined")
        assert not in_witness_class((3, 4, 2, 1), 1, "refined")
        assert in_witness_class((3, 4, 2, 1), 1, "simple")

    def test_forbidden_for_matching_maps(self):
        """Class members of the right order are unrealizable: order 2 simple
        members of length 6 against the 3-ramp sawtooth."""
        forb = exact_forbidden(sawtooth(3), 6)
        members = [p for p in all_perms(6) if in_witness_class(p, 2, "simple")]
        assert members
        for p in members:
            assert p in forb, p


class TestLengthBudget:
    def test_pair_satisfied(self):
        chk = basis_length_check([3, 3])
        assert chk.satisfied and (chk.total, chk.required) == (6, 1)

    @pytest.mark.parametrize("k", range(6, 13))
    def test_single_lengths_violate(self, k):
        assert not basis_length_check([k]).satisfied

    def test_sorting_applied(self):
        chk = basis_length_check([5, 3])
        assert chk.lengths == (3, 5)
        assert chk.half_min == 1

    def test_validation(self):
        with pytest.raises(BadParameter):
            basis_length_check([])
        with pytest.raises(BadParameter):
            basis_length_check([1, 4])

    def test_shortest_length_limit(self, monkeypatch):
        # refused before h! is computed: 1,000,000! would take seconds
        with pytest.raises(ResourceLimit, match="shortest length 2000000 exceeds the limit of 2000"):
            basis_length_check([2_000_000])
        assert basis_length_check([2000]).half_min == 1000
        monkeypatch.setattr("patlab.bounds.MAX_SHORTEST_LENGTH", 10)
        assert basis_length_check([40, 10]).half_min == 5
        with pytest.raises(ResourceLimit, match="shortest length 11 exceeds the limit of 10"):
            basis_length_check([40, 11])


    def test_total_too_long_to_print(self):
        # refused before the report is built: its total could not be printed
        with pytest.raises(BadParameter, match="more than 4,300 digits"):
            basis_length_check([2, 10**4300 - 1])
        assert len(str(basis_length_check([2, 10**4299 - 1]).total)) == 4300


class TestBasisObstruction:
    def test_peakless_pair(self):
        assert basis_obstruction([(1, 3, 2), (2, 3, 1)], 3) == [1, 2, 3]

    def test_witnesses_containing_the_pattern(self):
        assert basis_obstruction([(2, 1)], 3) == []
        assert basis_obstruction([(3, 2, 1)], 3) == []

    def test_agrees_with_direct_containment(self):
        pats = [(1, 3, 2), (2, 3, 1)]
        for m in range(1, 6):
            w = witness(m, "refined")
            avoided = all(not contains(w, s) for s in pats)
            assert (m in basis_obstruction(pats, 5)) == avoided

    def test_validation(self):
        with pytest.raises(BadParameter):
            basis_obstruction([(1, 3, 2)], 0)
        with pytest.raises(BadParameter):
            basis_obstruction([], 3)

    def test_order_limit(self, monkeypatch):
        assert len(basis_obstruction([(1, 3, 2), (2, 3, 1)], 1000)) == 1000
        with pytest.raises(ResourceLimit, match="m_max 2001 exceeds the limit of 1000"):
            basis_obstruction([(1, 3, 2)], 2001)

        def no_witness(*args, **kwargs):
            raise AssertionError("built a witness although m_max is over the limit")

        monkeypatch.setattr("patlab.bounds.MAX_OBSTRUCTION_ORDER", 3)
        monkeypatch.setattr("patlab.bounds.witness", no_witness)
        with pytest.raises(ResourceLimit, match="m_max 4 exceeds the limit of 3"):
            basis_obstruction([(1, 3, 2)], 4)
