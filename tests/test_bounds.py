import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_simple_maps
from ormaps.bounds import (
    ExcessProfile,
    check_one_cut_guarantee,
    check_two_cut_guarantee,
    excess_profile,
    genus_lower_bound,
    min_genus,
    one_cut_genus_bounds,
    one_cut_size_threshold,
    two_cut_genus_bounds,
    two_cut_size_threshold,
)
from ormaps.connectivity import vertex_connectivity
from ormaps.core import from_rotations, genus
from ormaps.dual import dual
from test_dual import make_dumbbell


def make_wheel6():
    # hub 0 surrounded by the rim cycle 1..6; all faces triangles plus the rim hexagon
    rots = [[1, 2, 3, 4, 5, 6]]
    for i in range(1, 7):
        nxt = 1 + (i % 6)
        prv = 1 + ((i - 2) % 6)
        rots.append([0, prv, nxt])
    return from_rotations(rots)


class TestMinGenus:
    def test_small_values_are_planar(self):
        for c in range(1, 6):
            assert min_genus(c) == 0

    def test_formula_values(self):
        expected = {6: 1, 7: 2, 8: 3, 9: 4, 10: 5, 11: 6, 12: 8, 13: 10}
        for c, g in expected.items():
            assert min_genus(c) == g

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            min_genus(0)


class TestThresholdTables:
    def test_two_cut_branch_points(self):
        values = [two_cut_size_threshold(c) for c in range(1, 9)]
        assert values == [7, 7, 10, 10, 12, 12, 12, 12]
        assert two_cut_size_threshold(100) == 12

    def test_one_cut_branch_points(self):
        values = [one_cut_size_threshold(c) for c in range(1, 9)]
        assert values == [6, 9, 9, 10, 10, 12, 14, 15]
        assert one_cut_size_threshold(100) == 15

    def test_one_cut_never_below_two_cut_half(self):
        for c in range(1, 30):
            assert one_cut_size_threshold(c) >= two_cut_size_threshold(c) // 2


class TestGenusLowerBound:
    def test_known_evaluations(self):
        assert genus_lower_bound(7, 0, 11) == 4
        assert genus_lower_bound(6, 0, 6) == 2
        assert genus_lower_bound(6, 0, 0) == 1
        assert genus_lower_bound(6, 0, 0) == min_genus(6)

    def test_rejects_small_c_and_negative_excess(self):
        with pytest.raises(ValueError, match="c >= 6"):
            genus_lower_bound(5, 0, 0)
        with pytest.raises(ValueError, match="non-negative"):
            genus_lower_bound(6, -1, 0)

    @pytest.mark.parametrize("c", range(6, 21))
    def test_zero_excess_is_min_genus(self, c):
        assert genus_lower_bound(c, 0, 0) == min_genus(c)

    @given(st.integers(6, 20), st.integers(0, 20), st.integers(0, 20))
    def test_monotone_in_both_excesses(self, c, v_x, f_x):
        assert genus_lower_bound(c, v_x + 1, f_x) >= genus_lower_bound(c, v_x, f_x)
        assert genus_lower_bound(c, v_x, f_x + 1) >= genus_lower_bound(c, v_x, f_x)


class TestExcessProfile:
    def test_tetrahedron(self, tetrahedron):
        profile = excess_profile(tetrahedron, 3)
        assert profile == ExcessProfile(3, 0, 0)

    def test_degree_gate(self, tetrahedron):
        with pytest.raises(ValueError, match="below c"):
            excess_profile(tetrahedron, 4)

    def test_wheel_hexagon_contributes_three(self):
        profile = excess_profile(make_wheel6(), 3)
        assert profile.f_plus == 3
        assert profile.v_plus == 7 - 4

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_complete_graph_rotations_meet_the_bound_exactly(self, rng):
        # any rotation system of K7: the excess bound collapses to Euler's formula
        rots = []
        for v in range(7):
            others = [w for w in range(7) if w != v]
            rng.shuffle(others)
            rots.append(others)
        m = from_rotations(rots)
        profile = excess_profile(m, 6)
        assert profile.v_plus == 0
        assert genus(m) == genus_lower_bound(6, profile.v_plus, profile.f_plus)


@given(connected_simple_maps(min_vertices=3))
@settings(max_examples=60, deadline=None)
def test_f_plus_nonnegative_for_min_degree_two(m):
    if min(m.degree(v) for v in range(m.vertex_count)) >= 2:
        assert excess_profile(m, 1).f_plus >= 0


class TestGuaranteeCheckers:
    def test_triangulations_guarantee_both(self, tetrahedron):
        for c in (1, 2, 3):
            assert check_two_cut_guarantee(tetrahedron, c).guaranteed
            assert check_one_cut_guarantee(tetrahedron, c).guaranteed
        assert vertex_connectivity(dual(tetrahedron).dual) >= 3

    def test_cube_quadrangulation_guarantees(self, cube):
        verdict = check_two_cut_guarantee(cube, 3)
        assert verdict.guaranteed
        assert vertex_connectivity(dual(cube).dual) >= 3

    def test_wheel_hexagon_violates_one_cut_at_c1(self):
        wheel = make_wheel6()
        verdict = check_one_cut_guarantee(wheel, 1)
        assert not verdict.guaranteed
        hexagon = next(f.index for f in wheel.faces if f.size == 6)
        assert verdict.violations == (hexagon,)

    def test_wheel_guarantees_one_cut_at_c3(self):
        wheel = make_wheel6()
        verdict = check_one_cut_guarantee(wheel, 3)
        assert verdict.guaranteed
        assert vertex_connectivity(dual(wheel).dual) >= 2

    def test_wheel_two_cut_violations_at_c1(self):
        wheel = make_wheel6()
        verdict = check_two_cut_guarantee(wheel, 1)
        assert not verdict.guaranteed
        hexagon = next(f.index for f in wheel.faces if f.size == 6)
        assert all(hexagon in pair for pair in verdict.violations)

    def test_non_simple_dual_rejected(self):
        with pytest.raises(ValueError, match="not simple"):
            check_two_cut_guarantee(make_dumbbell(), 1)
        with pytest.raises(ValueError, match="not simple"):
            check_one_cut_guarantee(make_dumbbell(), 1)


class TestDeltaTables:
    def test_two_cut_exact_above_two(self):
        for c in range(3, 40):
            entries = two_cut_genus_bounds(c)
            assert len(entries) == 1
            assert entries[0].status == "exact"
            assert entries[0].value == min_genus(c) + 1

    def test_two_cut_unrecorded_small_c(self):
        assert two_cut_genus_bounds(1) == ()
        assert two_cut_genus_bounds(2) == ()

    def test_one_cut_small_values(self):
        assert [e.value for e in one_cut_genus_bounds(1)] == [0]
        assert [e.value for e in one_cut_genus_bounds(2)] == [1]
        assert [e.value for e in one_cut_genus_bounds(3)] == [1]
        for c in range(4, 10):
            (entry,) = one_cut_genus_bounds(c)
            assert entry.status == "exact"
            assert entry.value == min_genus(c) + 2

    def test_one_cut_large_c_bounds_only(self):
        (entry,) = one_cut_genus_bounds(10)
        assert entry.status == "lower"
        assert entry.value == min_genus(10) + 2
        # first member of the special family: c = 12*2+8
        entries = one_cut_genus_bounds(32)
        assert [e.status for e in entries] == ["lower", "upper"]
        assert entries[0].value == min_genus(32) + 2
        assert entries[1].value == min_genus(32) + 3
        # s = 1 is not covered by the construction
        (only,) = one_cut_genus_bounds(20)
        assert only.status == "lower"

    def test_tables_are_mutually_consistent(self):
        for c in range(4, 60):
            one = one_cut_genus_bounds(c)
            two = two_cut_genus_bounds(c)
            assert all(e.value >= min_genus(c) + 2 for e in one)
            # a dual 1-cut needs strictly more genus than a 2-cut
            assert min(e.value for e in one) > two[0].value


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: two_cut_genus_bounds(7.0), "connectivity parameter"),
        (lambda: one_cut_size_threshold(2.5), "connectivity parameter"),
        (lambda: min_genus(True), "connectivity parameter"),
        (lambda: genus_lower_bound(6.5, 0, 0), "connectivity parameter"),
        (lambda: genus_lower_bound(6, 0.0, 0), "v_x"),
        (lambda: genus_lower_bound(6, 0, True), "f_x"),
        (lambda: check_one_cut_guarantee(make_wheel6(), True), "connectivity parameter"),
    ],
)
def test_parameters_must_be_integers(call, name):
    # a bool is not an integer here, though True == 1
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call()
