import itertools
import tracemalloc
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from simomac.errors import InvalidParam, RegimeWarning
from simomac.region import (
    _brackets,
    _candidate_brackets,
    _candidates,
    _grid_max,
    _kink_hyperplanes,
    dof_corner_points,
    exponent_objective,
    grid_oracle_sup,
    grid_oracle_tolerance,
    inner_region,
    max_weighted_dof,
    membership,
    outer_region,
    polygon_export,
    regime_objective,
    regions_equal,
    weighted_sum_dof_sup,
)


class TestOuterRegion:
    def test_main_regime_example(self):
        reg = outer_region(5, 3)
        assert set(reg.halfspaces) == {
            (F(1, 3), F(1), F(4, 5)),
            (F(1), F(1, 3), F(4, 5)),
        }
        assert set(reg.vertices) == {
            (F(0), F(0)), (F(4, 5), F(0)), (F(3, 5), F(3, 5)), (F(0), F(4, 5)),
        }

    def test_single_antenna_collapses_to_sum_constraint(self):
        reg = outer_region(4, 1)
        assert reg.halfspaces == ((F(1), F(1), F(3, 4)),)

    def test_unit_coherence_is_degenerate(self):
        reg = outer_region(1, 5)
        assert reg.halfspaces == ((F(1), F(1), F(0)),)
        assert reg.vertices == ((F(0), F(0)),)

    def test_halfspaces_pass_through_corner_points(self):
        for t in range(3, 17):
            for n in range(2, 9):
                reg = outer_region(t, n)
                single = F(t - 1, t)
                both = F(t - 2, t)
                for a1, a2, b in reg.halfspaces:
                    assert a1 * single + a2 * F(0) == b or a2 * single == b
                    assert a1 * both + a2 * both == b

    def test_invalid_params(self):
        with pytest.raises(InvalidParam):
            outer_region(0, 1)

    @pytest.mark.parametrize("build", [outer_region, inner_region, dof_corner_points])
    @pytest.mark.parametrize("t,n", [(2.5, 2), (4, 2.0), ("4", 2)])
    def test_non_integer_dims_rejected(self, build, t, n):
        with pytest.raises(InvalidParam, match="integers"):
            build(t, n)


class TestInnerRegion:
    def test_corner_points(self):
        assert set(dof_corner_points(5, 3)) == {
            (F(4, 5), F(0)), (F(0), F(4, 5)), (F(3, 5), F(3, 5)),
        }

    def test_segment_hull_at_t2(self):
        reg = inner_region(2, 2)
        assert set(reg.vertices) == {(F(0), F(0)), (F(1, 2), F(0)), (F(0), F(1, 2))}

    def test_t3_symmetric_point_lies_on_tdma_line(self):
        reg = inner_region(3, 2)
        # (1/3, 1/3) is on the d1 + d2 = 2/3 edge, so not a hull vertex
        assert set(reg.vertices) == {(F(0), F(0)), (F(2, 3), F(0)), (F(0), F(2, 3))}


class TestRegionPredicates:
    def test_inner_outer_equality_all_pairs(self):
        for t in range(1, 17):
            for n in range(1, 9):
                assert regions_equal(inner_region(t, n), outer_region(t, n))

    def test_scaled_copy_differs(self):
        reg = outer_region(5, 3)
        scaled = type(reg)(
            halfspaces=reg.halfspaces,
            vertices=tuple((d1 / 2, d2 / 2) for d1, d2 in reg.vertices),
        )
        assert not regions_equal(reg, scaled)

    def test_halfspace_order_irrelevant(self):
        reg = outer_region(5, 3)
        permuted = type(reg)(halfspaces=reg.halfspaces[::-1], vertices=reg.vertices)
        assert regions_equal(reg, permuted)

    def test_membership(self):
        reg = outer_region(5, 3)
        assert membership(reg, F(3, 5), F(3, 5))
        assert not membership(reg, 1, 0)
        assert membership(reg, 0, 0)
        assert not membership(reg, F(-1, 10), 0)

    def test_polygon_export_format(self):
        rows = polygon_export(outer_region(5, 3)).strip().split("\n")
        assert rows[0] == "0/1,0/1"
        assert "4/5,0/1" in rows
        assert all(len(r.split(",")) == 2 for r in rows)


class TestWeightedSup:
    def test_tight_example(self):
        sup, profile = weighted_sum_dof_sup(F(1, 3), F(1), 5, 3, "f_exponent")
        assert sup == F(4, 5)

    def test_single_user_weight(self):
        for t, n in [(4, 2), (5, 3), (9, 4)]:
            sup, profile = weighted_sum_dof_sup(F(1), F(0), t, n, "f_exponent")
            assert sup == F(t - 1, t)

    def test_tightness_against_polytope(self):
        for t in range(3, 17):
            for n in range(2, 9):
                objective = regime_objective(t, n)
                outer = outer_region(t, n)
                for lam in [(F(1), F(1, t - 2)), (F(1, t - 2), F(1)),
                            (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", RegimeWarning)
                        sup, _ = weighted_sum_dof_sup(*lam, t, n, objective)
                    assert sup == max_weighted_dof(outer, *lam)

    def test_looseness_instance(self):
        t, n = 3, 4
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            f_sup, _ = weighted_sum_dof_sup(F(1), F(1), t, n, "f_exponent")
        g_sup, _ = weighted_sum_dof_sup(F(1), F(1), t, n, "g_exponent")
        polytope = max_weighted_dof(outer_region(t, n), F(1), F(1))
        assert f_sup > polytope
        assert g_sup == polytope

    def test_non_tight_pairing_warns(self):
        with pytest.warns(RegimeWarning):
            weighted_sum_dof_sup(F(1), F(1), 3, 4, "f_exponent")

    def test_regime_objective(self):
        assert regime_objective(5, 3) == "f_exponent"
        assert regime_objective(3, 4) == "g_exponent"


class TestGridOracle:
    @pytest.mark.parametrize("t,n", [(4, 2), (3, 4)])
    def test_breakpoints_match_grid(self, t, n):
        objective = regime_objective(t, n)
        sup, _ = weighted_sum_dof_sup(F(1), F(1), t, n, objective)
        grid, _ = grid_oracle_sup(F(1), F(1), t, n, objective)
        tol = grid_oracle_tolerance(t, n)
        assert 0.0 <= float(sup) - float(grid) <= tol


class TestGridOracleAgainstPlainEvaluation:
    COARSE, FINE = 4, 16

    @staticmethod
    def _product_max(axes, lam, t, n, objective):
        """First maximum, in itertools.product order, of the float objective."""
        best, best_x = None, None
        for x in itertools.product(*axes):
            val = exponent_objective(x, *lam, t, n, objective)
            if best is None or val > best:
                best, best_x = val, x
        return best, best_x

    def _plain_two_stage(self, lam, t, n, objective):
        axis = np.linspace(0.0, 1.0, self.COARSE + 1)
        best, center = self._product_max([axis] * 4, lam, t, n, objective)
        fine_axes = []
        for c in center:
            lo, hi = max(0.0, c - 1.0 / self.COARSE), min(1.0, c + 1.0 / self.COARSE)
            fine_axes.append(np.linspace(lo, hi, int(round((hi - lo) * self.FINE)) + 1))
        fine_best, _ = self._product_max(fine_axes, lam, t, n, objective)
        return max(best, fine_best)

    @pytest.mark.parametrize("objective", ["f_exponent", "g_exponent"])
    @pytest.mark.parametrize("t,n", [(2, 1), (4, 2), (3, 4), (7, 3)])
    @pytest.mark.parametrize("lam", [(1.0, 1.0), (1.0, 0.25), (0.0, 1.0)])
    def test_matches_product_loop(self, objective, t, n, lam):
        value, argmax = grid_oracle_sup(*lam, t, n, objective,
                                        coarse_step=self.COARSE, fine_step=self.FINE)
        assert value == pytest.approx(self._plain_two_stage(lam, t, n, objective),
                                      rel=0, abs=1e-12)
        assert exponent_objective(argmax, *lam, t, n, objective) == pytest.approx(
            value, rel=0, abs=1e-12)

    @pytest.mark.parametrize("objective", ["f_exponent", "g_exponent"])
    @pytest.mark.parametrize("t,n", [(4, 2), (3, 4)])
    def test_every_point_matches_scalar_brackets(self, objective, t, n):
        # a one-point grid evaluates the numpy brackets at exactly that point
        for x in itertools.product(np.linspace(0.0, 1.0, self.COARSE + 1), repeat=4):
            value, _ = _grid_max([np.array([v]) for v in x], 1.0, 0.5, t, n, objective)
            assert value == pytest.approx(exponent_objective(x, 1.0, 0.5, t, n, objective),
                                          rel=0, abs=1e-12)

    def test_unknown_objective(self):
        with pytest.raises(InvalidParam):
            grid_oracle_sup(1, 1, 4, 2, "h_exponent", coarse_step=4, fine_step=16)

    def test_peak_memory(self):
        tracemalloc.start()
        try:
            grid_oracle_sup(1, 1, 4, 2, "f_exponent")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestGridMaxAgainstDense:
    """_grid_max against the production brackets broadcast over the whole
    4-D product: the same float expression at every point, so the value
    and the first C-order argmax must match exactly."""

    AXES = [
        [np.array([0.0, 0.13, 0.5, 0.77, 1.0]), np.array([-0.2, 0.4, 0.9]),
         np.array([0.0, 0.25, 0.5, 1.0]), np.array([0.1, 0.6])],
        [np.array([0.3]), np.array([0.0, 1.0]), np.array([0.7]),
         np.array([-0.5, 0.2, 0.45, 1.1])],
        [np.array([0.5])] * 4,
        [np.linspace(0.0, 1.0, 5)] * 4,
        [np.array([-0.3, 0.0, 0.35]), np.array([0.35, 0.8]),
         np.array([-1.0, 0.35, 0.8]), np.array([0.0, 0.35, 0.6])],
    ]

    @pytest.mark.parametrize("objective", ["f_exponent", "g_exponent"])
    @pytest.mark.parametrize("t,n", [(2, 1), (4, 2), (3, 4), (7, 3)])
    def test_equals_dense_evaluation(self, objective, t, n):
        for axes in self.AXES:
            b1, b2 = _brackets(np.ix_(*axes), t, n, objective)
            for lam in [(0.0, 1.0), (1.0, 0.0), (0.3, 0.7), (1.0, 1.0)]:
                dense = (lam[0] * b1 + lam[1] * b2) / t
                value, idx = _grid_max(axes, *lam, t, n, objective)
                assert value == dense.max()
                assert tuple(map(int, idx)) == np.unravel_index(np.argmax(dense), dense.shape)


class TestExactAgainstObjective:
    WEIGHTS = [(F(1), F(1)), (F(0), F(1)), (F(1), F(0)), (F(1, 3), F(2, 7)),
               (F(10**20 + 1, 3), F(2, 7)), (F(2, 7), F(10**20 + 1, 3))]

    @pytest.mark.parametrize("objective", ["f_exponent", "g_exponent"])
    def test_first_maximum_over_candidates(self, objective):
        cands, _, _ = _candidates()
        profiles = np.array(cands, dtype=object).T
        # one weight pair per row: exponent_objective evaluates every pair at once
        lam1, lam2 = (np.array(col, dtype=object)[:, None] for col in zip(*self.WEIGHTS))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            for t in range(1, 20):
                for n in range(1, 12):
                    values = exponent_objective(profiles, lam1, lam2, t, n, objective)
                    # every candidate's integer brackets, not only the maximal
                    # ones: rows 2 and 1 weigh user 1 and user 2 alone
                    D, b1, b2 = _candidate_brackets(t, n, objective)
                    assert [F(b, D * t) for b in b1] == values[2].tolist()
                    assert [F(b, D * t) for b in b2] == values[1].tolist()
                    for lam, row in zip(self.WEIGHTS, values.tolist()):
                        k = row.index(max(row))
                        sup, argmax = weighted_sum_dof_sup(*lam, t, n, objective)
                        assert (sup, argmax) == (row[k], cands[k]), (t, n, lam)
                        assert type(sup) is F and all(type(v) is F for v in argmax)
                    # the last weight pair again, with numpy-integer T and N
                    sup, argmax = weighted_sum_dof_sup(*lam, np.int64(t), np.int32(n), objective)
                    assert (sup, argmax) == (row[k], cands[k]), (t, n, lam)
                    assert type(sup) is F and all(type(v) is F for v in argmax)

    @pytest.mark.parametrize("objective", ["f_exponent", "g_exponent"])
    def test_brackets_are_homogeneous(self, objective):
        # the brackets on integer twelfths with one = 12 are 12 times the
        # brackets on the Fractions; this grid reaches every case of g,
        # including the middle one that no candidate profile reaches
        twelfths = np.array(list(itertools.product([-2, 0, 3, 4, 6, 9, 12], repeat=4))).T
        profiles = twelfths.astype(object) * F(1, 12)
        for t, n in [(3, 4), (5, 2), (9, 7)]:
            scaled = _brackets(twelfths, t, n, objective, one=12)
            plain = _brackets(profiles, t, n, objective)
            assert all((s == 12 * p).all() for s, p in zip(scaled, plain))


class TestOptimizerInputs:
    """Both optimizers share one input check; every bad call is typed."""

    @pytest.mark.parametrize("args,kwargs", [
        ((1, 1, 4, 2, "f_exponent"), {"coarse_step": 0}),
        ((1, 1, 4, 2, "f_exponent"), {"coarse_step": -2}),
        ((1, 1, 4, 2, "f_exponent"), {"fine_step": 0}),
        ((1, 1, 4, 2, "f_exponent"), {"coarse_step": 4.0}),
        ((0, 0, 4, 2, "f_exponent"), {}),
        ((-1, 1, 4, 2, "f_exponent"), {}),
        ((float("nan"), 1, 4, 2, "f_exponent"), {}),
        ((1, float("inf"), 4, 2, "f_exponent"), {}),
        ((1, 1, 0, 2, "f_exponent"), {}),
        ((1, 1, 4, 0, "f_exponent"), {}),
        ((1, 1, 4.5, 2, "f_exponent"), {}),
    ])
    def test_grid_oracle_rejects(self, args, kwargs):
        with pytest.raises(InvalidParam):
            grid_oracle_sup(*args, **kwargs)

    @pytest.mark.parametrize("args", [
        (0, 0, 4, 2, "f_exponent"),
        (-1, 1, 4, 2, "f_exponent"),
        (float("nan"), 1, 4, 2, "f_exponent"),
        (1, float("inf"), 4, 2, "f_exponent"),
        (1, 1, 0, 2, "f_exponent"),
        (1, 1, 4, 0, "f_exponent"),
        (1, 1, 4.5, 2, "f_exponent"),
        (1, 1, 4, 2, "h_exponent"),
    ])
    def test_exact_optimizer_rejects(self, args):
        with pytest.raises(InvalidParam):
            weighted_sum_dof_sup(*args)

    @pytest.mark.parametrize("profile", [(0.5, 0.25, 1.0, 0.0), (F(1, 2), F(1, 4), F(1), F(0))])
    @pytest.mark.parametrize("t,n", [(0, 2), (2.5, 2), (4, 0), (4, 1.5)])
    def test_exponent_objective_rejects(self, profile, t, n):
        with pytest.raises(InvalidParam):
            exponent_objective(profile, 1, 1, t, n, "f_exponent")


class TestCandidateProfiles:
    def test_vertices_of_the_kink_arrangement(self):
        cands, _, _ = _candidates()
        assert len(cands) == 27
        assert cands == sorted(set(cands))
        planes = _kink_hyperplanes()
        for x in cands:
            assert all(isinstance(v, F) and 0 <= v <= 1 for v in x)
            tight = [c for *c, r in planes if sum(ci * xi for ci, xi in zip(c, x)) == r]
            assert np.linalg.matrix_rank(np.array(tight, dtype=float)) == 4


class TestReturnTypes:
    """The brackets are numpy expressions; what they return must still be a
    Fraction (exact) or a float scalar, never a 0-d array."""

    @pytest.mark.parametrize("objective", ["f_exponent", "g_exponent"])
    def test_fraction_in_fraction_out(self, objective):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            sup, argmax = weighted_sum_dof_sup(F(1), F(1, 2), 4, 2, objective)
        assert type(sup) is F and all(type(v) is F for v in argmax)
        value = exponent_objective((F(1, 2), F(1, 3), F(1, 4), F(1)), F(1), F(1, 2), 4, 2,
                                   objective)
        assert type(value) is F
        # every term clamped to zero, integer weights: still exact
        assert type(exponent_objective((F(-1, 2),) * 4, 1, 1, 4, 2, objective)) is F

    @pytest.mark.parametrize("objective", ["f_exponent", "g_exponent"])
    def test_float_in_float_out(self, objective):
        value = exponent_objective((0.5, 0.25, 0.25, 1.0), 1.0, 0.5, 4, 2, objective)
        assert isinstance(value, float) and not isinstance(value, np.ndarray)


class TestClamping:
    def test_negative_exponents_never_beat_clamped(self):
        t, n = 4, 2
        probe = [F(-1, 2), F(-1, 4), F(0), F(1, 2)]
        for objective in ("f_exponent", "g_exponent"):
            for eb1 in probe:
                for e1t in probe:
                    prof = (eb1, e1t, F(1, 2), F(1, 2))
                    clamped = tuple(max(v, F(0)) for v in prof)
                    lo = exponent_objective(prof, F(1), F(1), t, n, objective)
                    hi = exponent_objective(clamped, F(1), F(1), t, n, objective)
                    assert lo <= hi
