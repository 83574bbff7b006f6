import numpy as np
import pytest

from simomac import converse, lemmas
from simomac.errors import InvalidParam


class TestIndividualChecks:
    def test_entropy_shift_invariance(self):
        res = lemmas.entropy_shift_invariance(seed=3)
        assert res["passed"]
        assert res["margin"] < res["slack"]

    def test_entropy_shift_detects_a_wrong_whitening(self, monkeypatch):
        # ln |det A|^2 of the (n - 1) scaled directions only: off by ln det
        # of the pilot direction's scale
        def log_det_without_pilot_direction(s, denom, v, n):
            log_det = converse._log_det(s, denom, v, n)
            return np.where(log_det == 0.0, 0.0, -(n - 1) * np.log(s))

        monkeypatch.setattr(lemmas, "_log_det", log_det_without_pilot_direction)
        res = lemmas.entropy_shift_invariance(seed=3)
        assert not res["passed"]
        assert res["margin"] > 1e3 * res["slack"]

    def test_log_moment_lower_bound(self):
        res = lemmas.log_moment_lower_bound(seed=3)
        assert res["passed"]
        assert res["eventually_increasing"]
        assert res["margin"] > -5.0

    def test_truncation_markov_bound(self):
        res = lemmas.truncation_markov_bound(seed=3)
        assert res["passed"]
        assert res["margin"] >= 0.0

    def test_aux_remainder_bound(self):
        res = lemmas.aux_remainder_bound(seed=3)
        assert res["passed"]
        assert res["margin"] > 0.0

    def test_negative_seed_raises(self):
        with pytest.raises(InvalidParam, match="seed"):
            lemmas.truncation_markov_bound(seed=-1)


class TestRunAll:
    def test_all_pass_default_seed(self):
        results = lemmas.run_all(seed=0)
        assert len(results) == 4
        assert all(r["passed"] for r in results)
        names = {r["check"] for r in results}
        assert names == {
            "entropy_shift_invariance",
            "log_moment_lower_bound",
            "truncation_markov_bound",
            "aux_remainder_bound",
        }

    @pytest.mark.parametrize("seed", [1, 7])
    def test_seed_robust(self, seed):
        assert all(r["passed"] for r in lemmas.run_all(seed=seed))

    def test_negative_seed_raises(self):
        with pytest.raises(InvalidParam, match="seed"):
            lemmas.run_all(seed=-1)
