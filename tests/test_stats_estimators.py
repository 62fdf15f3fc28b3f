"""Tests for repro.stats: intervals, sequential estimators, expectations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.metrics import success_probability
from repro.stats import (
    Expectation,
    MeanEstimator,
    SequentialEstimator,
    evaluate_expectation,
    jeffreys_interval,
    mean_interval,
    normal_quantile,
    wilson_interval,
    worst_verdict,
)
from repro.stats.expectations import CellStats
from repro.stats.intervals import _LEGACY_Z, _beta_quantile, _t_quantile

#: Confidence levels the quantile pins sweep: 0.80 to 0.999.
_LEVELS = [float(c) for c in np.linspace(0.8, 0.999, 200)]


class TestIntervals:
    def test_wilson_matches_legacy_success_probability(self):
        """The seed repo's Wilson numbers must not move by a ULP."""
        for successes, trials in [(0, 25), (59, 100), (100, 100), (1, 3)]:
            _, low, high = success_probability(successes, trials)
            assert wilson_interval(successes, trials) == (low, high)

    def test_legacy_z_values_survive(self):
        assert normal_quantile(0.95) == 1.9600
        assert normal_quantile(0.90) == 1.6449
        assert normal_quantile(0.99) == 2.5758

    def test_arbitrary_confidence_resolves_through_normal_quantile(self):
        z80 = normal_quantile(0.80)
        assert z80 == pytest.approx(1.2816, abs=1e-3)
        assert normal_quantile(0.80) < normal_quantile(0.95)

    def test_confidence_bounds_rejected(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                normal_quantile(bad)

    def test_jeffreys_pins_observed_boundaries(self):
        low, high = jeffreys_interval(0, 20)
        assert low == 0.0 and 0.0 < high < 0.2
        low, high = jeffreys_interval(20, 20)
        assert high == 1.0 and 0.8 < low < 1.0

    def test_jeffreys_tighter_than_wilson_at_zero(self):
        """The reason adaptive stopping defaults to Jeffreys."""
        for n in (8, 12, 25):
            _, wilson_high = wilson_interval(0, n)
            _, jeffreys_high = jeffreys_interval(0, n)
            assert jeffreys_high < wilson_high

    def test_interval_width_shrinks_with_trials(self):
        widths = []
        for n in (10, 40, 160):
            low, high = jeffreys_interval(n // 2, n)
            widths.append(high - low)
        assert widths[0] > widths[1] > widths[2]

    def test_count_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            jeffreys_interval(5, 4)

    def test_mean_interval_matches_numpy_reference(self):
        rng = np.random.default_rng(3)
        sample = rng.normal(0.4, 0.05, size=30)
        low, high = mean_interval(
            len(sample), float(sample.sum()), float(np.sum(sample**2))
        )
        from scipy import stats as sps

        t = sps.t.ppf(0.975, len(sample) - 1)
        half = t * sample.std(ddof=1) / math.sqrt(len(sample))
        assert (low + high) / 2 == pytest.approx(sample.mean(), rel=1e-9)
        assert high - low == pytest.approx(2 * half, rel=1e-6)

    def test_mean_interval_needs_two_samples(self):
        with pytest.raises(ValueError):
            mean_interval(1, 0.5, 0.25)

    def test_mean_interval_clips_to_bounds(self):
        low, high = mean_interval(3, 0.01, 0.01, bounds=(0.0, 1.0))
        assert low >= 0.0 and high <= 1.0


class TestQuantilesMatchScipy:
    """The standard-library quantiles against ``scipy.stats`` over the
    levels, degrees of freedom and trial counts the campaigns use."""

    def test_normal(self):
        from scipy import stats as sps

        for confidence in _LEVELS:
            if confidence in _LEGACY_Z:
                continue
            # NormalDist and scipy's ndtri each err by a few ulps, so
            # they differ by up to 1.3e-15 where z reaches 3.3.
            assert normal_quantile(confidence) == pytest.approx(
                sps.norm.ppf(0.5 + confidence / 2.0), rel=1e-15, abs=1e-15
            )

    def test_student_t(self):
        from scipy import stats as sps

        levels = _LEVELS[::20] + [0.90, 0.95, 0.99, 0.999]
        for df in range(1, 401):
            want = sps.t.ppf([0.5 + c / 2.0 for c in levels], df)
            got = [_t_quantile(c, df) for c in levels]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("trials", [1, 2, 5, 10, 50, 100, 500, 1000, 4000])
    def test_jeffreys_beta_both_tails(self, trials):
        from scipy import stats as sps

        successes = np.arange(trials + 1)
        a, b = successes + 0.5, trials - successes + 0.5
        for confidence in (0.95, 0.999):
            alpha = 1.0 - confidence
            low, high = zip(
                *(jeffreys_interval(int(s), trials, confidence) for s in successes)
            )
            want_low = np.where(successes == 0, 0.0, sps.beta.ppf(alpha / 2, a, b))
            want_high = np.where(
                successes == trials, 1.0, sps.beta.ppf(1 - alpha / 2, a, b)
            )
            np.testing.assert_allclose(low, want_low, rtol=0, atol=1e-13)
            np.testing.assert_allclose(high, want_high, rtol=0, atol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(0.5, 2000.0),
        b=st.floats(0.5, 2000.0),
        p=st.floats(0.5, 1 - 1e-6),
        q=st.floats(1e-6, 1 - 1e-6),
    )
    def test_beta_quantile_monotone_and_symmetric(self, a, b, p, q):
        low, high = sorted((p, q))
        assert _beta_quantile(low, a, b) <= _beta_quantile(high, a, b) + 1e-13
        # 1 - p is exact for p >= 1/2, so any asymmetry is the inverse's.
        assert _beta_quantile(p, a, a) + _beta_quantile(1 - p, a, a) == (
            pytest.approx(1.0, abs=1e-13)
        )


class TestSequentialEstimator:
    def test_update_accumulates_and_merges(self):
        a = SequentialEstimator().update(3, 10).update(1, 10)
        b = SequentialEstimator(4, 20)
        assert a == b
        a.merge(SequentialEstimator(0, 5))
        assert a.trials == 25 and a.estimate == pytest.approx(4 / 25)

    def test_half_width_infinite_before_data(self):
        assert SequentialEstimator().half_width() == math.inf
        assert not SequentialEstimator().converged(0.1)

    def test_convergence_is_monotone_in_trials_at_zero(self):
        est = SequentialEstimator()
        assert not est.update(0, 6).converged(0.10)
        assert est.update(0, 6).converged(0.10)

    def test_interval_methods_dispatch(self):
        est = SequentialEstimator(0, 12)
        assert est.interval(method="jeffreys")[1] < est.interval(method="wilson")[1]
        with pytest.raises(ValueError):
            est.interval(method="wald")

    def test_chunk_validation(self):
        with pytest.raises(ValueError):
            SequentialEstimator().update(-1, 5)
        with pytest.raises(ValueError):
            SequentialEstimator().update(6, 5)


class TestMeanEstimator:
    def test_merged_chunks_match_single_pass(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(0.3, 0.7, size=24)
        whole = MeanEstimator().update(
            len(values), float(values.sum()), float(np.sum(values**2))
        )
        chunked = MeanEstimator()
        for part in np.split(values, 4):
            chunked.update(len(part), float(part.sum()), float(np.sum(part**2)))
        assert chunked.estimate == pytest.approx(whole.estimate, rel=1e-12)
        assert chunked.interval() == pytest.approx(whole.interval(), rel=1e-9)

    def test_half_width_ignores_bounds_clipping(self):
        """Convergence must measure sampling precision, not wall distance."""
        est = MeanEstimator(bounds=(0.0, 1.0)).update(5, 0.005, 0.00002)
        low, high = est.interval()
        assert low == 0.0  # clipped for reporting
        assert est.half_width() > (high - low) / 2 - 1e-12

    def test_no_estimate_before_data(self):
        with pytest.raises(ValueError):
            _ = MeanEstimator().estimate
        assert MeanEstimator().half_width() == math.inf


def _cell(axis, **metrics) -> CellStats:
    return CellStats(axis, f"cell {axis}", dict(metrics))


class TestExpectationSemantics:
    def test_upper_bound_pass_fail_inconclusive(self):
        exp = Expectation(metric="p", kind="upper_bound", value=0.05)
        cells = [_cell(1, p=SequentialEstimator(0, 25))]
        assert evaluate_expectation(exp, cells).verdict == "pass"
        cells = [_cell(1, p=SequentialEstimator(25, 25))]
        assert evaluate_expectation(exp, cells).verdict == "fail"
        # 2/10: estimate 0.2 violates the bound, but the CI still
        # reaches below 0.05 -> more trials would settle it.
        cells = [_cell(1, p=SequentialEstimator(2, 10))]
        assert evaluate_expectation(exp, cells).verdict == "inconclusive"

    def test_upper_bound_confirmation_needs_whole_ci(self):
        exp = Expectation(metric="p", kind="upper_bound", value=0.05)
        weak = evaluate_expectation(exp, [_cell(1, p=SequentialEstimator(0, 10))])
        assert weak.verdict == "pass" and not weak.confirmed
        strong = evaluate_expectation(
            exp, [_cell(1, p=SequentialEstimator(0, 200))]
        )
        assert strong.verdict == "pass" and strong.confirmed

    def test_lower_bound_mirrors_upper(self):
        exp = Expectation(metric="p", kind="lower_bound", value=0.9)
        assert (
            evaluate_expectation(exp, [_cell(1, p=SequentialEstimator(25, 25))]).verdict
            == "pass"
        )
        assert (
            evaluate_expectation(exp, [_cell(1, p=SequentialEstimator(0, 25))]).verdict
            == "fail"
        )
        assert (
            evaluate_expectation(exp, [_cell(1, p=SequentialEstimator(8, 10))]).verdict
            == "inconclusive"
        )

    def test_ci_overlap_judges_interval_intersection(self):
        exp = Expectation(metric="m", kind="ci_overlap", value=0.5, tolerance=0.05)
        near = MeanEstimator().update(10, 4.7, 2.2095)  # mean 0.47, tiny spread
        outcome = evaluate_expectation(exp, [_cell(1, m=near)])
        assert outcome.verdict == "pass" and outcome.confirmed
        far = MeanEstimator().update(10, 1.0, 0.101)  # mean 0.1, tiny spread
        assert evaluate_expectation(exp, [_cell(1, m=far)]).verdict == "fail"

    def test_ci_overlap_underpowered_is_inconclusive_not_pass(self):
        """A measured CI wider than the paper's slack cannot distinguish
        the claim from a refutation; it must not vacuously pass."""
        exp = Expectation(metric="m", kind="ci_overlap", value=0.5, tolerance=0.05)
        # mean 0.5 but huge spread: CI ~ [0.14, 0.86] swallows the
        # paper interval entirely.
        noisy = MeanEstimator().update(4, 2.0, 1.96)
        outcome = evaluate_expectation(exp, [_cell(1, m=noisy)])
        assert outcome.verdict == "inconclusive"

    def test_exact_never_inconclusive(self):
        exp = Expectation(metric="p", kind="exact", value=0.0, tolerance=0.0)
        assert (
            evaluate_expectation(exp, [_cell(1, p=SequentialEstimator(0, 5))]).verdict
            == "pass"
        )
        assert (
            evaluate_expectation(exp, [_cell(1, p=SequentialEstimator(1, 5))]).verdict
            == "fail"
        )

    def test_axes_filter_and_skip(self):
        exp = Expectation(metric="p", kind="upper_bound", value=0.1, axes=(1, 99))
        outcome = evaluate_expectation(
            exp, [_cell(1, p=SequentialEstimator(0, 20)), _cell(2, p=SequentialEstimator(20, 20))]
        )
        # Cell 2 is not judged (not in axes); 99 is reported skipped.
        assert outcome.verdict == "pass"
        assert outcome.skipped_axes == (99,)

    def test_missing_metric_is_inconclusive_not_pass(self):
        exp = Expectation(metric="absent", kind="upper_bound", value=0.1)
        outcome = evaluate_expectation(exp, [_cell(1, p=SequentialEstimator(0, 5))])
        assert outcome.verdict == "inconclusive"

    def test_worst_verdict_ordering(self):
        assert worst_verdict([]) == "pass"
        assert worst_verdict(["pass", "inconclusive"]) == "inconclusive"
        assert worst_verdict(["inconclusive", "fail", "pass"]) == "fail"

    def test_expectation_validation(self):
        with pytest.raises(ValueError):
            Expectation(metric="p", kind="between", value=0.5)
        with pytest.raises(ValueError):
            Expectation(metric="p", kind="exact", value=0.5, tolerance=-0.1)
        with pytest.raises(ValueError):
            Expectation(metric="p", kind="exact", value=0.5, axes=())

    def test_describe_mentions_bound_and_axes(self):
        exp = Expectation(metric="ber", kind="upper_bound", value=0.15, axes=(0.25,))
        assert "ber <= 0.15" in exp.describe()
        assert "0.25" in exp.describe()
