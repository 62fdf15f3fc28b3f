"""Tests for metrics, reporting, testbed wiring, and the waveform lab."""

import numpy as np
import pytest

from repro.channel.link_budget import LinkBudget
from repro.experiments.metrics import empirical_cdf, success_probability, summarize
from repro.experiments.report import ExperimentReport
from repro.experiments.testbed import AttackTestbed, ExperimentLinkModel, Placement
from repro.experiments.waveform_lab import (
    PassiveLab,
    cancellation_samples,
    fsk_profile_peaks,
)


def _loss(model: ExperimentLinkModel, source: str, destination: str) -> float:
    """A link's mean total loss, as the air model applies it."""
    return -model.mean_rx_power_dbm(source, destination, 0.0)


class TestMetrics:
    def test_empirical_cdf(self):
        values, cdf = empirical_cdf([3.0, 1.0, 2.0])
        assert np.allclose(values, [1.0, 2.0, 3.0])
        assert np.allclose(cdf, [1 / 3, 2 / 3, 1.0])

    def test_empirical_cdf_empty(self):
        with pytest.raises(ValueError, match="need at least 2"):
            empirical_cdf([])

    def test_empirical_cdf_single_element(self):
        """A one-point CDF is degenerate; refuse it loudly (regression:
        used to return a single step silently)."""
        with pytest.raises(ValueError, match="1 sample"):
            empirical_cdf([2.5])

    def test_empirical_cdf_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            empirical_cdf([1.0, float("nan"), 3.0])
        with pytest.raises(ValueError, match="non-finite"):
            empirical_cdf([1.0, float("inf")])

    def test_summarize(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats.mean == pytest.approx(2.0)
        assert stats.minimum == 1.0
        assert stats.maximum == 3.0
        assert stats.count == 3

    def test_summarize_empty(self):
        with pytest.raises(ValueError, match="need at least 2"):
            summarize([])

    def test_summarize_single_element(self):
        """The ddof=1 sample std is undefined for one sample (regression:
        used to report std=0.0, which reads as 'perfectly precise')."""
        with pytest.raises(ValueError, match="1 sample"):
            summarize([5.0])

    def test_summarize_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            summarize([1.0, float("-inf")])

    def test_success_probability_wilson(self):
        p, low, high = success_probability(59, 100)
        assert p == pytest.approx(0.59)
        assert low < 0.59 < high
        assert high - low < 0.25

    def test_success_probability_extremes(self):
        p0, low0, _ = success_probability(0, 100)
        p1, _, high1 = success_probability(100, 100)
        assert p0 == 0.0 and low0 == pytest.approx(0.0, abs=1e-9)
        assert p1 == 1.0 and high1 == pytest.approx(1.0, abs=1e-9)

    def test_success_probability_validation(self):
        with pytest.raises(ValueError):
            success_probability(5, 0)
        with pytest.raises(ValueError):
            success_probability(11, 10)
        with pytest.raises(ValueError):
            success_probability(1, 10, confidence=1.5)

    def test_success_probability_arbitrary_confidence(self):
        """Non-tabled confidence levels resolve through the normal quantile."""
        _, low80, high80 = success_probability(5, 10, confidence=0.80)
        _, low95, high95 = success_probability(5, 10, confidence=0.95)
        assert low95 < low80 < high80 < high95


class TestReport:
    def test_render_contains_rows(self):
        report = ExperimentReport("Fig. 9")
        report.add("BER at adversary", "~0.50", "0.49")
        out = report.render()
        assert "Fig. 9" in out and "~0.50" in out and "0.49" in out

    def test_empty_report(self):
        assert "(no rows)" in ExperimentReport("empty").render()


class TestLinkModelWiring:
    @pytest.fixture
    def links(self):
        budget = LinkBudget()
        model = ExperimentLinkModel(budget)
        model.place(Placement("imd", in_phantom=True))
        model.place(Placement("observer", in_phantom=True))
        model.place(Placement("shield", on_body=True))
        model.place(
            Placement("adversary", location=budget.geometry.location(1))
        )
        return budget, model

    def test_adversary_to_imd_includes_body(self, links):
        budget, model = links
        to_imd = _loss(model, "adversary", "imd")
        to_shield = _loss(model, "adversary", "shield")
        assert to_imd - to_shield == pytest.approx(budget.body.loss_db)

    def test_in_phantom_link_small(self, links):
        budget, model = links
        assert _loss(model, "imd", "observer") == pytest.approx(10.0)

    def test_shield_imd_link(self, links):
        budget, model = links
        expected = budget.geometry.shield_to_imd_loss_db() + budget.body.loss_db
        assert _loss(model, "shield", "imd") == pytest.approx(expected)

    def test_symmetry(self, links):
        budget, model = links
        assert _loss(model, "imd", "adversary") == pytest.approx(
            _loss(model, "adversary", "imd")
        )

    def test_noise_floor_roles(self, links):
        budget, model = links
        assert model.noise_power_dbm("imd") > model.noise_power_dbm("shield")

    def test_unplaced_device_is_error(self, links):
        _, model = links
        with pytest.raises(KeyError):
            _loss(model, "ghost", "imd")

    def test_placement_exactly_one_kind(self):
        with pytest.raises(ValueError):
            Placement("x", in_phantom=True, on_body=True)
        with pytest.raises(ValueError):
            Placement("x")


class TestAttackTestbed:
    def test_invalid_attacker_kind(self):
        with pytest.raises(ValueError):
            AttackTestbed(location_index=1, attacker="quantum")

    def test_unshielded_attack_succeeds_nearby(self):
        bed = AttackTestbed(location_index=1, shield_present=False, seed=0)
        outcome = bed.attack_once(bed.interrogate_packet())
        assert outcome.imd_responded

    def test_shielded_attack_fails_nearby(self):
        bed = AttackTestbed(location_index=1, shield_present=True, seed=0)
        outcome = bed.attack_once(bed.interrogate_packet())
        assert not outcome.imd_responded

    def test_therapy_alternates_so_changes_observable(self):
        bed = AttackTestbed(location_index=1, shield_present=False, seed=0)
        first = bed.attack_once(bed.therapy_packet())
        second = bed.attack_once(bed.therapy_packet())
        assert first.therapy_changed and second.therapy_changed

    def test_trials_runner(self):
        bed = AttackTestbed(location_index=1, shield_present=False, seed=0)
        outcomes = bed.run_trials(5, command="interrogate")
        assert len(outcomes) == 5
        assert all(o.imd_responded for o in outcomes)

    def test_trials_unknown_command(self):
        bed = AttackTestbed(location_index=1, seed=0)
        with pytest.raises(ValueError):
            bed.run_trials(1, command="explode")


class TestWaveformLab:
    def test_fsk_profile_matches_fig4(self):
        peaks, frac = fsk_profile_peaks()
        assert peaks[0] == pytest.approx(-50e3, abs=8e3)
        assert peaks[1] == pytest.approx(50e3, abs=8e3)
        assert frac > 0.6

    def test_cancellation_mean_near_32(self):
        samples = cancellation_samples(n_runs=60, jam_samples=1024)
        assert 28.0 < float(np.mean(samples)) < 36.0

    def test_trial_at_operating_point(self):
        lab = PassiveLab(seed=3)
        trial = lab.run_trial(jam_margin_db=20.0)
        assert trial.eavesdropper_ber > 0.4
        assert not trial.shield_packet_lost

    def test_no_jamming_eavesdropper_reads_everything(self):
        lab = PassiveLab(seed=4)
        trial = lab.run_trial(jam_margin_db=-40.0)
        assert trial.eavesdropper_ber < 0.01

    def test_tradeoff_monotone_in_margin(self):
        lab = PassiveLab(seed=5)
        points = lab.tradeoff_sweep([0.0, 20.0], n_packets=12)
        assert points[1].eavesdropper_ber > points[0].eavesdropper_ber

    def test_ber_by_location_all_near_half(self):
        lab = PassiveLab(seed=6)
        out = lab.ber_by_location(n_packets=6, location_indices=(1, 9, 18))
        for ber in out.values():
            assert ber > 0.4


class TestBatchedLab:
    def test_batch_shapes_and_types(self):
        lab = PassiveLab(seed=10)
        batch = lab.run_batch(20.0, n_packets=8)
        assert batch.n_packets == 8
        assert batch.eavesdropper_ber.shape == (8,)
        assert batch.shield_bit_errors.shape == (8,)
        assert batch.shield_packet_lost.dtype == bool
        trials = batch.trials()
        assert len(trials) == 8

    def test_batch_statistics_match_operating_point(self):
        lab = PassiveLab(seed=11)
        batch = lab.run_batch(20.0, n_packets=30)
        assert batch.mean_eavesdropper_ber() > 0.4
        assert batch.shield_loss_rate() < 0.2

    def test_batch_no_jamming_reads_everything(self):
        lab = PassiveLab(seed=12)
        batch = lab.run_batch(-40.0, n_packets=6)
        assert batch.mean_eavesdropper_ber() < 0.01

    def test_correlation_and_sample_paths_agree(self):
        """The sufficient-statistic fast path and the sample-level batch
        must describe the same experiment."""
        margins = {}
        for name, force_samples in (("corr", False), ("samples", True)):
            lab = PassiveLab(seed=13)
            powers = lab._link_powers(20.0, 1)
            bits = lab.telemetry_packet_bits_batch(60)
            if force_samples:
                from repro.adversary.strategies import TreatJammingAsNoise

                batch = lab._run_batch_samples(
                    bits, powers, TreatJammingAsNoise(), lab.jammer, True
                )
            else:
                batch = lab._run_batch_correlations(
                    bits, powers, lab.jammer, True, True, True
                )
            margins[name] = batch.mean_eavesdropper_ber()
        assert margins["corr"] == pytest.approx(margins["samples"], abs=0.05)

    def test_score_flags_skip_sides(self):
        lab = PassiveLab(seed=14)
        eve_only = lab.run_batch(20.0, n_packets=4, score_shield=False)
        assert eve_only.shield_bit_errors is None
        assert eve_only.eavesdropper_ber is not None
        with pytest.raises(ValueError):
            eve_only.shield_loss_rate()
        shield_only = lab.run_batch(20.0, n_packets=4, score_eavesdropper=False)
        assert shield_only.eavesdropper_ber is None
        with pytest.raises(ValueError):
            shield_only.mean_eavesdropper_ber()
        with pytest.raises(ValueError):
            lab.run_batch(
                20.0, n_packets=4, score_shield=False, score_eavesdropper=False
            )

    def test_nondefault_strategy_uses_sample_path(self):
        from repro.adversary.strategies import FilterBankStrategy

        lab = PassiveLab(seed=15)
        assert not lab._correlation_path_ok(FilterBankStrategy(), lab.jammer)
        batch = lab.run_batch(0.0, n_packets=3, strategy=FilterBankStrategy())
        assert batch.n_packets == 3

    def test_strategy_subclass_preprocess_is_honored(self):
        """A TreatJammingAsNoise subclass overriding preprocess() must not
        be silently skipped by the batch fast path."""
        from repro.adversary.strategies import TreatJammingAsNoise
        from repro.phy.signal import Waveform as _Waveform

        class Nulling(TreatJammingAsNoise):
            def preprocess(self, waveform, config):
                return _Waveform(
                    np.zeros_like(waveform.samples), waveform.sample_rate
                )

        lab = PassiveLab(seed=18)
        batch = lab.run_batch(
            -40.0, n_packets=5, strategy=Nulling(), score_shield=False
        )
        # A nulled waveform decodes to all zeros, so the BER equals the
        # ones-density of the packet (~8%); an honored no-op decode at
        # -40 dB jamming would be < 1% (see
        # test_batch_no_jamming_reads_everything).
        assert batch.mean_eavesdropper_ber() > 0.05

    def test_batch_is_deterministic_per_seed(self):
        a = PassiveLab(seed=16).run_batch(20.0, n_packets=5)
        b = PassiveLab(seed=16).run_batch(20.0, n_packets=5)
        assert np.array_equal(a.eavesdropper_ber, b.eavesdropper_ber)
        assert np.array_equal(a.shield_bit_errors, b.shield_bit_errors)

    def test_run_trial_is_batch_of_one(self):
        lab = PassiveLab(seed=17)
        trial = lab.run_trial(20.0)
        assert 0.0 <= trial.eavesdropper_ber <= 1.0
        assert trial.shield_packet_lost == (trial.shield_bit_errors > 0)


class TestSweepObserverToggle:
    def test_observer_disabled_testbed_still_attacks(self):
        bed = AttackTestbed(
            location_index=1, shield_present=False, seed=3, observer_enabled=False
        )
        assert bed.observer is None
        outcome = bed.attack_once(bed.interrogate_packet())
        assert outcome.imd_responded

    def test_observer_default_present(self):
        bed = AttackTestbed(location_index=1, seed=3)
        assert bed.observer is not None

    def test_seed_sequence_accepted(self):
        import numpy as _np

        ss = _np.random.SeedSequence(42, spawn_key=(1, 0))
        bed_a = AttackTestbed(location_index=1, shield_present=False, seed=ss)
        out_a = [bed_a.attack_once(bed_a.interrogate_packet()) for _ in range(3)]
        ss2 = _np.random.SeedSequence(42, spawn_key=(1, 0))
        bed_b = AttackTestbed(location_index=1, shield_present=False, seed=ss2)
        out_b = [bed_b.attack_once(bed_b.interrogate_packet()) for _ in range(3)]
        assert out_a == out_b
