"""Extended property-based tests: modems, link budget, channel plan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.link_budget import LinkBudget
from repro.channel.models import DualSlopePathLoss
from repro.crypto.secure_channel import SecureChannel
from repro.mics.channel_plan import ChannelPlan
from repro.phy.gmsk import GMSKModulator
from repro.phy.ofdm import OFDMConfig, OFDMModulator

bits_arrays = st.lists(st.integers(0, 1), min_size=8, max_size=128).map(
    lambda xs: np.asarray(xs, dtype=np.int64)
)


class TestGMSKProperties:
    @settings(max_examples=20, deadline=None)
    @given(bits_arrays)
    def test_constant_envelope(self, bits):
        w = GMSKModulator().modulate(bits)
        assert np.allclose(np.abs(w.samples), 1.0, atol=1e-9)


class TestOFDMProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
    def test_round_trip_exact(self, n_symbols, seed):
        cfg = OFDMConfig()
        rng = np.random.default_rng(seed)
        grid = OFDMModulator.random_qpsk(n_symbols, cfg.n_subcarriers, rng)
        symbols = OFDMModulator(cfg).modulate(grid).samples.reshape(n_symbols, -1)
        out = np.fft.fft(symbols[:, cfg.cyclic_prefix :], axis=1)
        assert np.allclose(out / np.sqrt(cfg.n_subcarriers), grid, atol=1e-9)


class TestPathlossProperties:
    @settings(max_examples=50)
    @given(
        st.floats(min_value=0.1, max_value=30.0),
        st.floats(min_value=0.1, max_value=30.0),
    )
    def test_monotone_nondecreasing(self, d1, d2):
        model = DualSlopePathLoss()
        lo, hi = sorted((d1, d2))
        assert model.loss_db(lo) <= model.loss_db(hi) + 1e-9

    @settings(max_examples=50)
    @given(st.floats(min_value=0.2, max_value=30.0))
    def test_loss_positive_and_finite(self, d):
        loss = DualSlopePathLoss().loss_db(d)
        assert 0.0 < loss < 200.0


class TestLinkBudgetProperties:
    @settings(max_examples=30)
    @given(st.floats(min_value=-40.0, max_value=20.0))
    def test_rssi_linear_in_tx_power(self, tx_dbm):
        budget = LinkBudget()
        loc = budget.geometry.location(5)
        base = budget.attacker_rx_at_shield_dbm(loc, 0.0)
        assert budget.attacker_rx_at_shield_dbm(loc, tx_dbm) == pytest.approx(
            base + tx_dbm
        )

    @settings(max_examples=20)
    @given(st.integers(min_value=1, max_value=18))
    def test_body_loss_gap_constant(self, index):
        """At every location the IMD path costs exactly the body loss
        more than the shield path."""
        budget = LinkBudget()
        loc = budget.geometry.location(index)
        gap = budget.attacker_rx_at_shield_dbm(
            loc, -16.0
        ) - budget.attacker_rx_at_imd_dbm(loc, -16.0)
        assert gap == pytest.approx(budget.body.loss_db)


class TestChannelPlanProperties:
    @settings(max_examples=30)
    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.floats(0.0, 10.0)),
            min_size=0,
            max_size=15,
        ),
        st.floats(min_value=0.0, max_value=20.0),
    )
    def test_picked_channel_is_idle(self, occupations, when):
        plan = ChannelPlan()
        for channel, until in occupations:
            plan.occupy(channel, until)
        try:
            choice = plan.pick_channel(when)
        except RuntimeError:
            assert not plan.idle_channels(when)
            return
        assert plan.is_idle(choice, when)


class TestSecureChannelProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.binary(min_size=0, max_size=64), min_size=1, max_size=12))
    def test_arbitrary_message_sequences_round_trip(self, messages):
        secret = bytes(range(32))
        a = SecureChannel(secret, is_shield=True)
        b = SecureChannel(secret, is_shield=False)
        for message in messages:
            assert b.receive(a.send(message)) == message
            assert a.receive(b.send(message)) == message
