"""Physical-layer substrate: baseband signals, modems, and error models.

This package provides everything the shield's DSP needs from a software
radio: a complex-baseband :class:`~repro.phy.signal.Waveform` container,
binary-FSK and GMSK modulators (the IMDs in the paper use FSK; the
meteorological cross-traffic uses GMSK) with the eavesdropper's
noncoherent FSK demodulator, spectral-analysis helpers used to shape the
jamming signal, analytic bit-error-rate models used by the event-level
simulator, identifying-sequence matching, and an OFDM modulator for the
paper's wideband extension (S5).
"""

from repro.phy.ber import noncoherent_fsk_ber, sample_bit_errors
from repro.phy.fsk import FSKConfig, FSKModulator, NoncoherentFSKDemodulator
from repro.phy.gmsk import GMSKConfig, GMSKModulator
from repro.phy.signal import Waveform, db_to_linear, dbm_to_watts, linear_to_db
from repro.phy.spectrum import FrequencyProfile, power_spectral_density

__all__ = [
    "FSKConfig",
    "FSKModulator",
    "NoncoherentFSKDemodulator",
    "GMSKConfig",
    "GMSKModulator",
    "FrequencyProfile",
    "Waveform",
    "noncoherent_fsk_ber",
    "sample_bit_errors",
    "db_to_linear",
    "dbm_to_watts",
    "linear_to_db",
    "power_spectral_density",
]
