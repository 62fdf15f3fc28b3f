"""The shield: the paper's primary contribution.

An external wearable device that protects an unmodified IMD by:

* **jammer-cum-receiver full duplex** (S5): a jamming antenna transmits
  shaped noise while the receive antenna -- driven by an *antidote*
  signal from its own transmit chain -- cancels that noise only at its
  own front end (:mod:`repro.core.full_duplex`,
  :mod:`repro.core.antidote`);
* **passive protection** (S6): jam every IMD transmission inside the
  calibrated [T1, T2 + P] reply window while decoding it through the
  cancellation (:mod:`repro.core.policy`, :mod:`repro.core.jamming`);
* **active protection** (S7): match the first ``m`` decoded bits of any
  transmission against the IMD's identifying sequence and jam matches;
  jam anything concurrent with the shield's own transmissions; raise an
  alarm on above-threshold power (:mod:`repro.core.detector`);
* **relay** (S4): proxy traffic between the IMD and authorized
  programmers over an authenticated encrypted channel
  (:mod:`repro.core.relay`).

:class:`repro.core.shield.ShieldRadio` assembles all of it on the
event-level air; :class:`repro.core.full_duplex.JammerCumReceiver` is the
waveform-level front end used by the micro-benchmarks (Figs. 7-10).
"""

from repro.core.antidote import antidote_signal
from repro.core.config import ShieldConfig
from repro.core.detector import ActiveDetector, DetectionDecision
from repro.core.full_duplex import FrontEndChannels, JammerCumReceiver
from repro.core.jamming import ShapedJammer
from repro.core.policy import AlarmPolicy, JamWindowPolicy
from repro.core.relay import ProgrammerLink, ShieldRelay
from repro.core.shield import ShieldRadio

__all__ = [
    "ActiveDetector",
    "AlarmPolicy",
    "DetectionDecision",
    "FrontEndChannels",
    "JamWindowPolicy",
    "JammerCumReceiver",
    "ProgrammerLink",
    "ShapedJammer",
    "ShieldConfig",
    "ShieldRadio",
    "ShieldRelay",
    "antidote_signal",
]
