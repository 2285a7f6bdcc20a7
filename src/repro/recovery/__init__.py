"""repro.recovery — replica readmission and state-transfer recovery.

The paper's prototype stops at expulsion ("replacement remains to be
implemented", §4); its message-queue state machine exists precisely so that
recovery does *not* require full object-state transfer (§3.1, §3.5). This
subsystem supplies the missing half of the membership lifecycle:

* :class:`~repro.recovery.messages.RejoinPetition` — the signed rejoin
  handshake a repaired element sends the Group Manager (mirroring Figure
  3's connection handshake);
* :class:`~repro.recovery.coordinator.RecoveryCoordinator` — drives the
  petition, then the element's catch-up round (:mod:`repro.bft.catchup`):
  fetch the queue image plus the stable PBFT checkpoint from peers,
  cross-validate fingerprints, restore, and replay the buffered ordered
  tail;
* :class:`~repro.recovery.proactive.ProactiveRecoveryScheduler` — the
  periodic restart→rejoin→state-transfer rotation that bounds how long an
  undetected adversary can dwell on any element.

Key-epoch rotation (every membership change advances the epoch; receivers
fence out generations more than one epoch old) lives in
:mod:`repro.itdos.keys` and the Group Manager, with the protocol surface
defined here.
"""

# The element package imports this one back (replica -> coordinator), so it
# must be the one that starts initialising: `import repro.recovery` on its
# own otherwise dies half-way round the cycle.
import repro.itdos  # noqa: F401  isort: skip
from repro.recovery.coordinator import RecoveryCoordinator
from repro.recovery.messages import RejoinPetition, petition_body
from repro.recovery.proactive import ProactiveRecoveryScheduler

__all__ = [
    "ProactiveRecoveryScheduler",
    "RecoveryCoordinator",
    "RejoinPetition",
    "petition_body",
]
