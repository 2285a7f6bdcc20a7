"""ITDOS reproduction: heterogeneous intrusion-tolerant CORBA middleware.

Reproduces "Developing a Heterogeneous Intrusion Tolerant CORBA System"
(Sames, Matt, Niebuhr, Tally, Whitmore, Bakken — DSN 2002) as a complete
Python library. Top-level layout:

* :mod:`repro.sim` — deterministic discrete-event network simulation
* :mod:`repro.crypto` — signatures, authenticated encryption, threshold DPRF
* :mod:`repro.giop` — CDR/GIOP marshalling, IDL types, platform profiles
* :mod:`repro.bft` — Castro–Liskov PBFT (the Secure Reliable Multicast)
* :mod:`repro.orb` — the CORBA-like ORB and the plain-IIOP baseline
* :mod:`repro.itdos` — the paper's contribution (start at
  :class:`repro.itdos.ItdosSystem`)
* :mod:`repro.baselines`, :mod:`repro.workloads` — comparison systems and
  the benchmark harness support

See README.md for a guided tour, DESIGN.md for the system inventory, and
EXPERIMENTS.md for paper-vs-measured results.
"""

__version__ = "1.0.0"
