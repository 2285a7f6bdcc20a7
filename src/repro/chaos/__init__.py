"""Deterministic Byzantine schedule fuzzing (repro.chaos).

The paper's claim is that ITDOS stays correct while up to f elements per
domain are Byzantine — but hand-written fault behaviours
(:mod:`repro.chaos.byzantine`) only cover faults someone thought of. This
subsystem adversarially explores message *schedules* instead: a seeded
:class:`ChaosController` sits in the simulated wire and composes per-link
drop / delay / duplicate / reorder, dynamic partitions, wire-level
corruption, and per-receiver equivocation by up to f replicas; after every
delivered message a global :class:`InvariantChecker` asserts the system's
safety predicates across all processes, and a :class:`ScheduleRunner`
sweeps a scenario matrix over many seeds, shrinking any failing schedule
to a minimal reproduction.

Everything is deterministic: one (scenario, seed) pair fully determines
the event schedule, so every recorded violation replays exactly.
"""

from repro.chaos.adversary import ChaosController, FaultEvent, corrupt_payload
from repro.chaos.invariants import InvariantChecker, InvariantViolation, Violation
from repro.chaos.runner import RunResult, ScheduleRunner, SweepResult
from repro.chaos.schedule import ChaosPlan, PartitionWindow, Scenario, scenario_matrix

__all__ = [
    "ChaosController",
    "ChaosPlan",
    "FaultEvent",
    "InvariantChecker",
    "InvariantViolation",
    "PartitionWindow",
    "RunResult",
    "Scenario",
    "ScheduleRunner",
    "SweepResult",
    "Violation",
    "corrupt_payload",
    "scenario_matrix",
]
