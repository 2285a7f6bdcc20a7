"""Tests for the report tool's parsers and the system summary API."""

import pytest

from tests.itdos.conftest import CalculatorServant, make_system

SAMPLE_OUTPUT = """
junk line
=== E1a — ordering cost vs group size ===
ordering group | messages/request
----------------+------------------
3f+1 = 4       | 37.0

--- Figure 3 as a sequence diagram (merged fan-outs) ---
  alice    gm[4]
    |-------->      Request

--------------------------------------------------------- benchmark: 2 tests ---
Name  Min  Max
test_a  1  2
Legend:
  whatever
"""


def test_extract_sections():
    import tools.generate_report as report

    sections = report.extract_sections(SAMPLE_OUTPUT)
    titles = [t for t, _ in sections]
    assert "E1a — ordering cost vs group size" in titles
    assert any("sequence diagram" in t for t in titles)
    table = dict(sections)["E1a — ordering cost vs group size"]
    assert "3f+1 = 4" in table
    assert "----+" in table  # the separator row is kept inside the block


def test_extract_timings():
    import tools.generate_report as report

    timings = report.extract_timings(SAMPLE_OUTPUT)
    assert "test_a" in timings
    assert "Legend" not in timings


def test_extract_timings_absent():
    import tools.generate_report as report

    assert report.extract_timings("no tables here") == ""


def test_sampler_prints_per_request_rows(capsys):
    import tools.sample as sample

    assert sample.main(["sim_null", "--slices", "4", "--interval", "0.001"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("sim_null: ") and "CPU µs/request" in out
    # The scheduler loop is under every sample taken while requests run.
    assert "src/repro/sim/scheduler.py:run" in out


def test_sampler_samples_the_set_up(capsys):
    import tools.sample as sample

    assert sample.main(["sim_null", "--setup", "--interval", "0.001"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("sim_null: ") and "CPU µs of set-up" in out
    # Settle and warm-up run the scheduler; the warm-up's handshake is there.
    assert "src/repro/sim/scheduler.py:run" in out


def test_sampler_charges_generated_code_to_its_class():
    import dataclasses
    import sys

    import tools.sample as sample

    @dataclasses.dataclass
    class Probe:
        # The factory runs inside the __init__ that dataclasses generate.
        row: tuple = dataclasses.field(
            default_factory=lambda: sample.frame_row(sys._getframe(1))
        )

    assert Probe().row == ("<string>", "Probe.__init__")
    assert sample.frame_row(sys._getframe()) == (
        "tests/test_tools_and_summary.py",
        "test_sampler_charges_generated_code_to_its_class",
    )


def test_system_summary():
    system = make_system(seed=300)
    system.add_server_domain(
        "calc", f=1, servants=lambda element: {b"calc": CalculatorServant()}
    )
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    stub.add(1.0, 2.0)
    system.settle(1.0)
    summary = system.summary()
    assert summary["domains"]["calc"]["n"] == 4
    assert summary["domains"]["calc"]["dispatched"] == [1, 1, 1, 1]
    assert summary["domains"]["calc"]["crashed"] == []
    assert summary["group_manager"]["phase"] == "ready"
    assert summary["group_manager"]["connections"] == 1
    assert summary["group_manager"]["expelled"] == []
    assert summary["network"]["messages_sent"] > 0
    assert summary["network"]["multicast_addresses"] == 2  # gm + calc


def test_system_summary_reflects_expulsion():
    from repro.itdos.faults import LyingElement

    system = make_system(seed=301)
    system.add_server_domain(
        "calc",
        f=1,
        servants=lambda element: {b"calc": CalculatorServant()},
        byzantine={2: LyingElement},
    )
    client = system.add_client("alice")
    client.stub(system.ref("calc", b"calc")).add(1.0, 1.0)
    system.settle(3.0)
    summary = system.summary()
    assert summary["group_manager"]["expelled"] == ["calc-e2"]
    assert summary["group_manager"]["keys_issued"] >= 2
