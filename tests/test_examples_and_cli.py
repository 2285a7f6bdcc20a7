"""Smoke tests: every example script and CLI demo runs to completion."""

import io
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES = sorted(
    p for p in (Path(__file__).parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        runpy.run_path(str(script), run_name="__main__")
    output = buffer.getvalue()
    assert len(output) > 100  # produced a real report
    assert "Traceback" not in output


@pytest.mark.parametrize("demo", ["quickstart", "intrusion", "voting"])
def test_cli_demo_runs(demo):
    from repro.__main__ import main

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main([demo])
    assert code == 0
    assert demo in buffer.getvalue()


def test_cli_unknown_demo():
    from repro.__main__ import main

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["nonsense"])
    assert code == 2


def test_cli_default_demo():
    from repro.__main__ import main

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert main([]) == 0
    assert "quickstart" in buffer.getvalue()


def test_example_outputs_are_deterministic():
    """Seeded simulation: the quickstart prints identical output twice."""

    def run():
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            runpy.run_path(str(EXAMPLES[0]), run_name="__main__")
        return buffer.getvalue()

    assert run() == run()


def test_cli_bench_command_is_gone():
    """`bench marshal` compared two coders; there is one now."""
    from repro.__main__ import main

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert main(["bench", "marshal"]) == 2
    assert "unknown" in buffer.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["chaos", "--seeds", "0"],  # used to run 0 cells and exit 0
        ["chaos", "--seeds", "-1"],
        ["chaos", "--intensity", "-3"],
        ["detect", "--intensity", "-0.5"],
        ["detect", "--requests", "0"],
        ["net", "smoke", "--requests", "0"],
        ["net", "bench", "--requests", "-4"],
    ],
    ids=" ".join,
)
def test_cli_rejects_out_of_range_values(argv, capsys):
    from repro.__main__ import main

    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err and "must be at least" in captured.err
    assert captured.out == ""  # nothing ran
