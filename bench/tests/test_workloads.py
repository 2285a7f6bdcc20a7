"""Every workload end to end, briefly: the names BENCHMARK.json declares
come out, nothing fails, the simulator's counts repeat exactly, the layer
budget closes, and the controls hold. Takes about two minutes."""

import functools

import pytest

from bench import run
from bench.probes import LAYERS
from bench.workloads import WORKLOADS

SECONDS = 0.6
SPEC = run.load_spec()


@functools.lru_cache(maxsize=None)
def once(workload: str, seed: int, trace: bool, repeat: int = 0) -> dict:
    return run.run_once(SPEC, workload, seed, SECONDS, trace)


def values(result: dict) -> dict:
    return {name: metric["value"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_names_match_and_nothing_fails(workload):
    result = once(workload, 7, False)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 50
    assert all(value > 0 for value in values(result).values())


@pytest.mark.parametrize("workload", [w for w in WORKLOADS if w.startswith("sim_")])
def test_sim_counts_repeat_exactly_for_a_seed(workload):
    first, again = values(once(workload, 7, False)), values(once(workload, 7, False, repeat=1))
    assert first["msgs_per_req"] == again["msgs_per_req"]
    assert first["bytes_per_req"] == again["bytes_per_req"]


def test_another_seed_changes_counts_only_where_the_schedule_does():
    """sim_null's messages are fixed-size whatever the seed draws; the
    read mix reorders reads and writes, so its per-slice traffic moves."""
    assert (values(once("sim_null", 7, False))["msgs_per_req"]
            == values(once("sim_null", 11, False))["msgs_per_req"])
    mix_a, mix_b = values(once("sim_readmix", 7, False)), values(once("sim_readmix", 11, False))
    assert mix_a["msgs_per_req"] == pytest.approx(mix_b["msgs_per_req"], rel=0.05)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_layer_budget_closes_and_controls_hold(workload):
    result = once(workload, 7, True)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["correct"] and result["failed"] == 0
    v = values(result)
    budget = sum(v[f"{layer}.self_us"] for layer in LAYERS) + v["other.self_us"]
    assert budget == pytest.approx(result["detail"]["probed_req_us_norm"], rel=0.02)
    wire = workload.startswith("wire_")
    dark = [n for n in v if n.startswith("sim." if wire else "net.") and not n.startswith("net.launcher")]
    assert dark and all(v[name] == 0 for name in dark)
    lit = "net.tcp.self_us" if wire else "sim.self_us"
    assert v[lit] > 0
    if workload == "sim_batched":
        assert v["bft.batch_fill"] > 1
    else:
        assert v["bft.batch_fill"] == 1
    assert v["bft.view_changes"] == 0 and v["net.tcp.queue_drops"] == 0
    assert v["trace.overhead_ratio"] > 0 and v["baseline.plain_iiop.req_us"] > 0
    if workload == "sim_readmix":
        assert v["itdos.readtier.fastpath_hit_ratio"] > 0.5 and v["itdos.readtier.self_us"] > 0
    assert v["net.launcher.req_us"] > 0 and v["net.launcher.cluster_ready_s"] > 0


def test_byte_proportional_layers_weigh_twice_as_much_on_the_payload_workload():
    byte_layers = ("giop", "crypto.symmetric", "crypto.encoding", "crypto.digests")

    def share(workload: str) -> float:
        v = values(once(workload, 7, True))
        total = sum(v[f"{layer}.self_us"] for layer in LAYERS) + v["other.self_us"]
        return sum(v[f"{layer}.self_us"] for layer in byte_layers) / total

    assert share("sim_payload16k") >= 2 * share("sim_null")
