"""End-to-end tracing: one calc invocation yields one causal span tree,
and the LyingElement drill lands on the health board with the deciding
Group Manager span attached."""

import pytest

from repro.chaos.byzantine import LyingElement
from repro.itdos.bootstrap import ItdosSystem
from repro.obs import Tracer, span_records, read_jsonl, write_jsonl
from repro.workloads.scenarios import (
    CalculatorServant,
    build_calc_system,
    standard_repository,
)


class TestTracerUnit:
    def test_parenting_and_tree(self):
        tracer = Tracer(clock=lambda: 1.0)
        root = tracer.begin("root", pid="p")
        child = tracer.begin("child", parent=root.ctx, pid="p")
        tracer.end(child)
        tracer.end(root)
        (tree,) = tracer.tree(root.trace_id)
        span, children = tree
        assert span.name == "root"
        assert [c[0].name for c in children] == ["child"]

    def test_capacity_drops_are_counted(self):
        tracer = Tracer(clock=lambda: 0.0, capacity=2)
        assert tracer.begin("a") is not None
        assert tracer.begin("b") is not None
        assert tracer.begin("c") is None
        assert tracer.dropped == 1
        assert "dropped" in tracer.render(1)

    def test_render_contains_names_and_attrs(self):
        tracer = Tracer(clock=lambda: 0.0)
        span = tracer.begin("client.invoke", pid="alice", op="add")
        tracer.end(span)
        text = tracer.render(span.trace_id)
        assert "client.invoke" in text
        assert "alice" in text
        assert "op=add" in text


# Every stage the acceptance criterion names, in causal order.
EXPECTED_SPANS = (
    "client.invoke",
    "smiop.connect",
    "smiop.request",
    "bft.pre_prepare",
    "bft.prepare",
    "bft.commit",
    "bft.execute",
    "orb.dispatch",
    "smiop.reply",
    "vote.decide",
)


class TestEndToEndTrace:
    @pytest.fixture(scope="class")
    def traced_system(self):
        system = build_calc_system(f=1, seed=7, telemetry=True)
        client = system.add_client("alice")
        stub = client.stub(system.ref("calc", b"calc"))
        result = stub.add(2.0, 3.0)
        return system, result

    def test_invocation_still_correct(self, traced_system):
        _, result = traced_system
        assert result == pytest.approx(5.0)

    def test_single_trace_with_all_stages(self, traced_system):
        system, _ = traced_system
        tracer = system.telemetry.tracer
        trace_ids = tracer.trace_ids()
        assert len(trace_ids) == 1
        names = {s.name for s in tracer.spans_of(trace_ids[0])}
        for expected in EXPECTED_SPANS:
            assert expected in names, f"missing span {expected!r}"

    def test_tree_is_rooted_at_client_invoke(self, traced_system):
        system, _ = traced_system
        tracer = system.telemetry.tracer
        (trace_id,) = tracer.trace_ids()
        roots = tracer.roots(trace_id)
        assert [r.name for r in roots] == ["client.invoke"]
        # Every span hangs off the root: no orphans in the causal tree.
        by_id = {s.span_id: s for s in tracer.spans_of(trace_id)}
        for span in by_id.values():
            if span.parent_id is not None:
                assert span.parent_id in by_id

    def test_bft_phases_nest_under_the_request(self, traced_system):
        system, _ = traced_system
        tracer = system.telemetry.tracer
        (request,) = tracer.find(name="smiop.request")
        phase_parents = {
            s.parent_id for s in tracer.find(name="bft.prepare")
            if s.attrs.get("seq") == 1
        }
        assert request.span_id in phase_parents

    def test_render_and_jsonl_roundtrip(self, traced_system, tmp_path):
        system, _ = traced_system
        tracer = system.telemetry.tracer
        (trace_id,) = tracer.trace_ids()
        text = tracer.render(trace_id)
        assert "client.invoke" in text and "vote.decide" in text
        path = tmp_path / "spans.jsonl"
        count = write_jsonl(str(path), span_records(tracer))
        back = read_jsonl(str(path))
        assert len(back) == count == len(tracer.spans_of(trace_id))
        assert all(r["record"] == "span" for r in back)

    def test_disabled_by_default_records_nothing(self):
        system = build_calc_system(f=1, seed=7)
        client = system.add_client("bob")
        stub = client.stub(system.ref("calc", b"calc"))
        assert stub.add(2.0, 3.0) == pytest.approx(5.0)
        assert not system.telemetry.enabled
        assert system.telemetry.tracer is None
        assert system.telemetry.registry is None


class TestHealthDrill:
    @pytest.fixture(scope="class")
    def drilled_system(self):
        system = ItdosSystem(
            seed=5, repository=standard_repository(), telemetry=True
        )
        system.add_server_domain(
            "calc", f=1,
            servants=lambda element: {b"calc": CalculatorServant()},
            byzantine={"calc-e2": LyingElement},
        )
        client = system.add_client("alice")
        stub = client.stub(system.ref("calc", b"calc"))
        result = stub.add(2.0, 3.0)
        system.settle(3.0)
        return system, result

    def test_voting_masks_the_lie(self, drilled_system):
        _, result = drilled_system
        assert result == pytest.approx(5.0)

    def test_dissent_counter_rises_for_the_liar(self, drilled_system):
        system, _ = drilled_system
        health = system.telemetry.health
        assert health.element("calc-e2").dissents >= 1
        liar = system.telemetry.registry.get("voter_dissent_total")
        assert liar.labels(element="calc-e2").value >= 1

    def test_expulsion_event_names_the_deciding_gm_span(self, drilled_system):
        system, _ = drilled_system
        health = system.telemetry.health
        assert health.expelled() == ["calc-e2"]
        (event,) = health.events_of("expulsion")
        assert event.element == "calc-e2"
        assert event.span_id is not None
        deciding = system.telemetry.tracer.span(event.span_id)
        assert deciding is not None
        assert deciding.name == "gm.change"
        assert deciding.trace_id == event.trace_id

    def test_expulsion_counted_once_across_gm_replicas(self, drilled_system):
        system, _ = drilled_system
        assert system.telemetry.registry.get("gm_expulsions_total").value == 1

    def test_board_renders_the_story(self, drilled_system):
        system, _ = drilled_system
        text = system.telemetry.health.render()
        assert "calc-e2" in text
        assert "expelled" in text
        assert "expulsion" in text
