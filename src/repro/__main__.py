"""Command line: ``python -m repro [command]`` (default ``quickstart``).

The demos run the example scenarios without needing the examples/
directory, so an installed package can demonstrate itself; the other
commands trace, measure, fuzz, audit and deploy the same system.
"""

from __future__ import annotations

import argparse
import sys


def demo_quickstart() -> None:
    """Singleton client, replicated heterogeneous calculator."""
    from repro.workloads.scenarios import build_calc_system

    system = build_calc_system(f=1, seed=42)
    client = system.add_client("demo-client")
    stub = client.stub(system.ref("calc", b"calc"))
    print("replicated add(2, 3)   =", stub.add(2.0, 3.0))
    print("replicated mean([...]) =", stub.mean([1.0, 2.0, 3.0, 4.0]))
    print("invocations ordered by PBFT across",
          system.directory.domain("calc").n, "heterogeneous elements;")
    print("messages on the wire   =", system.network.stats.messages_sent)


def demo_intrusion() -> None:
    """Mask, detect, and expel a compromised replica."""
    from repro.chaos.byzantine import LyingElement
    from repro.itdos.bootstrap import ItdosSystem
    from repro.workloads.scenarios import CalculatorServant, standard_repository

    system = ItdosSystem(seed=5, repository=standard_repository())
    system.add_server_domain(
        "calc", f=1,
        servants=lambda element: {b"calc": CalculatorServant()},
        byzantine={"calc-e2": LyingElement},
    )
    client = system.add_client("demo-client")
    stub = client.stub(system.ref("calc", b"calc"))
    print("compromised element calc-e2 corrupts every reply it sends")
    print("add(2, 3) =", stub.add(2.0, 3.0), " <- still correct (voted)")
    system.settle(3.0)
    expelled = sorted(system.gm_elements[0].state.expelled)
    print("Group Manager expelled:", expelled)
    print("service after expulsion: add(10, 20) =", stub.add(10.0, 20.0))


def demo_voting() -> None:
    """Show why byte-by-byte voting fails under heterogeneity."""
    from repro.baselines.byte_voter import byte_majority_vote
    from repro.giop.messages import encode_reply
    from repro.giop.platforms import assign_heterogeneous
    from repro.workloads.scenarios import standard_repository

    repo = standard_repository()
    value = 1.0 / 3.0 * 1e6
    ballots = []
    for index, platform in enumerate(assign_heterogeneous(4)):
        wire = encode_reply(
            repo, "Calculator", "add", request_id=1,
            result=platform.perturb_float(value),
            byte_order=platform.byte_order,
        )
        ballots.append((f"e{index}", wire))
        print(f"  e{index} ({platform.name:20s}): ...{wire[-8:].hex()}")
    decision = byte_majority_vote(ballots, 2)
    print("byte-level f+1 agreement:", decision.decided,
          " (ITDOS votes unmarshalled values instead)")


def _traced_calc_invocation():
    """A calc system with telemetry on, after one traced ``add(2, 3)``."""
    from repro.workloads.scenarios import build_calc_system

    system = build_calc_system(f=1, seed=42, telemetry=True)
    client = system.add_client("demo-client")
    stub = client.stub(system.ref("calc", b"calc"))
    result = stub.add(2.0, 3.0)
    return system, result


def _traced_intrusion_drill():
    """A calc system with a lying replica, run until the GM expels it."""
    from repro.chaos.byzantine import LyingElement
    from repro.itdos.bootstrap import ItdosSystem
    from repro.workloads.scenarios import CalculatorServant, standard_repository

    system = ItdosSystem(seed=5, repository=standard_repository(), telemetry=True)
    system.add_server_domain(
        "calc", f=1,
        servants=lambda element: {b"calc": CalculatorServant()},
        byzantine={"calc-e2": LyingElement},
    )
    client = system.add_client("demo-client")
    stub = client.stub(system.ref("calc", b"calc"))
    result = stub.add(2.0, 3.0)
    system.settle(3.0)
    return system, result


def _recovery_drill():
    """Queue-mode calc domain: detect → expel → repair → readmit → recover.

    Returns ``(system, liar, recovered, result)`` where ``recovered`` is
    the recovery outcome and ``result`` a post-recovery voted invocation.
    """
    from repro.chaos.byzantine import LyingElement, repair
    from repro.itdos.bootstrap import ItdosSystem
    from repro.workloads.scenarios import CalculatorServant, standard_repository

    system = ItdosSystem(seed=7, repository=standard_repository(), telemetry=True)
    system.add_server_domain(
        "calc", f=1,
        servants=lambda element: {b"calc": CalculatorServant()},
        byzantine={"calc-e2": LyingElement},
    )
    client = system.add_client("demo-client")
    stub = client.stub(system.ref("calc", b"calc"))
    stub.add(2.0, 3.0)
    system.settle(3.0)  # voter detection, change_request, expulsion
    liar = system.elements["calc-e2"]
    repair(liar)
    for i in range(4):  # traffic the expelled element misses
        stub.add(float(i), 1.0)
    done: list[bool] = []
    liar.recover_membership(on_complete=done.append)
    system.run_until(lambda: bool(done))
    result = stub.add(10.0, 20.0)
    system.settle(1.0)
    return system, liar, done[0], result


def _trace_from_node(directory: str, json_path: str | None) -> int:
    """Offline mode: fold per-process span exports left by ``repro serve``."""
    from repro.obs import (
        fold_node_records,
        read_node_records,
        tracer_from_records,
        write_jsonl,
    )

    try:
        by_node = read_node_records(directory)
    except OSError as exc:
        print(f"trace: cannot read {directory}: {exc}")
        return 1
    if not by_node:
        print(f"trace: no *.telemetry.jsonl files in {directory} "
              "(run the cluster with telemetry enabled)")
        return 1
    for node in sorted(by_node):
        tracer = tracer_from_records(by_node[node])
        ids = tracer.trace_ids()
        print(f"== {node}: {len(tracer)} spans in {len(ids)} traces ==")
        for trace_id in ids:
            print(tracer.render(trace_id))
            print()
    if json_path is not None:
        try:
            lines = write_jsonl(json_path, fold_node_records(by_node))
        except OSError as exc:
            print(f"trace: cannot write {json_path}: {exc}")
            return 1
        print(f"wrote {lines} node-tagged records to {json_path}")
    return 0


def _metrics_from_node(directory: str, json_path: str | None) -> int:
    """Offline mode: one combined metrics table across all cluster nodes."""
    from repro.obs import (
        aggregate_by_shard,
        fold_metric_records,
        fold_node_records,
        read_node_records,
        render_metrics_table,
        write_jsonl,
    )

    try:
        by_node = read_node_records(directory)
    except OSError as exc:
        print(f"metrics: cannot read {directory}: {exc}")
        return 1
    if not by_node:
        print(f"metrics: no *.telemetry.jsonl files in {directory} "
              "(run the cluster with telemetry enabled)")
        return 1
    print(f"{len(by_node)} nodes: {', '.join(sorted(by_node))}")
    print()
    print(render_metrics_table(fold_metric_records(by_node)))
    # Sharded topologies stamp a `shard` label on every node's metrics;
    # the aggregate view sums each shard's traffic and the cluster total.
    shards = {
        (record.get("labels") or {}).get("shard")
        for records in by_node.values()
        for record in records
        if record.get("record") == "metric"
    }
    if shards - {None}:
        print()
        print("== per-shard / cluster aggregates ==")
        print(render_metrics_table(aggregate_by_shard(by_node)))
    if json_path is not None:
        try:
            lines = write_jsonl(json_path, fold_node_records(by_node))
        except OSError as exc:
            print(f"metrics: cannot write {json_path}: {exc}")
            return 1
        print(f"\nwrote {lines} node-tagged records to {json_path}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run a traced invocation and print its span tree."""
    from repro.obs import span_records, write_jsonl

    json_path = args.json
    if args.from_node is not None:
        if args.scenario is not None:
            print(f"trace: unexpected argument {args.scenario!r} with --from-node")
            return 2
        return _trace_from_node(args.from_node, json_path)
    if args.scenario == "recovery":
        system, _liar, _recovered, result = _recovery_drill()
        print(f"post-recovery add(10, 20) = {result}")
        only = "recovery."
    else:
        system, result = _traced_calc_invocation()
        print(f"traced add(2, 3) = {result}")
        only = None
    tracer = system.telemetry.tracer
    for trace_id in tracer.trace_ids():
        rendered = tracer.render(trace_id)
        if only is not None and only not in rendered:
            continue
        print()
        print(rendered)
    if json_path is not None:
        try:
            lines = write_jsonl(json_path, span_records(tracer))
        except OSError as exc:
            print(f"trace: cannot write {json_path}: {exc}")
            return 1
        print(f"\nwrote {lines} span records to {json_path}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Run the intrusion drill and print metrics + the health board."""
    from repro.obs import render_metrics_table, telemetry_records, write_jsonl

    json_path = args.json
    if args.from_node is not None:
        return _metrics_from_node(args.from_node, json_path)
    system, result = _traced_intrusion_drill()
    t = system.telemetry
    print(f"voted add(2, 3) = {result}  (calc-e2 lies in every reply)")
    print()
    print(render_metrics_table(t.registry))
    print()
    print(t.health.render())
    if json_path is not None:
        try:
            lines = write_jsonl(json_path, telemetry_records(t))
        except OSError as exc:
            print(f"metrics: cannot write {json_path}: {exc}")
            return 1
        print(f"\nwrote {lines} telemetry records to {json_path}")
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    """Run the detect → expel → repair → readmit → state-transfer drill."""
    from repro.obs import telemetry_records, write_jsonl

    json_path = args.json
    system, liar, recovered, result = _recovery_drill()
    t = system.telemetry
    gm = system.gm_elements[0]
    print(f"expelled then readmitted: {list(gm.readmissions)}")
    print(f"recovery outcome        : {'recovered' if recovered else 'gave up'} "
          f"(verdict {liar.recovery.last_verdict!r}, "
          f"{liar.recovery.transfers_completed} transfer(s), "
          f"{liar.recovery.bytes_transferred} bytes)")
    print(f"membership key epoch    : {gm.state.key_epoch}")
    print(f"post-recovery add(10,20): {result}  "
          f"<- {liar.pid} votes with the majority again")
    tracer = t.tracer
    for trace_id in tracer.trace_ids():
        rendered = tracer.render(trace_id)
        if "recovery." not in rendered:
            continue
        print()
        print(rendered)
    print()
    print(t.health.render())
    if json_path is not None:
        try:
            lines = write_jsonl(json_path, telemetry_records(t))
        except OSError as exc:
            print(f"recover: cannot write {json_path}: {exc}")
            return 1
        print(f"\nwrote {lines} telemetry records to {json_path}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Sweep the Byzantine schedule fuzzer and fail on any violation."""
    import json as _json

    from repro.chaos import ScheduleRunner, scenario_matrix

    json_path = args.json
    runner = ScheduleRunner(
        scenarios=scenario_matrix(full=args.full),
        seeds=(args.seed,) if args.seed is not None else tuple(range(args.seeds)),
        intensity=args.intensity,
        shrink=args.shrink,
        log=print,
    )
    sweep = runner.run()
    faults = sum(sum(r.faults_applied.values()) for r in sweep.results)
    print(
        f"chaos: {len(sweep.results)} cells, {faults} faults injected, "
        f"{len(sweep.failures)} violation(s)"
    )
    if sweep.shrunk is not None:
        print(f"chaos: shrunk first failure to {len(sweep.shrunk)} fault(s):")
        for event in sweep.shrunk:
            print(f"  #{event.index} t={event.time:.4f} {event.kind} "
                  f"{event.src}->{event.dst} {event.detail}")
    if json_path is not None:
        try:
            with open(json_path, "w", encoding="utf-8") as handle:
                _json.dump(sweep.to_dict(), handle, indent=2)
        except OSError as exc:
            print(f"chaos: cannot write {json_path}: {exc}")
            return 1
        print(f"chaos: wrote sweep report to {json_path}")
    return 0 if sweep.ok else 1


def cmd_detect(args: argparse.Namespace) -> int:
    """Run one chaos cell with the detector on; print truth vs verdict.

    Fully deterministic in (seed, intensity, requests): same arguments,
    same fault schedule, same evidence, same verdict. ``--benign`` strips
    every Byzantine fault (honest-under-stress control cell); the command
    fails if any honest element is accused.
    """
    import json as _json

    from repro.chaos import ScheduleRunner
    from repro.chaos.schedule import Scenario

    json_path = args.json
    runner = ScheduleRunner(
        scenarios=(Scenario(),),
        seeds=(args.seed,),
        requests=args.requests,
        intensity=args.intensity,
        telemetry=True,
        fault_kinds="benign" if args.benign else "all",
    )
    result = runner.run_one(Scenario(), args.seed)
    verdict = result.detection or {}
    t = runner.last_telemetry
    print(f"chaos cell {result.scenario.label} seed={args.seed} "
          f"intensity={args.intensity} "
          f"({'benign faults only' if args.benign else 'full fault mix'})")
    print(f"  faults applied : {result.faults_applied}")
    print(f"  true faulty    : {result.true_faulty or '(none)'}")
    print(f"  active faulty  : {verdict.get('active_faulty') or '(none)'}")
    print(f"  accused        : {verdict.get('accused') or '(none)'}")
    print(f"  suspected      : {verdict.get('suspected') or '(none)'}")
    false_accusations = verdict.get("false_accusations", [])
    for pid, first in sorted(verdict.get("time_to_detect", {}).items()):
        print(f"  detected {pid} at t={first * 1000:.3f}ms")
    if t is not None:
        print()
        print(t.health.render())
        print()
        print(t.audit.render())
    if json_path is not None:
        try:
            with open(json_path, "w", encoding="utf-8") as handle:
                _json.dump(result.to_dict(), handle, indent=2)
        except OSError as exc:
            print(f"detect: cannot write {json_path}: {exc}")
            return 1
        print(f"\ndetect: wrote cell report to {json_path}")
    if false_accusations:
        print(f"\ndetect: FALSE ACCUSATION of honest element(s): "
              f"{false_accusations}")
        return 1
    if not verdict.get("audit_chain_ok", True):
        print(f"\ndetect: audit chain broken: {verdict.get('audit_chain_error')}")
        return 1
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    """Verify an audit log's hash chain and evidence signatures.

    With ``--jsonl PATH`` the chain is re-verified offline from exported
    telemetry records (no key material needed). Without it, the intrusion
    drill runs live and the resulting log is checked end to end — chain
    digests plus every signed ballot against the system keyring.
    """
    import json as _json

    from repro.obs import telemetry_records, verify_chain, write_jsonl

    json_path, jsonl_path = args.json, args.jsonl
    if jsonl_path is not None:
        try:
            with open(jsonl_path, encoding="utf-8") as handle:
                records = [
                    _json.loads(line) for line in handle if line.strip()
                ]
        except (OSError, ValueError) as exc:
            print(f"audit: cannot read {jsonl_path}: {exc}")
            return 1
        entries = [r for r in records if r.get("record") == "audit_entry"]
        ok, error = verify_chain(entries)
        print(f"audit: {len(entries)} chained entr"
              f"{'y' if len(entries) == 1 else 'ies'} in {jsonl_path}")
        if ok:
            print("audit: hash chain VERIFIED")
            return 0
        print(f"audit: hash chain BROKEN — {error}")
        return 1

    system, result = _traced_intrusion_drill()
    t = system.telemetry
    print(f"voted add(2, 3) = {result}  (calc-e2 lies in every reply)")
    print()
    print(t.audit.render())
    print()
    ok, error = t.audit.verify()
    if not ok:
        print(f"audit: hash chain BROKEN — {error}")
        return 1
    print(f"audit: hash chain VERIFIED ({len(t.audit)} entries, "
          f"head {t.audit.head[:16]}…)")
    bad = t.audit.verify_signatures(system.directory.keyring.verify)
    if bad:
        print(f"audit: evidence signatures FAILED at entries {bad}")
        return 1
    ballots = sum(
        len(entry.evidence.get("ballots", [])) for entry in t.audit.entries
    )
    print(f"audit: evidence signatures VERIFIED ({ballots} signed ballot(s) "
          "re-checked against the keyring)")
    if json_path is not None:
        try:
            lines = write_jsonl(json_path, telemetry_records(t))
        except OSError as exc:
            print(f"audit: cannot write {json_path}: {exc}")
            return 1
        print(f"audit: wrote {lines} telemetry records to {json_path}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Host one node of a real cluster (see :mod:`repro.net.node`)."""
    from repro.net.node import serve

    return serve(args.config, args.node, args.out, rejoin=args.rejoin)


def cmd_net(args: argparse.Namespace) -> int:
    """Real-wire cluster operations: ``net smoke`` and ``net bench``.

    ``net smoke``
        Launch the full loopback cluster (4 GM + 4 replicas + client) as
        OS processes, drive the echo workload to quorum commit, tear down.
        Exit 1 if any request fails — the CI PR gate. ``--shards N``
        deploys the sharded kv topology instead (one replication domain
        per shard, keys routed to their home shards — E20).

    ``net bench``
        The E18 comparison: the same workload on the sim backend and on
        the wire, with throughput and p50/p99 latency side by side.
    """
    import json as _json

    from repro.net.bench import run_comparison, run_wire_benchmark

    json_path, seed = args.json, args.seed
    requests = args.requests or (8 if args.mode == "smoke" else 40)
    if args.mode == "smoke":
        report = run_wire_benchmark(
            requests=requests, seed=seed, telemetry=True, shards=args.shards
        )
        ok = not report["errors"] and report["okay"] == report["requests"]
        print(f"net smoke: {report['processes']} processes, "
              f"{report['okay']}/{report['requests']} voted replies, "
              f"p50 {report['latency_p50'] * 1000:.1f}ms "
              f"p99 {report['latency_p99'] * 1000:.1f}ms, "
              f"{report['frames_sent']} frames on the wire")
        for error in report["errors"]:
            print(f"net smoke: FAILED: {error}")
        if report["server_exit_codes"]:
            print(f"net smoke: nonzero server exits: "
                  f"{report['server_exit_codes']}")
            ok = False
        payload: dict = report
    else:
        payload = run_comparison(requests=requests, seed=seed)
        sim, wire = payload["sim"], payload["wire"]
        print("E18 — sim vs real-wire backend "
              f"({requests} voted invocations, f=1):")
        print(f"  {'backend':8s} {'req/s':>10s} {'p50':>10s} {'p99':>10s}")
        print(f"  {'sim':8s} {sim['requests_per_second']:10.1f} "
              f"{sim['latency_p50'] * 1000:9.2f}ms "
              f"{sim['latency_p99'] * 1000:9.2f}ms   (latency in sim-time)")
        print(f"  {'wire':8s} {wire['requests_per_second']:10.1f} "
              f"{wire['latency_p50'] * 1000:9.2f}ms "
              f"{wire['latency_p99'] * 1000:9.2f}ms   "
              f"({wire['processes']} OS processes, loopback TCP)")
        ok = not wire["errors"] and wire["okay"] == wire["requests"]
        if not ok:
            print(f"net bench: wire run failed: {wire['errors']}")
    if json_path is not None:
        try:
            with open(json_path, "w", encoding="utf-8") as handle:
                _json.dump(payload, handle, indent=2, sort_keys=True)
        except OSError as exc:
            print(f"net: cannot write {json_path}: {exc}")
            return 1
        print(f"net: wrote report to {json_path}")
    return 0 if ok else 1


DEMOS = {
    "quickstart": demo_quickstart,
    "intrusion": demo_intrusion,
    "voting": demo_voting,
}


def cmd_demo(args: argparse.Namespace) -> int:
    print(f"=== repro demo: {args.command} ===")
    DEMOS[args.command]()
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _non_negative_float(text: str) -> float:
    value = float(text)
    if not value >= 0:  # NaN fails this too
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return value


def build_parser() -> tuple[argparse.ArgumentParser, set[str]]:
    """The one CLI parser, and the command names it knows."""
    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    commands = parser.add_subparsers(dest="command", metavar="command")

    json_out = argparse.ArgumentParser(add_help=False)
    json_out.add_argument("--json", metavar="PATH", help="also write a report file")
    from_node = argparse.ArgumentParser(add_help=False)
    from_node.add_argument(
        "--from-node", metavar="DIR",
        help="fold the *.telemetry.jsonl files a `serve` cluster left in DIR",
    )

    def command(name, run, *parents, into=commands, doc=None):
        doc = doc or run.__doc__
        sub = into.add_parser(
            name, parents=parents, help=doc.strip().splitlines()[0],
            description=doc, formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        sub.set_defaults(run=run)
        return sub

    for name, demo in DEMOS.items():
        command(name, cmd_demo, doc=demo.__doc__)

    trace = command("trace", cmd_trace, json_out, from_node)
    trace.add_argument("scenario", nargs="?", choices=("calc", "recovery"))
    command("metrics", cmd_metrics, json_out, from_node)
    command("recover", cmd_recover, json_out)

    chaos = command("chaos", cmd_chaos, json_out)
    chaos.add_argument("--smoke", dest="full", action="store_false", default=False,
                       help="the covering smoke slice (default)")
    chaos.add_argument("--full", dest="full", action="store_true",
                       help="the full scenario matrix")
    chaos.add_argument("--seed", type=int, metavar="N", help="run only seed N")
    chaos.add_argument("--seeds", type=_positive_int, default=2, metavar="K",
                       help="run seeds 0..K-1 (default 2)")
    chaos.add_argument("--intensity", type=_non_negative_float, default=1.0,
                       metavar="X")
    chaos.add_argument("--shrink", action="store_true",
                       help="minimise the first failing fault schedule")

    detect = command("detect", cmd_detect, json_out)
    detect.add_argument("--seed", type=int, default=0, metavar="N")
    detect.add_argument("--intensity", type=_non_negative_float, default=1.0,
                        metavar="X")
    detect.add_argument("--requests", type=_positive_int, default=6, metavar="K")
    detect.add_argument("--benign", action="store_true",
                        help="strip every Byzantine fault (control cell)")

    audit = command("audit", cmd_audit, json_out)
    audit.add_argument("action", choices=("verify",))
    audit.add_argument("--jsonl", metavar="PATH",
                       help="re-verify an exported chain offline")

    serve = command("serve", cmd_serve)
    serve.add_argument("--config", required=True, metavar="topology.toml")
    serve.add_argument("--node", required=True, metavar="PID")
    serve.add_argument("--out", default=".", metavar="DIR")
    serve.add_argument("--rejoin", action="store_true")

    net = command("net", cmd_net)
    modes = net.add_subparsers(dest="mode", required=True, metavar="{smoke,bench}")
    load = argparse.ArgumentParser(add_help=False)
    load.add_argument("--requests", type=_positive_int, metavar="N",
                      help="default: 8 for smoke, 40 for bench")
    load.add_argument("--seed", type=int, default=7, metavar="N")
    smoke = command("smoke", cmd_net, json_out, load, into=modes)
    smoke.add_argument("--shards", type=int, default=1, metavar="N")
    command("bench", cmd_net, json_out, load, into=modes)
    return parser, set(commands.choices)


def main(argv: list[str]) -> int:
    parser, known = build_parser()
    argv = argv or ["quickstart"]
    # argparse reports a mistyped command on stderr; keep the one-line
    # stdout answer that lists what is available.
    if not argv[0].startswith("-") and argv[0] not in known:
        print(f"unknown demo {argv[0]!r}; available: {', '.join(sorted(known))}")
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: usage error (2) or --help (0)
        return int(exc.code or 0)
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
