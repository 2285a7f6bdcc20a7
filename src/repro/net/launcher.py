"""Subprocess cluster launcher: boot a whole topology of real nodes.

Drives ``python -m repro serve`` once per node — the same entry point an
operator uses — so tests and benchmarks exercise the deployable artifact,
not a shortcut. The launcher writes the topology file, starts every server
node, waits for their ``.ready`` breadcrumbs (the cluster barrier), runs
clients to completion, and can kill and restart individual replicas to
exercise the crash → readmission path on real processes.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import fields

from repro.net.config import TopologyConfig


def _toml_value(value: object) -> str:
    """A float or a set of pids, as a TOML value."""
    if isinstance(value, frozenset):
        return "[" + ", ".join(f'"{pid}"' for pid in sorted(value)) + "]"
    return repr(value)


def write_topology(config: TopologyConfig, path: str) -> str:
    """Render a TopologyConfig back to the TOML every node will load."""
    clients = ", ".join(f'"{name}"' for name in config.clients)
    lines = [
        "[system]",
        f"seed = {config.seed}",
        f"f = {config.f}",
        f"f_gm = {config.f_gm}",
        f'domain = "{config.domain}"',
        f'workload = "{config.workload}"',
        f"clients = [{clients}]",
        f"readers = {config.readers}",
        f"read_fastpath = {'true' if config.read_fastpath else 'false'}",
        f"shards = {config.shards}",
        "",
        "[net]",
        f'host = "{config.host}"',
        f"base_port = {config.base_port}",
        f"telemetry = {'true' if config.telemetry else 'false'}",
        f"max_frame = {config.max_frame_bytes}",
        f"queue_limit = {config.queue_limit}",
        "",
        "[client]",
        f"requests = {config.requests}",
        f"read_fraction = {config.read_fraction}",
    ]
    if config.faults is not None:
        lines += ["", "[faults]"]
        lines += [
            f"{spec.name} = {_toml_value(getattr(config.faults, spec.name))}"
            for spec in fields(config.faults)
            if spec.name != "partitions"
        ]
        for window in config.faults.partitions:
            lines += [
                "",
                "[[faults.partitions]]",
                f"start = {window.start!r}",
                f"end = {window.end!r}",
                f"group_a = {_toml_value(window.group_a)}",
            ]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return path


class ClusterLauncher:
    """One real cluster: GM + replicas as subprocesses, clients on demand."""

    def __init__(
        self, config: TopologyConfig, work_dir: str, env: dict | None = None
    ) -> None:
        self.config = config
        self.work_dir = work_dir
        self.out_dir = os.path.join(work_dir, "nodes")
        os.makedirs(self.out_dir, exist_ok=True)
        self.topology_path = write_topology(
            config, os.path.join(work_dir, "topology.toml")
        )
        self.procs: dict[str, subprocess.Popen] = {}
        self.env = dict(env or os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath(src), self.env.get("PYTHONPATH")) if p
        )

    # -- process control -----------------------------------------------------

    def spawn(self, node_id: str, rejoin: bool = False) -> subprocess.Popen:
        if node_id in self.procs and self.procs[node_id].poll() is None:
            raise RuntimeError(f"node {node_id!r} is already running")
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--config",
            self.topology_path,
            "--node",
            node_id,
            "--out",
            self.out_dir,
        ]
        if rejoin:
            argv.append("--rejoin")
        log = open(  # noqa: SIM115 - handle lives as long as the process
            os.path.join(self.out_dir, f"{node_id}.log"), "ab"
        )
        proc = subprocess.Popen(
            argv, stdout=log, stderr=subprocess.STDOUT, env=self.env
        )
        proc._repro_log = log  # type: ignore[attr-defined]
        self.procs[node_id] = proc
        return proc

    def start_servers(self, ready_timeout: float = 60.0) -> None:
        """Boot GM + replica (+ read-tier) nodes; wait for ``.ready`` files."""
        server_ids = (
            *self.config.gm_ids,
            *self.config.element_ids,
            *self.config.read_only_ids,
        )
        for node_id in server_ids:
            self.spawn(node_id)
        self.wait_ready(server_ids, timeout=ready_timeout)

    def wait_ready(self, node_ids, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        pending = set(node_ids)
        while pending:
            for node_id in list(pending):
                if os.path.exists(
                    os.path.join(self.out_dir, f"{node_id}.ready")
                ):
                    pending.discard(node_id)
                    continue
                proc = self.procs.get(node_id)
                if proc is not None and proc.poll() is not None:
                    raise RuntimeError(
                        f"node {node_id!r} exited rc={proc.returncode} before "
                        f"ready; log: {self._tail(node_id)}"
                    )
            if pending and time.monotonic() > deadline:
                raise TimeoutError(
                    f"nodes never became ready: {sorted(pending)}"
                )
            if pending:
                time.sleep(0.05)

    def run_client(self, name: str | None = None, timeout: float = 120.0) -> dict:
        """Run one client node to completion; returns its result report."""
        node_id = name or self.config.clients[0]
        proc = self.spawn(node_id)
        try:
            rc = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise TimeoutError(
                f"client {node_id!r} timed out; log: {self._tail(node_id)}"
            ) from None
        result_path = os.path.join(self.out_dir, f"{node_id}.result.json")
        if not os.path.exists(result_path):
            raise RuntimeError(
                f"client {node_id!r} rc={rc} left no result; "
                f"log: {self._tail(node_id)}"
            )
        with open(result_path, encoding="utf-8") as handle:
            report = json.load(handle)
        report["exit_code"] = rc
        return report

    def kill(self, node_id: str) -> None:
        """SIGKILL — the crash fault, not a graceful stop."""
        proc = self.procs.get(node_id)
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        for marker in ("ready", "listening"):
            path = os.path.join(self.out_dir, f"{node_id}.{marker}")
            if os.path.exists(path):
                os.unlink(path)

    def restart(
        self, node_id: str, rejoin: bool = True, ready_timeout: float = 60.0
    ) -> subprocess.Popen:
        """Boot a fresh process for a killed node (the readmission path)."""
        proc = self.spawn(node_id, rejoin=rejoin)
        self.wait_ready([node_id], timeout=ready_timeout)
        return proc

    # -- teardown & forensics ------------------------------------------------

    def stats_of(self, node_id: str) -> dict | None:
        path = os.path.join(self.out_dir, f"{node_id}.stats.json")
        if not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    def _tail(self, node_id: str, lines: int = 12) -> str:
        path = os.path.join(self.out_dir, f"{node_id}.log")
        try:
            with open(path, encoding="utf-8", errors="replace") as handle:
                return " | ".join(handle.read().splitlines()[-lines:])
        except OSError:
            return "(no log)"

    def shutdown(self, timeout: float = 15.0) -> dict[str, int]:
        """SIGTERM every live node and collect exit codes."""
        codes: dict[str, int] = {}
        for node_id, proc in self.procs.items():
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for node_id, proc in self.procs.items():
            try:
                codes[node_id] = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                codes[node_id] = proc.wait()
            log = getattr(proc, "_repro_log", None)
            if log is not None:
                log.close()
        return codes

    def __enter__(self) -> "ClusterLauncher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
