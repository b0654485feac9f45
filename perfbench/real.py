"""The two real-fleet workloads: ``real_control`` and ``real_lifecycle``.

Both stand up a 3-host fleet of serve processes on loopback and drive
it with one closed-loop client (one request in flight at a time).

``real_control`` keeps one tool on one persistent tool stream and
loops over ``session_info``, remote ``locate`` and remote ``stop`` /
``cont`` of sleepers created during set-up: the request path with no
dialling and no process creation.

``real_lifecycle`` repeats the paper's tool pattern: a fresh tool for
one of a few users (pmd bootstrap plus tool stream), a cross-host
``create`` of a native ``sleep``, a ``snapshot`` gather and a ``kill``.
Exited records are kept by the LPM, so snapshot cost grows with the
user's history; each round therefore uses fresh user names and a fixed
number of iterations, which keeps rounds equal however many run.

Hermetic: ``REPRO_*`` variables never reach the serve processes, the
registry lives in the run's own directory, every created pid is
tracked here, and :meth:`Fleet.close` fails the run when a serve
process, a created process or a registry file outlives the fleet.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time
from typing import List, Optional

from repro import ControlAction, GlobalPid, PPMClient, PPMError
from repro.realnet.registry import HostRegistry
from repro.realnet.session import HostFleet, RealSession, launch_hosts

from common import (Ledger, Rounds, now, pid_alive, proc_cpu_s,
                    proc_hwm_kb)

HOSTS = ("a", "b", "c")
HOME = "a"
CONTROL_USER = "ctl"
#: Native argv of every created process: the PPM is timed, not the
#: start-up of an interpreter.  It outlives any run; teardown kills it.
SLEEPER = ["sleep", "900"]
SLEEPERS = 6
CONTROL_ROUND_OPS = 48
LIFECYCLE_USERS = 3
LIFECYCLE_ITERATIONS = 6
_HERE = os.path.dirname(os.path.abspath(__file__))


class Fleet:
    """One live fleet plus the bookkeeping that makes it hermetic."""

    def __init__(self, run_dir: str, index: int, traced: bool,
                 budget_s: float) -> None:
        self.registry_path = os.path.join(run_dir, "registry-%d.json"
                                          % index)
        self.trace_outs: List[str] = []
        if traced:
            self.fleet = self._launch_traced(run_dir, index, budget_s)
        else:
            self.fleet = launch_hosts(HOSTS, self.registry_path,
                                      budget_s=budget_s)
        self.pids = [process.pid for process in self.fleet.processes]
        self.created: List[int] = []
        self.session = RealSession(self.registry_path, CONTROL_USER, HOME)

    def _launch_traced(self, run_dir: str, index: int,
                       budget_s: float) -> HostFleet:
        """Like :func:`launch_hosts`, through the probing launcher."""
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(sys.modules["repro"].__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        processes = []
        for host in HOSTS:
            out = os.path.join(run_dir, "serve-%d-%s.json" % (index, host))
            self.trace_outs.append(out)
            processes.append(subprocess.Popen(
                [sys.executable, os.path.join(_HERE, "serve_traced.py"),
                 "--host", host, "--registry", self.registry_path,
                 "--out", out, "--budget-s", str(budget_s)],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                env=env))
        fleet = HostFleet(self.registry_path, processes, list(HOSTS),
                          owns_registry=False)
        registry = HostRegistry(self.registry_path)
        deadline = time.monotonic() + 30.0
        while not all(host in registry.read() for host in HOSTS):
            if time.monotonic() > deadline or any(
                    process.poll() is not None for process in processes):
                fleet.shutdown()
                raise PPMError("traced serve processes did not publish")
            time.sleep(0.02)
        return fleet

    def track(self, gpid: GlobalPid) -> None:
        self.created.append(gpid.pid)

    def serve_cpu_s(self) -> float:
        return sum(proc_cpu_s(pid) for pid in self.pids)

    def peak_rss_kb(self) -> int:
        return max(proc_hwm_kb(pid) for pid in self.pids)

    def close(self) -> List[str]:
        """Tear the fleet down; return what outlived it (empty when
        clean).  Leftover processes are killed before returning."""
        leaks = []
        try:
            self.session.close()
        except Exception as exc:  # the fleet still has to go
            leaks.append("client session close failed: %s" % (exc,))
        stale = HostRegistry(self.registry_path)
        self.fleet.shutdown(grace_s=10.0)
        for process in self.fleet.processes:
            if process.poll() is None:
                leaks.append("serve pid %d outlived the fleet"
                             % process.pid)
                process.kill()
                process.wait()
        left = stale.read()
        if left:
            leaks.append("registry entries left behind: %s"
                         % sorted(left))
        stale.remove_files()
        for path in (self.registry_path, self.registry_path + ".lock"):
            if os.path.exists(path):
                leaks.append("registry file %s outlived the fleet" % path)
        for pid in self.created:
            if pid_alive(pid):
                leaks.append("created pid %d outlived the fleet" % pid)
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        return leaks


# ----------------------------------------------------------------------
# real_control
# ----------------------------------------------------------------------

class ControlTool:
    """One tool, one stream, a seeded walk over query and control ops."""

    def __init__(self, fleet: Fleet, seed: int) -> None:
        self.fleet = fleet
        self.rng = random.Random(seed)
        #: Expect a wrong answer on purpose (self-test of the checks).
        self.corrupt = False
        self.client = fleet.session.client.connect()
        self.sleepers: List[GlobalPid] = []
        for index in range(SLEEPERS):
            gpid = self.client.create_process(
                "sleeper%d" % index, host=HOSTS[1 + index % 2],
                program={"argv": SLEEPER})
            fleet.track(gpid)
            self.sleepers.append(gpid)
        self.stopped = [False] * SLEEPERS

    def op(self, ledger: Ledger) -> None:
        kind = self.rng.choice(("session_info", "locate", "control",
                                "control"))
        index = self.rng.randrange(SLEEPERS)
        gpid = self.sleepers[index]
        start = now()
        try:
            if kind == "session_info":
                reply = self.client.session_info()
                problem = "" if (reply.get("host") == HOME
                                 and reply.get("user") == CONTROL_USER
                                 and reply.get("siblings") == list(HOSTS[1:])
                                 ) else "session_info %r" % (reply,)
            elif kind == "locate":
                reply = self.client.locate(gpid)
                # A signalled sleeper shows as running until the kernel
                # schedules it to take the signal, which on a busy
                # machine can outlast the next op.
                want = ("stopped", "running") if self.stopped[index] \
                    else ("sleeping", "running")
                host = "nowhere" if self.corrupt else gpid.host
                problem = "" if (reply.get("found")
                                 and reply.get("host") == host
                                 and reply.get("state") in want
                                 ) else "locate %s (want %s on %s): %r" % (
                                     gpid, want, host, reply)
            else:
                stop = not self.stopped[index]
                action = ControlAction.STOP if stop \
                    else ControlAction.CONTINUE
                reply = self.client.control(gpid, action)
                # The reply reads /proc right after the signal: a
                # stopping sleeper may still show as running, a
                # continued one as running or sleeping.
                states = ("stopped", "running") if stop \
                    else ("sleeping", "running")
                problem = "" if (reply.get("action") == action.value
                                 and reply.get("pid") == gpid.pid
                                 and reply.get("state") in states
                                 ) else "%s %s: %r" % (action.value, gpid,
                                                       reply)
                self.stopped[index] = stop
        except PPMError as exc:
            problem = "%s raised %s" % (kind, exc)
        ledger.record(kind, (now() - start) * 1000.0, not problem, problem)

    def round(self, ledger: Ledger) -> None:
        for _ in range(CONTROL_ROUND_OPS):
            self.op(ledger)


# ----------------------------------------------------------------------
# real_lifecycle
# ----------------------------------------------------------------------

class LifecycleTools:
    """Fresh tools for rotating users: bootstrap, create, snapshot,
    kill; a closing snapshot per user checks the kills."""

    def __init__(self, fleet: Fleet, seed: int) -> None:
        self.fleet = fleet
        self.seed = seed
        self.corrupt = False
        self.rounds_run = 0

    def _tool(self, user: str, home: str, ledger: Ledger):
        start = now()
        try:
            client = PPMClient(self.fleet.session, user, home).connect()
        except PPMError as exc:
            ledger.record("bootstrap", (now() - start) * 1000.0, False,
                          "bootstrap %s@%s raised %s" % (user, home, exc))
            return None
        ledger.record("bootstrap", (now() - start) * 1000.0, True)
        return client

    def _timed(self, verb: str, ledger: Ledger, call, check) -> object:
        start = now()
        try:
            result = call()
        except PPMError as exc:
            ledger.record(verb, (now() - start) * 1000.0, False,
                          "%s raised %s" % (verb, exc))
            return None
        problem = check(result)
        ledger.record(verb, (now() - start) * 1000.0, not problem, problem)
        return result

    def _snapshot_check(self, live_want: set):
        def check(forest) -> str:
            live = {(str(gpid.host), gpid.pid) for gpid, record
                    in forest.records.items() if record.state != "exited"}
            return "" if live == live_want else \
                "snapshot live %r, want %r" % (sorted(live),
                                               sorted(live_want))
        return check

    def round(self, ledger: Ledger) -> None:
        rng = random.Random(self.seed * 1000 + self.rounds_run)
        users = ["r%d-u%d" % (self.rounds_run, index)
                 for index in range(LIFECYCLE_USERS)]
        self.rounds_run += 1
        homes = {user: HOSTS[index % len(HOSTS)]
                 for index, user in enumerate(users)}
        offsets = {user: rng.randrange(2) for user in users}
        for iteration in range(LIFECYCLE_ITERATIONS):
            for user in users:
                home = homes[user]
                others = [host for host in HOSTS if host != home]
                target = others[(iteration + offsets[user]) % 2]
                client = self._tool(user, home, ledger)
                if client is None:
                    continue
                self._iteration(client, user, target, ledger)
                client.close()
        for user in users:
            client = self._tool(user, homes[user], ledger)
            if client is not None:
                self._timed("snapshot", ledger,
                            lambda: client.snapshot(prune=False),
                            self._snapshot_check(set()))
                client.close()

    def _iteration(self, client, user: str, target: str,
                   ledger: Ledger) -> None:
        expect = "nowhere" if self.corrupt else target

        def created_check(gpid) -> str:
            return "" if gpid.host == expect and gpid.pid > 0 else \
                "create on %s gave %s" % (expect, gpid)

        gpid = self._timed(
            "create", ledger,
            lambda: client.create_process("job", host=target,
                                          program={"argv": SLEEPER}),
            created_check)
        if gpid is None:
            return
        self.fleet.track(gpid)
        self._timed("snapshot", ledger,
                    lambda: client.snapshot(prune=False),
                    self._snapshot_check({(gpid.host, gpid.pid)}))
        self._timed("kill", ledger, lambda: client.kill(gpid),
                    lambda reply: "" if (reply.get("action") == "kill"
                                         and reply.get("pid") == gpid.pid)
                    else "kill %s: %r" % (gpid, reply))


# ----------------------------------------------------------------------
# Driving a real workload
# ----------------------------------------------------------------------

def _setup(workload: str, run_dir: str, index: int, traced: bool,
           seed: int, budget_s: float, corrupt: bool):
    """Launch a fleet and warm it up; returns (fleet, load)."""
    fleet = Fleet(run_dir, index, traced, budget_s)
    try:
        warm = Ledger()
        if workload == "real_control":
            load = ControlTool(fleet, seed)
            for _ in range(16):
                load.op(warm)
        else:
            load = LifecycleTools(fleet, seed)
            for user in ("warm0", "warm1"):
                client = load._tool(user, HOME, warm)
                if client is not None:
                    load._iteration(client, user, HOSTS[1], warm)
                    client.close()
        load.corrupt = corrupt
    except BaseException:
        fleet.close()
        raise
    if warm.failed:
        fleet.close()
        raise PPMError("warm-up failed: %s" % (warm.problems,))
    return fleet, load


def run_real(workload: str, seed: int, seconds: float, run_dir: str,
             setups: int = 3, traced: bool = False,
             corrupt: bool = False) -> dict:
    """Set up ``setups`` times (timing each; all but the last fleet are
    torn down), then run rounds for ``seconds`` on the last fleet."""
    ledger = Ledger()
    rounds = Rounds(seconds)
    leaks: List[str] = []
    budget_s = setups * 30.0 + seconds + 60.0
    fleet: Optional[Fleet] = None
    try:
        for index in range(setups):
            start = now()
            fleet, load = _setup(workload, run_dir, index,
                                   traced, seed, budget_s, corrupt)
            rounds.setup_s.append(now() - start)
            if index < setups - 1:
                leaks += fleet.close()
                fleet = None
        probes = None
        if traced:
            from layers import LayerTracer, install_real_probes
            tracer = LayerTracer()
            probes = install_real_probes(tracer, client=True)
        serve0, client0 = fleet.serve_cpu_s(), time.process_time()
        start = now()
        while rounds.more():
            round_start, ops_before = now(), ledger.attempted
            load.round(ledger)
            rounds.add(now() - round_start, ledger.latencies_ms[ops_before:])
        wall_s = now() - start
        serve_cpu = fleet.serve_cpu_s() - serve0
        client_cpu = time.process_time() - client0
        if traced:
            tracer.uninstall()
        peak = fleet.peak_rss_kb()
    finally:
        if fleet is not None:
            leaks += fleet.close()
    for leak in leaks:
        ledger.fail("teardown", leak)
    result = {"ledger": ledger, "rounds": rounds,
              "cpu_s": serve_cpu + client_cpu, "serve_cpu_s": serve_cpu,
              "client_cpu_s": client_cpu, "peak_rss_kb": peak,
              "wall_s": wall_s, "info": {}}
    if traced:
        result["client_trace"] = (tracer, probes)
        result["serve_trace_files"] = fleet.trace_outs
    return result
