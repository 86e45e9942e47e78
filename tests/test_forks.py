"""The forked shares (mdp._forks) against the one-process run, on any
machine: the CPU count is forced through mdp._worker_count.

compare evaluates exactly in this process while a child simulates,
monte_carlo deals its policies and divergence_probe its caps out to one
process per CPU. Every CSV, trajectory and printed line must be the bytes
of the one-process run; errors keep their type, message and exit code;
and no child outlives a command, whether it succeeds or fails.
"""

import errno
import os
import threading
import time

import pytest

from aoisched import cli, mdp, policies as pol, sim
from aoisched.model import ConvergenceError

import test_kernel_assembly
from test_surface import CONFIG

ALL = ",".join(pol.POLICY_NAMES)
COMMANDS = {
    "compare": ["compare", "--policies", ALL],
    "simulate": ["simulate", "--policies", ALL, "--trace"],
    "probe": ["simulate", "--caps", "2,3,4"],
}


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def workers(monkeypatch, n):
    monkeypatch.setattr(mdp, "_worker_count", lambda: n)


def run(tmp_path, capsys, argv, name):
    """(exit code, stdout, stderr, {file: bytes}) of one command, written
    to a directory of its own."""
    config = tmp_path / "forks.yaml"
    config.write_text(CONFIG)
    out = tmp_path / name
    code = cli.main([argv[0], "--config", str(config), *argv[1:], "--out", str(out)])
    printed = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return code, printed.out, printed.err, files


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_output_is_the_one_process_bytes(tmp_path, monkeypatch, capsys, command):
    runs = []
    for n in (1, 2, 3):
        workers(monkeypatch, n)
        runs.append(run(tmp_path, capsys, COMMANDS[command], f"w{n}"))
    assert runs[0][0] == 0 and runs[0][3]
    if command == "simulate":
        assert len([f for f in runs[0][3] if f.startswith("trajectory_")]) == 8
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_string_sinks_under_two_workers(monkeypatch):
    # the tabulated policy runs in a child, which writes a temporary file
    # that is copied into its io.StringIO
    workers(monkeypatch, 2)
    test_kernel_assembly.test_sisp_policy_simulates_like_its_table()


class Failing(pol.MafPolicy):
    """MAF that sleeps `delay` seconds at slot 0 and raises at slot 3."""

    def __init__(self, name, delay=0.0):
        super().__init__(1)
        self.name, self.delay = name, delay

    def decide_array(self, actions, lanes, t, u):
        if t == 0:
            time.sleep(self.delay)
        if t == 3:
            raise ValueError(f"{self.name} fails at slot 3")
        return super().decide_array(actions, lanes, t, u)


def two_sensor_plan(policies):
    system = cli.load_config(str(test_kernel_assembly.CONFIGS / "twosensor.yaml")).system
    return sim.ExperimentPlan(system, policies, 20, 2, 0, 0)


def test_child_error_keeps_its_type_and_message(monkeypatch):
    workers(monkeypatch, 2)
    plan = two_sensor_plan([pol.MafPolicy(1), Failing("child")])
    with pytest.raises(ValueError, match="^child fails at slot 3$"):
        sim.monte_carlo(plan)


def test_parent_error_kills_the_running_child(monkeypatch):
    workers(monkeypatch, 2)
    plan = two_sensor_plan([Failing("parent"), Failing("child", delay=60.0)])
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="^parent fails at slot 3$"):
        sim.monte_carlo(plan)
    assert time.perf_counter() - t0 < 30.0


def test_dead_child_is_an_error(monkeypatch):
    workers(monkeypatch, 2)

    def share(k):
        if k:
            os._exit(3)
        return k

    with pytest.raises(RuntimeError, match="^forked share 1 died with exit code 3$"):
        with mdp._forks(2) as run_shares:
            run_shares(share)


def test_failed_fork_closes_its_pipe_and_reaps_the_first_child(monkeypatch):
    workers(monkeypatch, 3)
    forks, fork = [], os.fork

    def second_fails():
        forks.append(len(forks))
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, "fork refused")
        return fork()

    monkeypatch.setattr(os, "fork", second_fails)
    before = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError, match="fork refused"):
        with mdp._forks(3) as run_shares:
            run_shares(lambda k: k)
    assert forks == [0, 1]
    assert sorted(os.listdir("/proc/self/fd")) == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


real_mef = pol.MefPolicy.decide_array


def failing_mef(self, actions, lanes, t, u):
    # tabulation, in compare's exact phase, decides at t = 0 only
    if t:
        raise ValueError("mef refuses")
    return real_mef(self, actions, lanes, t, u)


@pytest.mark.parametrize(
    "argv, exact_fails, message",
    [
        (["simulate", "--policies", "maf,mef"], False, "error: mef refuses\n"),
        (["compare", "--policies", "maf,mef"], False, "error: mef refuses\n"),
        # both phases fail: the exact phase's error is reported
        (["compare", "--policies", "maf,mef"], True, "solver error: no chain\n"),
    ],
    ids=["simulate", "compare", "compare-exact-first"],
)
def test_cli_error_is_the_one_process_error(
    tmp_path, monkeypatch, capsys, argv, exact_fails, message
):
    monkeypatch.setattr(pol.MefPolicy, "decide_array", failing_mef)
    if exact_fails:

        def no_chain(p):
            raise ConvergenceError("no chain")

        monkeypatch.setattr(mdp, "stationary_distribution", no_chain)
    runs = []
    for n in (1, 2):
        workers(monkeypatch, n)
        runs.append(run(tmp_path, capsys, argv, f"w{n}"))
    assert runs[0][:3] == (1, "", message)
    assert runs[1] == runs[0]


def test_every_fork_has_one_thread(tmp_path, monkeypatch, capsys):
    # RVI backs up on two threads first, which must be joined by the fork
    monkeypatch.setattr(mdp, "TABLE_CHUNK", 8)
    workers(monkeypatch, 2)
    forks, fork = [], os.fork

    def checked():
        forks.append(threading.active_count())
        return fork()

    monkeypatch.setattr(os, "fork", checked)
    assert run(tmp_path, capsys, COMMANDS["compare"], "out")[0] == 0
    assert run(tmp_path, capsys, COMMANDS["simulate"], "sim")[0] == 0
    assert forks and all(count == 1 for count in forks), forks
