"""A sharded run whose fork pool breaks fails at once instead of hanging.

The sharded executor maps its units over a ``ProcessPoolExecutor``.  A
worker that dies mid-unit, or whose initializer raises, breaks the pool:
the join raises ``BrokenProcessPool`` and the pool's processes are gone
when it returns.  A pool that replaces dead workers would instead wait
forever for the lost unit, so each scenario runs in its own interpreter
and process group, bounded at 60 s: a regression fails the test instead
of hanging the suite.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap

import repro

#: Shared by both scenarios: run a 2-worker sharded NM join, expect the
#: pool to break, and check that no pool process outlives the join.
SCENARIO = """
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

from repro.datasets.workload import WorkloadConfig, build_workload
from repro.engine import JoinEngine
from repro.engine import executors

PARENT = os.getpid()
{patch}
with build_workload(WorkloadConfig(n_p=200, n_q=200, seed=5)) as workload:
    try:
        JoinEngine().run(
            "nm", workload.tree_p, workload.tree_q, executor="sharded", workers=2
        )
    except BrokenProcessPool:
        pass
    else:
        raise SystemExit("the join returned although its pool broke")
assert not multiprocessing.active_children(), multiprocessing.active_children()
print("broke cleanly")
"""


def run_scenario(patch: str) -> subprocess.CompletedProcess:
    """Run ``SCENARIO`` with ``patch`` applied, killed after 60 s."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = SCENARIO.format(patch=textwrap.dedent(patch))
    child = subprocess.Popen(
        [sys.executable, "-c", code],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        # The whole group: forked pool workers would outlive their parent.
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise AssertionError("the sharded join hung after its pool broke")
    return subprocess.CompletedProcess(child.args, child.returncode, out, err)


def test_worker_exiting_mid_unit_breaks_the_pool():
    completed = run_scenario(
        """
        real_execute_shard = executors._execute_shard

        def exit_on_unit_one(algorithm, ctx, unit, index, carry=None):
            if index == 1 and os.getpid() != PARENT:
                os._exit(9)
            return real_execute_shard(algorithm, ctx, unit, index, carry)

        executors._execute_shard = exit_on_unit_one
        """
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "broke cleanly"


def test_failing_worker_initializer_breaks_the_pool():
    completed = run_scenario(
        """
        def failing_init(*args):
            raise OSError("injected initializer failure")

        executors._worker_init = failing_init
        """
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "broke cleanly"
