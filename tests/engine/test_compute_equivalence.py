"""The scalar geometry path is the only compute path, and it needs no NumPy.

The join algorithms run on pure-Python geometry; the brute-force oracle
(:mod:`repro.join.baseline`) is the reference.  ``test_storage_equivalence.py``
pins pairs and ``JoinStats`` across backends and executors; what stays here
is what it does not check:

* the Voronoi and filter *work* counters (``CellComputationStats``,
  ``FilterStats``) on every backend and on the sharded executor, next to
  oracle agreement of each NM/PM/FM run;
* the NM-CIJ ablations (no REUSE buffer, no Lemma-3 pruning) on the serial
  and the sharded executor, which must still produce exactly the oracle's
  pairs;
* the removed compute tier stays removed: no ``compute=`` option, no
  ``$REPRO_COMPUTE`` switch, and importing the package and its entry points
  never loads NumPy;
* a node or page-server interpreter imports only what it runs (a page
  server no join code, a node no process pool), and a join still runs
  after a bare ``import repro``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.datasets.synthetic import uniform_points
from repro.engine.config import EngineConfig
from repro.experiments.drivers.common import run_cij
from repro.join.result import CIJResult
from repro.storage.backends import STORAGE_BACKENDS

POINTS_P = uniform_points(240, seed=3)
POINTS_Q = uniform_points(210, seed=11)


def work_fingerprint(result: CIJResult) -> dict:
    """The Voronoi and filter work counters (all deterministic)."""
    fingerprint = dict(vars(result.cell_stats))
    if result.filter_stats is not None:
        fingerprint.update(
            {f"filter_{k}": v for k, v in vars(result.filter_stats).items()}
        )
    return fingerprint


@pytest.fixture(scope="module")
def oracle_pairs():
    return set(run_cij("brute", POINTS_P, POINTS_Q, storage="memory").pairs)


@pytest.fixture(scope="module")
def memory_runs():
    """Serial in-memory run per algorithm, computed once per module."""
    cache = {}

    def get(algorithm: str) -> CIJResult:
        if algorithm not in cache:
            cache[algorithm] = run_cij(
                algorithm, POINTS_P, POINTS_Q, storage="memory"
            )
        return cache[algorithm]

    return get


class TestScalarMatchesOracle:
    @pytest.mark.parametrize("algorithm", ["nm", "pm", "fm"])
    @pytest.mark.parametrize("backend", list(STORAGE_BACKENDS))
    def test_serial_runs_match_oracle_on_every_backend(
        self, oracle_pairs, memory_runs, backend, algorithm
    ):
        result = run_cij(algorithm, POINTS_P, POINTS_Q, storage=backend)
        assert set(result.pairs) == oracle_pairs
        assert work_fingerprint(result) == work_fingerprint(memory_runs(algorithm))

    @pytest.mark.parametrize("algorithm", ["nm", "pm", "fm"])
    def test_sharded_runs_match_oracle(self, oracle_pairs, memory_runs, algorithm):
        """Forked units match the oracle.  PM and FM repeat the serial
        run's cell and filter work exactly; NM's forked units run the same
        ConditionalFilter but do not chain the REUSE buffer, so they
        recompute P-cells."""
        result = run_cij(
            algorithm,
            POINTS_P,
            POINTS_Q,
            storage="memory",
            executor="sharded",
            workers=3,
        )
        assert set(result.pairs) == oracle_pairs
        serial = memory_runs(algorithm)
        if algorithm == "nm":
            assert vars(result.filter_stats) == vars(serial.filter_stats)
            assert result.cell_stats.refinements > serial.cell_stats.refinements
        else:
            assert work_fingerprint(result) == work_fingerprint(serial)


class TestAblationsMatchOracle:
    @pytest.mark.parametrize(
        "ablation",
        [{"reuse_cells": False}, {"use_phi_pruning": False}],
        ids=["no-reuse", "no-phi"],
    )
    @pytest.mark.parametrize(
        "execution",
        [{}, {"executor": "sharded", "workers": 3}],
        ids=["serial", "sharded"],
    )
    def test_nm_ablation_matches_brute_oracle(
        self, oracle_pairs, ablation, execution
    ):
        result = run_cij("nm", POINTS_P, POINTS_Q, **ablation, **execution)
        assert set(result.pairs) == oracle_pairs
        reference = run_cij("nm", POINTS_P, POINTS_Q, **execution)
        assert result.pairs == reference.pairs


class TestComputeTierRemoved:
    def test_engine_config_has_no_compute_field(self):
        with pytest.raises(TypeError):
            EngineConfig(compute="scalar")

    def test_common_influence_join_has_no_compute_option(self):
        with pytest.raises(TypeError):
            repro.common_influence_join(
                POINTS_P[:20], POINTS_Q[:20], compute="scalar"
            )

    def test_repro_compute_variable_is_ignored(self, monkeypatch, memory_runs):
        """A value the old switch rejected loudly now changes nothing."""
        monkeypatch.setenv("REPRO_COMPUTE", "kernel-or-bogus")
        result = run_cij("nm", POINTS_P, POINTS_Q, storage="memory")
        reference = memory_runs("nm")
        assert result.pairs == reference.pairs
        assert work_fingerprint(result) == work_fingerprint(reference)


def _run_fresh(code, *flags):
    """Run ``code`` in a new interpreter with ``src/`` on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr


def test_entry_points_do_not_import_numpy():
    _run_fresh(
        "import sys\n"
        "import repro, repro.engine, repro.cli, repro.service\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
        "assert not loaded, loaded[:5]\n"
    )


#: Modules a node or page server never runs: the service client (asyncio)
#: and server, workload generation, incremental maintenance, the CLI and
#: the experiment drivers.
NOT_IN_A_SPAWNED_CHILD = (
    "asyncio",
    "repro.service.server",
    "repro.service.client",
    "repro.datasets",
    "repro.dynamic",
    "repro.cli",
    "repro.experiments",
)


@pytest.mark.parametrize("entry", ["repro.engine.node", "repro.storage.pageserver"])
def test_spawned_entry_points_import_only_what_they_run(entry):
    """The interpreter a node or page server starts in (``python -S``).
    A package is loaded whenever one of its submodules is."""
    _run_fresh(
        "import sys\n"
        f"import {entry}\n"
        f"unwanted = {NOT_IN_A_SPAWNED_CHILD!r}\n"
        "loaded = sorted(set(unwanted) & set(sys.modules))\n"
        "assert not loaded, loaded\n",
        "-S",
    )


def test_page_server_loads_no_join_code():
    """A page server stores and serves pages; it never runs a join."""
    _run_fresh(
        "import sys\n"
        "import repro.storage.pageserver\n"
        "join_code = ('repro.engine', 'repro.join', 'repro.voronoi', 'repro.index')\n"
        "loaded = sorted(set(join_code) & set(sys.modules))\n"
        "assert not loaded, loaded\n",
        "-S",
    )


def test_node_loads_no_process_pool():
    """A node runs units itself; only the sharded executor's fork pool
    needs ``multiprocessing`` and ``concurrent.futures``."""
    _run_fresh(
        "import sys\n"
        "import repro.engine.node\n"
        "pools = ('multiprocessing', 'concurrent.futures')\n"
        "loaded = sorted(set(pools) & set(sys.modules))\n"
        "assert not loaded, loaded\n",
        "-S",
    )


def test_common_influence_join_runs_after_a_bare_import():
    _run_fresh(
        "import sys\n"
        "import repro\n"
        "assert 'repro.datasets' not in sys.modules\n"
        "p = [repro.Point(1000.0 * i + 500.0, 3000.0 + 700.0 * (i % 3)) for i in range(8)]\n"
        "q = [repro.Point(800.0 * i + 300.0, 6000.0 - 500.0 * (i % 4)) for i in range(9)]\n"
        "pairs = set(repro.common_influence_join(p, q).pairs)\n"
        "assert pairs == set(repro.common_influence_join(p, q, method='brute').pairs)\n"
        "assert len(pairs) == 29, len(pairs)\n"
    )
