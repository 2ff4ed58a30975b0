"""Pinned end-to-end digests of serial NM, PM and FM joins.

Each case runs one serial join on the in-memory store (about 300 points per
side) and hashes four things separately: the pair list in report order, the
non-timing ``JoinStats`` fields, the ``FilterStats`` + ``CellComputationStats``
work counters, and the disk's page-access counters.  The expected digests
are literals, so any change to a clip, an intersection test, a Lemma test or
a traversal order that alters a single pair, counter or page access fails
here — a geometry rewrite that claims byte-identical output must keep them.

Regenerate (only for a change that is *meant* to alter results) with::

    PYTHONPATH=src python tests/join/test_pinned_digests.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields

import pytest

from repro.datasets import (
    DOMAIN,
    WorkloadConfig,
    build_workload,
    gaussian_points,
    uniform_points,
)
from repro.engine import default_engine
from repro.geometry.point import Point

_TIMING_FIELDS = {"mat_cpu_seconds", "join_cpu_seconds"}


def _grid(n: int, seed: int, step: float) -> list:
    """Uniform points snapped to an integer lattice: exact ties, colinear
    runs and co-circular sites everywhere (duplicates dropped, order kept)."""
    seen = {}
    for p in uniform_points(n, seed=seed):
        snapped = Point(float(round(p.x / step) * step), float(round(p.y / step) * step))
        seen.setdefault(snapped, None)
    return list(seen)


INPUTS = {
    "uniform": lambda: (uniform_points(300, seed=41), uniform_points(300, seed=42)),
    "gaussian": lambda: (
        gaussian_points(300, seed=43, spread_fraction=0.08),
        gaussian_points(300, seed=44, spread_fraction=0.08),
    ),
    "grid": lambda: (_grid(260, seed=45, step=500.0), _grid(260, seed=46, step=500.0)),
}


def _sha(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def join_digests(method: str, inputs: str) -> dict:
    points_p, points_q = INPUTS[inputs]()
    config = WorkloadConfig(seed=0, buffer_fraction=0.02, storage="memory")
    with build_workload(config, points_p=points_p, points_q=points_q) as workload:
        result = default_engine().run(
            method,
            workload.tree_p,
            workload.tree_q,
            domain=DOMAIN,
            storage="memory",
        )
        counters = workload.disk.counters
        io = {
            "reads": counters.reads,
            "writes": counters.writes,
            "logical_reads": counters.logical_reads,
            "buffer_hits": counters.buffer_hits,
            "by_tag": dict(counters.by_tag),
        }
    stats = {
        f.name: getattr(result.stats, f.name)
        for f in fields(result.stats)
        if f.name not in _TIMING_FIELDS
    }
    stats["progress"] = [
        [s.page_accesses, s.pairs_reported] for s in result.stats.progress
    ]
    work = {
        "filter": None if result.filter_stats is None else vars(result.filter_stats),
        "cells": vars(result.cell_stats),
    }
    return {
        "pairs": _sha([list(pair) for pair in result.pairs]),
        "join_stats": _sha(stats),
        "work": _sha(work),
        "io": _sha(io),
    }


# Computed on the commit before the flat-coordinate polygon core landed.
EXPECTED = {
    ('nm', 'uniform'): {
        'pairs': '7234bdc809f842522e952353943b65a0ad3a3e2c80cbdd2595dd139f38fd84a3',
        'join_stats': 'd5b59b72cbb490ab20be10e3984e0b619d85cd81f697879cdcd7171d83cb1841',
        'work': '6f4a0c321b46b20c6628924d659a072518704bb6d22ef787ea96e6166054b002',
        'io': '8630860a4e05fd286143cfba332a008d13b70ef9f704c2b915f997b17b8b622f',
    },
    ('nm', 'gaussian'): {
        'pairs': 'e469d349e57a6443c14d899898a352ceb52785c71b117b79ac29800ca7fc910e',
        'join_stats': 'bb2b745533296eaacd37de476f95970ba33af43f56bf9fe5d970a3177e1c52b4',
        'work': 'a4d31f188a00c58a58b1fc2b7efe5141418a6d65fe155f12ce700ae4e10a5ff9',
        'io': 'c2bb43be9b34da9714d4d66ab66acd44688383f3c49469f73f780d909784cdcd',
    },
    ('nm', 'grid'): {
        'pairs': '48a9a417606cad40cb9f307d2b8505f6023ebde0704dbf7ad5bbf5e0635670d7',
        'join_stats': '7923cdc34d86c89c631134803811fbf45b37a9ff2a667e4ba302daa3a58ce55e',
        'work': '9bcfd4743f990c5847f38d00638c520ce59414bbf32c14b65ff1f75da171cdfb',
        'io': '1522fa3f83f9a25d8b7b326a82ae9962217b57b484bd0adca235399179562a45',
    },
    ('pm', 'uniform'): {
        'pairs': '5e7adb5ff98ca526811c159b4c0b3f20c1d4914307a2e3221ec55efa41251153',
        'join_stats': 'a41b038e482dd5947df2645e960bf9fa96a774b539967fdc03d4b745c8c61b75',
        'work': '934992442b5e213de03ad71ca930955a517008a8cca30989e8fa1d614f2bd860',
        'io': '8fa1ff8be036e04739845a16e0991f554ca42bea2535377206eeb150b80f8ec0',
    },
    ('pm', 'gaussian'): {
        'pairs': 'ab8522ffa8e8a676c5bb94ce622f5a98feabd282e892edb98002a5065db7cd01',
        'join_stats': 'e5781ece4113321b32f298914205a47fd6c5cd95187ac02101b19f625da766bd',
        'work': 'd72f626da37dc8c8f7bfea7538360c3da6e155d5e9c18a1226368d64a72b0665',
        'io': '1e901df3a70f1354e62dd0d3c9feac0876afc72055c036d4f256920246b62a00',
    },
    ('pm', 'grid'): {
        'pairs': '6a76205cb5b5a4936df26631817de70281604cfc49f1d544a59e7bcd82c7290f',
        'join_stats': '741b8860f4d2629fe5193100c05bfd07adc0b79b68cbf67b96d66d305a66d6a5',
        'work': '4e80b5b1ca025448f577bcec852521b6de97336c84ab3fa67abdb656cdffa45d',
        'io': '0ec73198190a0af4508cd931f47efede923513959bb0990a319aa25e457fa328',
    },
    ('fm', 'uniform'): {
        'pairs': 'b62a6d9bb73bd668ca06afff0363fdbc59e0b8b8bf895a9211da487432791b6c',
        'join_stats': '92acbe4fef4569e398a8d397719a53bce37476dfae50838c15af06af05ccb1fc',
        'work': '934992442b5e213de03ad71ca930955a517008a8cca30989e8fa1d614f2bd860',
        'io': '9b6e8d200491f573e3094f093d91b23108096d6bbbf631e683b6d4a8ce991953',
    },
    ('fm', 'gaussian'): {
        'pairs': '364d5e6da1a6f9c89137422ac26c05c9e0b51a182d05bbda9b8ded63709ea833',
        'join_stats': 'f021a322f712a8ed25d255c9f4c6ea7eb7b30375d605839b616c9ea16447ef1c',
        'work': 'd72f626da37dc8c8f7bfea7538360c3da6e155d5e9c18a1226368d64a72b0665',
        'io': '062be29ed7c4925f75210f623a127f20a7431399234e1eceb6884f5acc8c75ea',
    },
    ('fm', 'grid'): {
        'pairs': '81bdab96b04d814bffe4dc66f3a6a6ddb31f08379f7fbfc258e5446bd5a1982a',
        'join_stats': '90d33825b7b575a56eb04bf5f14670ff1de12e887308b39798e7b8b09f670e5d',
        'work': '4e80b5b1ca025448f577bcec852521b6de97336c84ab3fa67abdb656cdffa45d',
        'io': '3d69e825732991a4c55ca7dd2f04583b0b94f1803828be88115eba25d1687bee',
    },
}


@pytest.mark.parametrize("case", sorted(EXPECTED), ids=lambda case: "-".join(case))
def test_serial_join_matches_pinned_digests(case):
    method, inputs = case
    assert join_digests(method, inputs) == EXPECTED[case]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print("EXPECTED = {")
    for method in ("nm", "pm", "fm"):
        for inputs in INPUTS:
            print(f"    ({method!r}, {inputs!r}): {{")
            for key, digest in join_digests(method, inputs).items():
                print(f"        {key!r}: {digest!r},")
            print("    },")
    print("}")
