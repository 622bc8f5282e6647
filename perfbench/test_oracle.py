"""Tests of the benchmark's own parts: the oracle catches a flipped sign,
the frozen counts match a brute force, the input transforms keep the
answers, and the tracer sees calls made through directly imported names.

Run from the repository root:  python3 -m pytest -q perfbench/test_oracle.py
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import oracle as O  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402


def _one(workload, kind):
    return next(op for op in workload.cycle if op.kind == kind)


def _run_ops(ops):
    stats = run.Stats()
    run.run_cycle(ops, stats, hard_deadline=float("inf"))
    return stats


def _flip(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    out[1, 2] *= -1
    return out


@pytest.fixture(scope="module")
def hs():
    import hadsplit

    return hadsplit


def test_flipped_sign_in_a_matrix_is_a_failed_op(hs):
    wl = workloads.build("dense", 5, SRC, HERE / "out")
    good = _one(wl, "kron_square_small")

    def corrupted():
        inst = good.call()
        return dataclasses.replace(inst, h=hs.IntMatrix(_flip(O.as_array(inst.h)).tolist()))

    bad = workloads.Op(good.kind, corrupted, good.check)
    stats = _run_ops([good, bad, good])
    assert (stats.attempted, stats.failed) == (3, 1)
    assert stats.failed / stats.attempted > 0
    assert "wrong result" in stats.errors[0]


def test_flipped_sign_in_a_survivor_is_a_failed_op():
    wl = workloads.build("search", 5, SRC, HERE / "out")
    good = _one(wl, "eigvec_lattice_6")

    def corrupted():
        res = good.call()
        first = list(res.survivors[0])
        first[3] = -first[3]
        return dataclasses.replace(res, survivors=(tuple(first),) + res.survivors[1:])

    stats = _run_ops([good, workloads.Op(good.kind, corrupted, good.check)])
    assert (stats.attempted, stats.failed) == (2, 1)


def test_flipped_sign_in_a_written_file_is_a_failed_op():
    wl = workloads.build("cli", 5, SRC, HERE / "out")
    try:
        good = _one(wl, "unbiased_256")

        def corrupted():
            res = good.call()
            path = Path(json.loads(res[1])["data"]["out"])
            workloads.write_matrix(_flip(workloads.read_matrix(path)), path)
            return res

        stats = _run_ops([good, workloads.Op(good.kind, corrupted, good.check)])
        assert (stats.attempted, stats.failed) == (2, 1)
    finally:
        wl.close()


def test_hang_guard_turns_a_stuck_op_into_a_failed_op(monkeypatch):
    import signal

    monkeypatch.setattr(run, "OP_LIMIT_S", 0.2)
    signal.signal(signal.SIGALRM, run._on_alarm)

    def stuck():
        while True:
            pass

    stats = _run_ops([workloads.Op("stuck", stuck, lambda r: None)])
    assert (stats.attempted, stats.failed) == (1, 1)
    assert stats.latencies == [0.2]
    assert "hang guard" in stats.errors[0]


def _brute_force_eigvec(adj: np.ndarray, ell: int, a: int, b: int) -> tuple[int, int]:
    """Survivors (up to global sign) and largest orthogonal set, by trying
    every +-1 vector."""
    v = adj.shape[0]
    gram = ell * np.eye(v) + (a - b) * adj + b * (np.ones((v, v)) - np.eye(v))
    signs = np.array(list(itertools.product((1, -1), repeat=v - 1)), dtype=np.float64)
    vecs = np.hstack([np.ones((len(signs), 1)), signs])
    keep = vecs[np.all(vecs @ gram == v * vecs, axis=1)]
    ortho = (keep @ keep.T) == 0
    best = max(
        size
        for size in range(1, len(keep) + 1)
        for subset in itertools.combinations(range(len(keep)), size)
        if all(ortho[i, j] for i, j in itertools.combinations(subset, 2))
    )
    return len(keep), best


@pytest.mark.parametrize("graph", ["lattice", "shrikhande"])
def test_frozen_eigvec_counts_match_brute_force(graph):
    adj = workloads.bundled_graph(SRC, {"lattice": "lattice-4x4"}.get(graph, graph))
    survivors, best, certifies = O.EIGVEC_EXPECTED[(graph, 6, 2, -2)]
    assert _brute_force_eigvec(adj, 6, 2, -2) == (survivors, best)
    assert certifies == (best < 6)


@pytest.mark.parametrize("ell", [5, 6])
def test_frozen_search_splits_match_brute_force(ell):
    h = workloads.sylvester_array(4).astype(np.float64)
    off = ~np.eye(16, dtype=bool)
    found = set()
    for rows in itertools.combinations(range(16), ell):
        vals = np.unique((h[list(rows)].T @ h[list(rows)])[off]).astype(int)
        if len(vals) == 2:
            found.add((16, ell, int(vals[1]), int(vals[0])))
    assert found == O.SEARCH_SPLITS_EXPECTED[ell]


def test_split_srg_formula_matches_known_block_graphs():
    assert O.split_srg((16, 6, 2, -2), ones_row=False) == (16, 6, 2, 2)
    assert O.split_srg((16, 9, 1, -3), ones_row=False) == (16, 9, 4, 6)
    assert O.split_srg((256, 16, 16, 0), ones_row=True) == (256, 15, 14, 0)
    assert O.split_srg((512, 508, 0, -4), ones_row=False) == (512, 384, 256, 384)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_signed_permutations_keep_the_twin_split(m):
    rng = np.random.default_rng(m)
    block, twin1, _ = workloads.twin_rows(m)
    want_block, want_twin = O.twin_params(m)
    arr, rows = workloads.signed_perm(workloads.sylvester_array(2 * m), rng, twin1)
    O.check_hadamard(arr, "permuted")
    O.check_split_rows(arr, rows, want_twin, "permuted twin")
    O.check_split_rows(workloads.sylvester_array(2 * m), block, want_block, "block")
    again, rows_again = workloads.signed_perm(
        workloads.sylvester_array(2 * m), np.random.default_rng(m), twin1
    )
    assert np.array_equal(arr, again) and rows == rows_again


def test_tracer_sees_calls_through_directly_imported_names(hs):
    import hadsplit.exactla
    import hadsplit.feasibility

    original = hadsplit.feasibility.rref
    tracer = Tracer()
    tracer.install()
    try:
        assert hadsplit.feasibility.rref is not original
        adj = hs.IntMatrix(workloads.bundled_graph(SRC, "lattice-4x4").tolist())
        hs.eigvec_search(adj, 6, 2, -2)
    finally:
        tracer.uninstall()
    assert hadsplit.feasibility.rref is original and hadsplit.exactla.rref is original
    names = {tracer.names[s[0]] for s in tracer.spans}
    assert {"feasibility.eigvec_search", "exactla.rref", "search.max_clique"} <= names
    metrics = tracer.layer_metrics(cycles=1, overhead_ratio=0.0)
    assert list(metrics) == list(LAYER_METRICS)
    assert metrics["feasibility.eigvec_search.survivors"] == 6
    assert metrics["exactla.rref.calls"] == 1
    search = tracer.names.index("feasibility.eigvec_search")
    (idx,) = [i for i, s in enumerate(tracer.spans) if s[0] == search]
    children = [s[2] - s[1] for s in tracer.spans if s[3] == idx]
    own = tracer.spans[idx][2] - tracer.spans[idx][1] - sum(children)
    assert len(children) >= 2 and own >= 0
    assert metrics["feasibility.eigvec_search.self_s"] == pytest.approx(own)


def test_host_scaling_uses_the_references_around_each_op():
    span = run.REF_SPAN
    stats = run.Stats()
    stats.refs = [run.REF_S] * span
    stats.record("op", 0.6, True)  # REF_SPAN references at REF_S before it, at 2 REF_S after
    stats.refs += [2 * run.REF_S] * (2 * span - 1) + [9.0]
    stats.record("op", 0.6, True)  # those before it are at 2 REF_S but for one stray one
    stats.record("op", 0.6, False)  # a failed op keeps the hang-guard limit
    assert run.host_scaled(stats) == pytest.approx([0.4, 0.3, run.OP_LIMIT_S])
