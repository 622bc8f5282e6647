"""Seeded inputs and op lists for the four workloads.

A workload is a cycle of ops, each a library call on inputs made at set-up
plus the oracle check of its result.  Kinds are repeated by weight, each
repeat on its own seeded input.  The weights put the median and the tail
percentile of op latency inside the block of one op kind, away from the
boundary between two kinds, so that a small shift cannot flip either from
one kind to another.

Inputs are varied only by transforms that keep the expected answers:
signed row permutations plus column permutations of a Hadamard matrix
(G = H1^T H1 is unchanged by row signs and conjugated by the column
permutation; column sign flips are excluded because they keep the split
parameters only on the b = -a branch), simultaneous row and column
relabelling of graphs, and the choice of twin split and of a subset of the
affine UFS squares.

The library modules are imported inside `build` so that set-up, which the
benchmark repeats, imports them afresh each time.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle as O

# Workload name -> the tail percentile it reports.  Each is the highest
# step of 75/80/85/90 that stays inside one op kind's block of the sorted
# latencies of a cycle; run.py collects enough samples that at least ten
# lie beyond it.
TAIL_PERCENTILE = {"dense": 85, "search": 90, "schemes": 85, "cli": 75}
WORKLOADS = tuple(TAIL_PERCENTILE)


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    name: str
    cycle: list[Op]
    warmup: list[Callable[[], object]]
    cleanup: list[Callable[[], None]] = field(default_factory=list)

    def close(self) -> None:
        for fn in self.cleanup:
            fn()


# ------------------------------------------------------------ input helpers


def sylvester_array(m: int) -> np.ndarray:
    h = np.ones((1, 1), dtype=np.int64)
    base = np.array([[1, 1], [1, -1]], dtype=np.int64)
    for _ in range(m):
        h = np.kron(h, base)
    return h


def twin_rows(m: int) -> tuple[list[int], list[int], list[int]]:
    """Row classes of the order-4^m Sylvester matrix: the (4^m, 2^m, 2^m, 0)
    block and the two twin splits, grown from the order-4 partition
    {0, 2}, {1}, {3} one Kronecker factor at a time."""
    p, q, r = [0, 2], [1], [3]
    for _ in range(m - 1):
        def cell(xs, ys):
            return [4 * u + v for u in xs for v in ys]

        p, q, r = (
            cell(p, [0, 2]),
            cell(p, [1]) + cell(q, [0, 2]) + cell(q, [1]) + cell(r, [3]),
            cell(p, [3]) + cell(q, [3]) + cell(r, [0, 2]) + cell(r, [1]),
        )
    return sorted(p), sorted(q), sorted(r)


def core_tensor_rows(k: int, m: int) -> list[int]:
    """Rows (i, j), j >= 1, of Sylvester(k) kron Sylvester(m)."""
    return [i * m + j for i in range(k) for j in range(1, m)]


def signed_perm(arr: np.ndarray, rng: np.random.Generator, rows=None):
    """D P H Q for a random row permutation P, row signs D and column
    permutation Q; returns the matrix and the images of the given rows."""
    n = arr.shape[0]
    perm = rng.permutation(n)
    signs = rng.choice(np.array([-1, 1], dtype=np.int64), size=n)
    out = (arr[perm] * signs[:, None])[:, rng.permutation(n)]
    where = np.argsort(perm)
    mapped = None if rows is None else sorted(int(where[i]) for i in rows)
    return out, mapped


def relabel(adj: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    p = rng.permutation(adj.shape[0])
    return adj[np.ix_(p, p)]


def read_matrix(path: Path) -> np.ndarray:
    """Plain "rows cols" header then integer rows, '#' comments skipped."""
    lines = [ln for ln in path.read_text().splitlines() if ln.strip() and not ln.startswith("#")]
    rows, cols = map(int, lines[0].split())
    arr = np.array([ln.split() for ln in lines[1:]], dtype=np.int64)
    O.expect_eq(arr.shape, (rows, cols), f"{path.name}: shape")
    return arr


def write_matrix(arr: np.ndarray, path: Path) -> None:
    body = "\n".join(" ".join(map(str, row)) for row in arr.tolist())
    path.write_text(f"{arr.shape[0]} {arr.shape[1]}\n{body}\n")


def bundled_graph(src: Path, name: str) -> np.ndarray:
    return read_matrix(src / "hadsplit" / "data" / f"{name}.txt")


def expand(kinds: list[tuple[int, Callable[[], list[Op]]]]) -> list[Op]:
    """Round-robin cycle: instance r of every kind whose weight exceeds r,
    for r = 0, 1, ...  Each factory call draws one instance's seeded inputs
    and returns its op or ops (a build and the op reading its result)."""
    cycle: list[Op] = []
    for r in range(max(w for w, _ in kinds)):
        for w, make in kinds:
            if r < w:
                cycle.extend(make())
    return cycle


# ------------------------------------------------------------ dense


def _dense(hs, rng: np.random.Generator, src: Path) -> Workload:
    s4, s8, s9 = sylvester_array(4), sylvester_array(8), sylvester_array(9)

    def twin():
        block, tw1, tw2 = twin_rows(4)
        want_block, want_twin = O.twin_params(4)

        def check(tw):
            O.expect_eq(sorted(tw.h1_rows + tw.h2_rows + tw.h3_rows), list(range(256)), "twin: partition")
            arr = O.as_array(tw.h)
            O.expect(np.array_equal(arr, s8), "twin: matrix is not Sylvester(8)")
            for rows, rep, want, ones in (
                (block, tw.reports[0], want_block, True),
                (tw1, tw.reports[1], want_twin, False),
                (tw2, tw.reports[2], want_twin, False),
            ):
                O.check_report(rep, want, ones, "twin", rows)
                O.check_split_rows(arr, rows, want, "twin")

        return [Op("twin_sylvester", lambda: hs.twin_sylvester(4), check)]

    def bsh(kind, call, want, ones):
        def check(inst):
            arr = O.as_array(inst.h)
            O.check_hadamard(arr, kind)
            O.check_report(inst.report, want, ones, kind)
            O.check_split_rows(arr, inst.rows, want, kind)

        return Op(kind, call, check)

    def h16():
        return hs.HadamardMatrix(signed_perm(s4, rng)[0].tolist())

    def kron(variant):
        def make():
            h = h16()
            want = O.kron_large_params(16) if variant == "large" else O.kron_small_params(16)
            return [bsh(f"kron_square_{variant}", lambda: hs.kron_square(h, variant), want, False)]

        return make

    def gram():
        h = h16()
        return [bsh("gram_construction", lambda: hs.gram_construction(h), O.gram_params(16), True)]

    def two_row():
        h = hs.HadamardMatrix(signed_perm(s8, rng)[0].tolist())
        return [bsh("two_row_split", lambda: hs.two_row_split(h), O.two_row_params(256), False)]

    def skew():
        return [
            bsh(
                "skew_core_bsh",
                lambda: hs.skew_core_bsh(hs.paley_skew_core(19)),
                O.skew_core_params(19),
                False,
            )
        ]

    def twin_unbiased():
        arr, rows = signed_perm(s8, rng, twin_rows(4)[1])
        data = arr.tolist()
        want = O.twin_params(4)[1]

        def call():
            h = hs.HadamardMatrix(data)
            rep = hs.check_split(h, rows)
            return rep, hs.unbiased_partner(h, rep)

        def check(out):
            rep, partner = out
            O.check_report(rep, want, False, "unbiased", rows)
            O.check_unbiased(arr, O.as_array(partner), "unbiased")

        return [Op("check_unbiased_256", call, check)]

    def check512():
        arr, rows = signed_perm(s9, rng, core_tensor_rows(4, 128))
        data = arr.tolist()
        want = O.core_tensor_params(4, 128)

        def call():
            return hs.check_split(hs.HadamardMatrix(data), rows)

        return [Op("check_512", call, lambda rep: O.check_report(rep, want, False, "check_512", rows))]

    cycle = expand(
        [(3, gram), (2, kron("small")), (3, kron("large")), (5, two_row), (1, skew),
         (1, twin_unbiased), (4, twin), (1, check512)]
    )
    def warm_unbiased():
        h = hs.HadamardMatrix(s4.tolist())
        return hs.unbiased_partner(h, hs.check_split(h, twin_rows(2)[1]))

    warmup = [
        lambda: hs.twin_sylvester(2),
        lambda: hs.kron_square(hs.sylvester(2), "large"),
        lambda: hs.kron_square(hs.sylvester(2), "small"),
        lambda: hs.gram_construction(hs.sylvester(2)),
        lambda: hs.two_row_split(hs.sylvester(3)),
        lambda: hs.skew_core_bsh(hs.paley_skew_core(7)),
        warm_unbiased,
    ]
    return Workload("dense", cycle, warmup)


# ------------------------------------------------------------ search


def _search(hs, rng: np.random.Generator, src: Path) -> Workload:
    graphs = {
        "rook": bundled_graph(src, "srg-36-10-4-2"),
        "lattice": bundled_graph(src, "lattice-4x4"),
        "shrikhande": bundled_graph(src, "shrikhande"),
    }

    def eig(graph, ell, a, b):
        key = (graph, ell, a, b)

        def make():
            adj = relabel(graphs[graph], rng)
            m = hs.IntMatrix(adj.tolist())
            return [
                Op(
                    f"eigvec_{graph}_{ell}",
                    lambda: hs.eigvec_search(m, ell, a, b),
                    lambda res: O.check_eigvec(res, adj, key, f"eigvec {key}"),
                )
            ]

        return make

    def splits(ell):
        def make():
            arr = signed_perm(sylvester_array(4), rng)[0]
            h = hs.HadamardMatrix(arr.tolist())
            return [
                Op(
                    f"search_splits_{ell}",
                    lambda: hs.search_splits(h, ell),
                    lambda reps: O.check_search_splits(reps, arr, ell, f"search_splits {ell}"),
                )
            ]

        return make

    def table(table, max_n):
        fn = hs.enumerate_seidel if table == "seidel" else hs.enumerate_case_a

        def make():
            return [
                Op(
                    f"enumerate_{table}_{max_n}",
                    lambda: fn(max_n),
                    lambda rows: O.check_table_rows(
                        [r.as_dict() for r in rows], table, max_n, f"enumerate {table}"
                    ),
                )
            ]

        return make

    cycle = expand(
        [
            (1, eig("rook", 10, 4, -2)),
            (2, eig("rook", 11, 5, -1)),
            (3, eig("lattice", 6, 2, -2)),
            (3, eig("shrikhande", 6, 2, -2)),
            (4, splits(5)),
            (2, splits(6)),
            (4, table("case_a", 128)),
            (3, table("seidel", 4096)),
        ]
    )
    lattice = hs.IntMatrix(graphs["lattice"].tolist())
    warmup = [
        lambda: hs.eigvec_search(lattice, 6, 2, -2),
        lambda: hs.search_splits(hs.sylvester(3), 4),
        lambda: hs.enumerate_case_a(32),
        lambda: hs.enumerate_seidel(256),
    ]
    return Workload("search", cycle, warmup)


# ------------------------------------------------------------ schemes


def _schemes(hs, rng: np.random.Generator, src: Path) -> Workload:
    twin16 = hs.twin_sylvester(2)
    n = 16

    def pick_twin():
        return int(rng.integers(1, 3))

    def scheme_pair(kind, make_call, expected):
        """A build op and the eigenmatrices op that reads what it built;
        make_call() draws the seeded choices and returns the build call."""

        def make():
            build = make_call()
            size, valencies, mults, transpose = expected
            slot = {}

            def run_build():
                slot["scheme"] = None
                slot["scheme"] = build()
                return slot["scheme"]

            return [
                Op(
                    f"build_{kind}",
                    run_build,
                    lambda s: O.check_scheme(s, size, valencies, transpose, kind),
                ),
                Op(
                    f"eigenmatrices_{kind}",
                    lambda: hs.eigenmatrices(slot["scheme"]),
                    lambda t: O.check_eigen(t, valencies, mults, size, f"eigenmatrices {kind}"),
                ),
            ]

        return make

    def deleted_twin():
        """The (16, 9, 1, -3) split left by deleting the all-ones row next
        to a seeded choice of the two twin splits."""
        return hs.delete_allones_transform(twin16.h, twin16.reports[pick_twin()])

    def four(symmetric):
        builder = hs.build_4class_symmetric if symmetric else hs.build_4class_nonsymmetric

        def make_call():
            rep = deleted_twin()
            return lambda: builder(twin16.h, rep)

        return make_call

    def five(f):
        def make_call():
            rep = deleted_twin()
            picks = sorted(rng.choice(8, size=f, replace=False).tolist())

            def call():
                fam = hs.affine_ufs_family(9)
                return hs.build_5class(twin16.h, rep, [hs.with_min_symbol(fam[i], 1) for i in picks])

            return call

        return make_call

    def six(f):
        def make_call():
            rep = twin16.reports[pick_twin()]
            picks = sorted(rng.choice(6, size=f, replace=False).tolist())

            def call():
                fam = hs.affine_ufs_family(7)
                return hs.build_6class(
                    twin16.h, rep, [hs.force_constant_diagonal(fam[i], 0) for i in picks]
                )

            return call

        return make_call

    def hamming():
        want = O.hamming_valencies(8)

        return [
            Op(
                "hamming_8",
                lambda: hs.hamming_scheme(8),
                lambda s: O.check_scheme(s, 256, want, tuple(range(9)), "hamming"),
            )
        ]

    def fusion(variant):
        def check(s):
            g1, g2 = O.FUSION_EXPECTED[variant]
            O.check_scheme(s, 64, (1, g1[1], g2[1]), (0, 1, 2), f"fusion {variant}")
            O.expect_eq(O.srg_of(O.as_array(s.matrices[1])), g1, f"fusion {variant}: class 1")
            O.expect_eq(O.srg_of(O.as_array(s.matrices[2])), g2, f"fusion {variant}: class 2")

        def make():
            return [Op(f"muzychuk_fusion_{variant}", lambda: hs.muzychuk_fusion(6, variant), check)]

        return make

    cycle = expand(
        [
            (1, scheme_pair("4class_symmetric", four(True), O.four_class_expected(n, 9, 9, True))),
            (1, scheme_pair("4class_nonsymmetric", four(False), O.four_class_expected(n, 9, 9, False))),
            (1, scheme_pair("5class_f2", five(2), O.five_class_expected(n, 9, 1, 2))),
            (2, scheme_pair("5class_f3", five(3), O.five_class_expected(n, 9, 1, 3))),
            (4, scheme_pair("6class_f2", six(2), O.six_class_expected(n, 6, 6, 2))),
            (6, hamming),
            (1, fusion("01")),
            (1, fusion("03")),
        ]
    )
    rep = hs.delete_allones_transform(twin16.h, twin16.reports[1])
    warmup = [
        lambda: hs.eigenmatrices(hs.build_4class_symmetric(twin16.h, rep)),
        lambda: hs.eigenmatrices(hs.hamming_scheme(3)),
        lambda: hs.muzychuk_fusion(4, "01"),
        lambda: [hs.with_min_symbol(s, 1) for s in hs.affine_ufs_family(5)],
    ]
    return Workload("schemes", cycle, warmup)


# ------------------------------------------------------------ cli


def _cli(hs, rng: np.random.Generator, src: Path, scratch: Path) -> Workload:
    import hadsplit.cli as cli

    tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=scratch))
    t256, rows256 = signed_perm(sylvester_array(8), rng, twin_rows(4)[1])
    t512, rows512 = signed_perm(sylvester_array(9), rng, core_tensor_rows(4, 128))
    f256, f512 = tmp / "h256.txt", tmp / "h512.txt"
    write_matrix(t256, f256)
    write_matrix(t512, f512)
    rows_arg = {256: ",".join(map(str, rows256)), 512: ",".join(map(str, rows512))}

    def invoke(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def payload(res, code, what):
        got, out, err = res
        O.expect_eq(got, code, f"{what}: exit code ({err.strip()})")
        if code != 0:
            O.expect_eq(out, "", f"{what}: stdout on failure")
            return None
        data = json.loads(out)
        O.expect_eq(data["outcome"], "ok", f"{what}: outcome")
        return data["data"]

    def op(kind, argv, check):
        return lambda: [Op(kind, lambda: invoke(argv), check)]

    def check_split_cmd(n, params, rows):
        def check(res):
            data = payload(res, 0, f"check {n}")
            got = (data["n"], data["ell"], data["a"], data["b"])
            O.expect_eq(got, params, f"check {n}: params")
            O.expect_eq(data["rows"], rows, f"check {n}: rows")
            O.expect_eq(data["branch"], O.split_branch(params), f"check {n}: branch")
            O.expect_eq(tuple(data["srg"]), O.split_srg(params, False), f"check {n}: block graph")
            O.expect(all(data["checks"].values()), f"check {n}: failed checks")

        return check

    partner_out = tmp / "partner.txt"

    def check_unbiased(res):
        payload(res, 0, "unbiased 256")
        O.check_unbiased(t256, read_matrix(partner_out), "unbiased 256")

    def check_not_unbiased(res):
        payload(res, 1, "unbiased 512")
        O.expect("not an unbiased-partner case" in res[2], f"unbiased 512: stderr {res[2]!r}")

    twin_out = tmp / "twin.txt"

    def check_twin(res):
        data = payload(res, 0, "construct twin")
        block, twin = O.twin_params(4)
        O.expect_eq(data["order"], 256, "construct twin: order")
        for label, want in (("block", block), ("twin-1", twin), ("twin-2", twin)):
            d = data[label]
            O.expect_eq((d["n"], d["ell"], d["a"], d["b"]), want, f"construct twin: {label}")
        O.check_hadamard(read_matrix(twin_out), "construct twin")

    def check_nonexist(res):
        data = payload(res, 0, "nonexist")
        survivors, best, certifies = O.EIGVEC_EXPECTED[("rook", 10, 4, -2)]
        got = (data["eigenspace_dim"], data["survivors"], data["best_size"], data["certifies_nonexistence"])
        O.expect_eq(got, (10, survivors, best, certifies), "nonexist")

    def check_table(table, max_n):
        def check(res):
            data = payload(res, 0, f"enumerate {table}")
            O.expect_eq(data["count"], len(data["rows"]), f"enumerate {table}: count")
            O.check_table_rows(data["rows"], table, max_n, f"enumerate {table}")

        return check

    scheme_dir = tmp / "scheme"

    def check_scheme_cmd(res):
        data = payload(res, 0, "scheme build4")
        size, valencies, _, _ = O.four_class_expected(16, 9, 9, True)
        O.expect_eq(
            (data["size"], data["classes"], tuple(data["valencies"]), data["symmetric"]),
            (size, 4, valencies, True),
            "scheme build4",
        )
        mats = [read_matrix(scheme_dir / f"class-{i}.txt") for i in range(5)]
        O.expect(np.array_equal(mats[0], np.eye(size, dtype=np.int64)), "scheme build4: class 0")
        O.expect(bool(np.all(sum(mats) == 1)), "scheme build4: classes do not partition")
        O.expect_eq(tuple(int(m[0].sum()) for m in mats), valencies, "scheme build4: files")

    twin = O.twin_params(4)[1]
    tensor = O.core_tensor_params(4, 128)
    cycle = expand(
        [
            (3, op("check_256", ["check", "--input", str(f256), "--rows", rows_arg[256], "--json"],
                   check_split_cmd(256, twin, rows256))),
            (1, op("check_512", ["check", "--input", str(f512), "--rows", rows_arg[512], "--json"],
                   check_split_cmd(512, tensor, rows512))),
            (4, op("unbiased_256", ["analyze", "unbiased", "--input", str(f256), "--rows",
                                    rows_arg[256], "--out", str(partner_out), "--json"], check_unbiased)),
            (1, op("unbiased_512", ["analyze", "unbiased", "--input", str(f512), "--rows",
                                    rows_arg[512], "--json"], check_not_unbiased)),
            (4, op("construct_twin", ["construct", "twin", "--m", "4", "--out", str(twin_out), "--json"],
                   check_twin)),
            (1, op("nonexist", ["nonexist", "--graph", "srg-36-10-4-2", "--ell", "10", "--a", "4",
                                "--b=-2", "--json"], check_nonexist)),
            (1, op("enumerate_table1", ["enumerate", "table1", "--max-n", "1024", "--json"],
                   check_table("seidel", 1024))),
            (1, op("enumerate_table2", ["enumerate", "table2", "--max-n", "64", "--json"],
                   check_table("case_a", 64))),
            (1, op("scheme_build4", ["scheme", "build4", "--twin-delete", "2", "--out-dir",
                                     str(scheme_dir), "--json"], check_scheme_cmd)),
        ]
    )
    warmup = [
        lambda: invoke(["analyze", "seidel", "--n", "16", "--ell", "6", "--a", "2", "--json"]),
        lambda: invoke(["enumerate", "table1", "--max-n", "64", "--json"]),
        lambda: invoke(["construct", "twin", "--m", "2", "--out", str(twin_out), "--json"]),
        lambda: invoke(["check", "--input", str(twin_out), "--rows", "1,4,5,6,9,15", "--json"]),
    ]
    return Workload("cli", cycle, warmup, [lambda: shutil.rmtree(tmp, ignore_errors=True)])


def build(name: str, seed: int, src: Path, scratch: Path) -> Workload:
    """Import the library afresh, make the seeded inputs and return the
    workload's cycle and warm-up calls."""
    import hadsplit as hs

    rng = np.random.default_rng(seed)
    if name == "cli":
        return _cli(hs, rng, src, scratch)
    return {"dense": _dense, "search": _search, "schemes": _schemes}[name](hs, rng, src)
