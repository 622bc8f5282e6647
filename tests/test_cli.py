import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hadsplit
import hadsplit.cli as cli
from hadsplit.cli import UnknownDataset, build_parser, bundled_data, main
from hadsplit.core import IntMatrix, parse_matrix, serialize_matrix
from hadsplit.latin import (
    affine_ufs_family,
    force_constant_diagonal,
    parse_latin,
    with_min_symbol,
)
from hadsplit.splitting import BudgetExceeded, direct_srg_params


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- datasets


def test_bundled_datasets_are_srgs():
    assert direct_srg_params(bundled_data("lattice-4x4")).astuple() == (16, 6, 2, 2)
    assert direct_srg_params(bundled_data("shrikhande")).astuple() == (16, 6, 2, 2)
    assert direct_srg_params(bundled_data("srg-36-10-4-2")).astuple() == (36, 10, 4, 2)
    assert bundled_data("lattice-4x4.txt") == bundled_data("lattice-4x4")


def test_bundled_unknown_name():
    with pytest.raises(UnknownDataset):
        bundled_data("petersen")


# ---------------------------------------------------------------- construct


def test_construct_sylvester_stdout(capsys):
    code, out, _ = run(capsys, "construct", "sylvester", "--m", "2")
    assert code == 0
    body, label = out.rsplit("Sylvester matrix of order 4", 1)
    assert label.strip() == ""
    m = parse_matrix(body)
    assert m.shape == (4, 4)


def test_construct_check_round_trip(capsys, tmp_path):
    f = tmp_path / "twin.txt"
    code, out, _ = run(capsys, "construct", "twin", "--m", "2", "--out", str(f))
    assert code == 0
    assert "twin-1: params (16, 6, 2, -2) rows 1,4,5,6,9,15" in out
    code, out, _ = run(capsys, "check", "--input", str(f), "--rows", "1,4,5,6,9,15")
    assert code == 0
    assert "split parameters (n, ell, a, b) = (16, 6, 2, -2)" in out
    assert "branch: seidel (also case-a)" in out
    assert "matches construction: twin-sylvester m=2" in out
    assert "check seidel_ok: pass" in out


def test_check_row_ranges(capsys, tmp_path):
    f = tmp_path / "h.txt"
    run(capsys, "construct", "sylvester", "--m", "2", "--out", str(f))
    code, out, _ = run(capsys, "check", "--input", str(f), "--rows", "1-3")
    assert code == 0
    assert "(4, 3, -1, -1)" in out
    t = tmp_path / "twin.txt"
    run(capsys, "construct", "twin", "--m", "2", "--out", str(t))
    code, out, _ = run(capsys, "check", "--input", str(t), "--rows", "1,4-6,9,15")
    assert code == 0
    code, out, err = run(capsys, "check", "--input", str(t), "--rows", "1,4,6-5,9,15")
    assert code == 2
    assert out == ""
    assert "error: reversed row range '6-5'" in err


def test_check_order_1_exits_two(capsys, tmp_path):
    f = tmp_path / "one.txt"
    f.write_text("1 1\n1\n")
    code, out, err = run(capsys, "check", "--input", str(f), "--rows", "0")
    assert (code, out) == (2, "")
    assert "order 1 has no split" in err


def test_python_m_hadsplit_runs_the_cli(tmp_path, twin16):
    f = tmp_path / "twin.txt"
    f.write_text(serialize_matrix(twin16.h))
    done = _hadsplit_process("check", "--input", str(f), "--rows", "1,4,5,6,9,15", "--json")
    assert (done.returncode, done.stderr) == (0, "")
    payload = json.loads(done.stdout)
    assert payload["outcome"] == "ok"
    data = payload["data"]
    assert (data["n"], data["ell"], data["a"], data["b"]) == (16, 6, 2, -2)
    assert data["branch"] == "seidel"


def test_check_not_splittable_exits_one(capsys, tmp_path):
    f = tmp_path / "h.txt"
    run(capsys, "construct", "sylvester", "--m", "4", "--out", str(f))
    code, out, _ = run(capsys, "check", "--input", str(f), "--rows", "0,1,2")
    assert code == 1
    assert "not a balanced split" in out


def test_construct_skew_core(capsys):
    code, out, _ = run(capsys, "construct", "skew-core", "--q", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["data"]["n"] == 12
    assert payload["data"]["witness"] == "skew-core q=3"


def test_construct_skew_core_non_prime_power_exits_two(capsys):
    code, out, err = run(capsys, "construct", "skew-core", "--q", "15")
    assert code == 2
    assert out == ""
    assert "error: 15 is not a prime power" in err


def test_construct_core_tensor_of_order_1_exits_two(capsys):
    code, out, err = run(
        capsys, "construct", "core-tensor", "--sylvester", "0", "--sylvester2", "2"
    )
    assert code == 2
    assert out == ""
    assert "error: core-tensor needs a first factor of order at least 2, not 1" in err


def test_construct_kron_small(capsys):
    code, out, _ = run(
        capsys, "construct", "kron", "--sylvester", "2", "--variant", "small", "--json"
    )
    assert code == 0
    data = json.loads(out)["data"]
    assert (data["n"], data["ell"], data["a"], data["b"]) == (16, 6, 2, -2)


def test_construct_unknown_dataset_exits_two(capsys):
    code, _, err = run(capsys, "check", "--input", "no-such-dataset", "--rows", "0")
    assert code == 2
    assert "error:" in err


def test_directory_input_is_not_a_file_exits_two(capsys, tmp_path):
    code, out, err = run(capsys, "check", "--input", str(tmp_path), "--rows", "0")
    assert (code, out) == (2, "")
    assert err == f"error: {str(tmp_path)!r} is not a file\n"


def test_header_the_rows_cannot_hold_exits_two(capsys, tmp_path):
    f = tmp_path / "h.txt"
    f.write_text("2 100000000000\n1 1\n1 -1\n")
    code, out, err = run(capsys, "check", "--input", str(f), "--rows", "0")
    assert (code, out) == (2, "")
    assert err == "error: expected 100000000000 entries, got 2: '1 1'\n"


# sha256 of the matrix files the CLI writes, recorded while serialize_matrix
# still joined one str per entry.
_WRITTEN_SHA256 = {
    "twin": "c1f5d870bbd224653f74a4b73096624472902614af37a53fa2eb54a192ddb4f3",
    "partner": "df74e1a6232e3202de3a0d06e6234345eadacc53fa556f5585c149424c126466",
    "class-0.txt": "8b33f0c719f3435cd5453198b48a5b7f0e471dd581f36d5472209a07729e2067",
    "class-1.txt": "144e99cb2151711e1a367597fe49e7300d0ddb062cb8875e97433bb8d588cf6f",
    "class-2.txt": "fd5a9f27e2f36d9953932397b71b44c838832db8a5ab7bcf714c6bc6fa7f7ea4",
    "class-3.txt": "1d869995bde3f454c9e7532fa214c0a6cda0409096b675d1c1e3b0061fefedfc",
    "class-4.txt": "0a267a201a33ba7c946dd6fec2db4a218da372b51107bcec6b001557e79cf878",
}


def test_written_matrix_files_are_frozen(capsys, tmp_path):
    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    twin, partner, classes = tmp_path / "h.txt", tmp_path / "p.txt", tmp_path / "s"
    code, out, _ = run(capsys, "construct", "twin", "--m", "4", "--out", str(twin), "--json")
    assert code == 0
    rows = ",".join(map(str, json.loads(out)["data"]["twin-1"]["rows"]))
    argv = ["analyze", "unbiased", "--input", str(twin), "--rows", rows, "--out", str(partner)]
    assert run(capsys, *argv, "--json")[0] == 0
    argv = ["scheme", "build4", "--twin-delete", "2", "--out-dir", str(classes), "--json"]
    assert run(capsys, *argv)[0] == 0
    got = {"twin": digest(twin), "partner": digest(partner)}
    got.update((f.name, digest(f)) for f in sorted(classes.iterdir()))
    assert got == _WRITTEN_SHA256


# ------------------------------------------------------------------ analyze


def test_analyze_seidel(capsys):
    code, out, _ = run(capsys, "analyze", "seidel", "--n", "16", "--ell", "6", "--a", "2")
    assert code == 0
    assert "block graph: (16, 6, 2, 2)" in out
    assert "eigenvalue 5 with multiplicity 6" in out


def test_analyze_seidel_missing_option_exits_two(capsys):
    # a required flag is declared as such, so argparse reports it as a usage error
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "seidel", "--n", "16"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--ell" in err and "--a" in err


def test_analyze_seidel_infeasible_exits_one(capsys):
    code, _, err = run(capsys, "analyze", "seidel", "--n", "16", "--ell", "7", "--a", "2")
    assert code == 1


@pytest.mark.parametrize("n", ["-4", "2"])
def test_analyze_seidel_below_order_4_exits_two(capsys, n):
    # both cells satisfy the order identity ell^2 + a^2 (n-1) = n ell
    code, out, err = run(capsys, "analyze", "seidel", "--n", n, "--ell", "1", "--a", "1")
    assert (code, out) == (2, "")
    assert err == f"error: Seidel derivation needs n >= 4 and 1 <= ell <= n, not n = {n}, ell = 1\n"


def test_analyze_srg_both_cases(capsys):
    code, out, _ = run(capsys, "analyze", "srg", "--n", "16", "--ell", "9", "--a", "1")
    assert code == 0
    assert "b = -3" in out and "(16, 9, 4, 6)" in out
    code, out, _ = run(
        capsys, "analyze", "srg", "--case", "b", "--n", "16", "--ell", "4", "--a", "4"
    )
    assert code == 0
    assert "b = 0" in out


@pytest.mark.parametrize("cell", [("16", "15", "-1"), ("4", "3", "-1"), ("64", "63", "-1")])
def test_analyze_srg_vanishing_denominator_exits_one(capsys, cell):
    # in range, a(n-1) + ell vanishes only at a = -1, ell = n - 1
    n, ell, a = cell
    code, out, err = run(capsys, "analyze", "srg", "--n", n, "--ell", ell, "--a", a)
    assert code == 1
    assert out == ""
    assert err == "error: branch denominator a(n-1) + ell vanishes\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "16", "--ell", "0", "--a", "1"),
        ("--n", "16", "--ell", "17", "--a", "1"),
        ("--n", "16", "--ell", "17", "--a", "1", "--case", "b"),
        ("--n", "-4", "--ell", "1", "--a", "1"),
        ("--n", "0", "--ell", "1", "--a", "1"),
        ("--n", "16", "--ell", "0", "--a", "0", "--case", "b"),
    ],
)
def test_analyze_srg_out_of_range_exits_two(capsys, argv):
    # (16, 0, 1) once exited 0 with the block graph (16, 0, 16, 0), and
    # (-4, 1, 1) exited 1 with an unrelated a^2 = b^2 error
    code, out, err = run(capsys, "analyze", "srg", *argv)
    case = argv[-1] if "--case" in argv else "a"
    assert (code, out) == (2, "")
    need = "needs n >= 4 and 1 <= ell <= n"
    assert err == f"error: case-{case} derivation {need}, not n = {argv[1]}, ell = {argv[3]}\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (("seidel", "--n", "16", "--ell", "15", "--a", "1"), "parameters (16, 0, -8, 0)"),
        (("srg", "--n", "36", "--ell", "28", "--a", "4"), "parameters (36, 7, -2, 2)"),
        (("srg", "--n", "16", "--ell", "15", "--a", "7"), "parameters (16, 0, -2, 0)"),
        (("equiangular", "--n", "16", "--ell", "6", "--a", "3", "--b=-3"),
         "ell^2 + a^2(n-1) != n ell for (16, 6, 3)"),
        (("srg", "--n", "12", "--ell", "2", "--a", "2"), "inner products a = 2 and b = -1"),
        (("srg", "--n", "12", "--ell", "2", "--a", "-1"), "inner products a = -1 and b = 2"),
    ],
)
def test_analyze_parameters_no_split_has_exit_one(capsys, argv, err):
    # each once exited 0 and printed a graph or line count that cannot occur
    code, out, got = run(capsys, "analyze", *argv)
    assert (code, out) == (1, "")
    assert got.startswith("error: ") and got.endswith(f"{err}\n")


def test_analyze_equiangular(capsys):
    code, out, _ = run(
        capsys, "analyze", "equiangular", "--n", "16", "--ell", "6", "--a", "2", "--b=-2"
    )
    assert code == 0
    assert "16 equiangular lines in dimension 6 with squared cosine 1/9" in out
    assert "(attained)" in out
    code, out, _ = run(
        capsys, "analyze", "equiangular", "--n", "16", "--ell", "6", "--a", "2", "--b=-2", "--json"
    )
    data = json.loads(out)["data"]
    assert (code, data["lines"], data["dimension"]) == (0, 16, 6)
    for n, ell in [("16", "0"), ("1", "1"), ("16", "17")]:
        code, out, err = run(
            capsys, "analyze", "equiangular", "--n", n, "--ell", ell, "--a", "2", "--b=-2"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: equiangular analysis needs n >= 2 and 1 <= ell <= n")
        assert err.endswith(f"not n = {n}, ell = {ell}\n")


def test_analyze_unbiased_and_regular(capsys, tmp_path):
    f = tmp_path / "twin.txt"
    run(capsys, "construct", "twin", "--m", "2", "--out", str(f))
    code, out, _ = run(
        capsys, "analyze", "unbiased", "--input", str(f), "--rows", "1,4,5,6,9,15"
    )
    assert code == 0
    assert "unbiased partner of order 16" in out
    code, out, _ = run(
        capsys, "analyze", "regular", "--input", str(f), "--rows", "1,4,5,6,9,15"
    )
    assert code == 0
    assert "constant row sum [4]" in out


def test_analyze_diag_and_srg16(capsys, tmp_path):
    f = tmp_path / "h.txt"
    run(capsys, "construct", "sylvester", "--m", "4", "--out", str(f))
    code, out, _ = run(
        capsys, "analyze", "diag", "--input", str(f), "--graph", "lattice-4x4"
    )
    assert code == 0
    assert "6: 1" in out and "-2: 9" in out
    code, out, _ = run(capsys, "analyze", "srg16", "--graph", "shrikhande")
    assert code == 0
    assert "shrikhande" in out


def test_analyze_search(capsys, tmp_path):
    f = tmp_path / "twin.txt"
    run(capsys, "construct", "twin", "--m", "2", "--out", str(f))
    code, out, _ = run(capsys, "analyze", "search", "--input", str(f), "--ell", "6")
    assert code == 0
    assert "params (16, 6, 2, -2)" in out


def test_analyze_search_none_found(capsys, tmp_path):
    f = tmp_path / "h.txt"
    run(capsys, "construct", "skew-core", "--q", "3", "--out", str(f))
    code, out, _ = run(capsys, "analyze", "search", "--input", str(f), "--ell", "2")
    assert code == 1
    assert "no balanced split on 2 rows" in out


def test_analyze_search_past_the_int64_ranks_exits_two(capsys, tmp_path):
    f = tmp_path / "h128.txt"
    run(capsys, "construct", "sylvester", "--m", "7", "--out", str(f))
    argv = ("analyze", "search", "--input", str(f), "--ell", "64", "--budget", str(2**200))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: C(128, 64) = ")
    assert err.endswith(" subsets exceed the int64 ranks below 2^62\n")


def test_analyze_search_budget_is_inconclusive(capsys, tmp_path):
    f = tmp_path / "twin.txt"
    run(capsys, "construct", "twin", "--m", "2", "--out", str(f))
    argv = ("analyze", "search", "--input", str(f), "--ell", "6", "--budget", "10")
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["outcome"] == "inconclusive"
    assert payload["data"] == {"budget_exceeded": "C(16, 6) = 8008 exceeds budget 10"}
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert out == "search stopped: C(16, 6) = 8008 exceeds budget 10\n"


# ---------------------------------------------------------------- enumerate


def test_enumerate_table1_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "table1", "--max-n", "1024")
    assert code == 0
    assert "28 parameter sets" in out
    assert "[twin-sylvester m=2]" in out
    # the row table 1 drops rests on a cited nonexistence result, and no flag
    # brings it back
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "table1", "--max-n", "1024", "--all"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --all" in capsys.readouterr().err


def test_enumerate_past_the_int64_grid_bound_exits_two(capsys):
    code, out, err = run(capsys, "enumerate", "table2", "--max-n", "32769")
    assert code == 2
    assert out == ""
    assert err.startswith("error: max_n = 32769 exceeds 32768")


def test_enumerate_table2_json_digest_is_stable(capsys):
    code, out1, _ = run(capsys, "enumerate", "table2", "--max-n", "64", "--json")
    assert code == 0
    code, out2, _ = run(capsys, "enumerate", "table2", "--max-n", "64", "--json")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["data"]["count"] == 14
    digest = payload.pop("digest")
    assert digest == "4e35ce3e820668ca1d9a12030ffbac08aab38fa464891e7229c85739bc194ec3"
    again = hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()
    assert digest == again


# sha256 digests of `enumerate ... --json`, recorded before the table
# statuses moved to one status function
@pytest.mark.parametrize(
    "table, max_n, digest",
    [
        ("table1", 1024, "763120eefe7b68227355df07d47a0440cdcd996f5f86eff8c190ddda55436724"),
        ("table1", 4096, "3517ab1d797e2b5e4699b27a89a89b9700be5f99cd3de1d5e399d2fe238e5da1"),
        ("table2", 256, "b348bb910e761014baf351a438ebd65f3b79bb616ba3496b70f7a7a1878333c1"),
    ],
)
def test_enumerate_json_digests_are_frozen(capsys, table, max_n, digest):
    code, out, _ = run(capsys, "enumerate", table, "--max-n", str(max_n), "--json")
    assert code == 0
    assert json.loads(out)["digest"] == digest


# ----------------------------------------------------------------- nonexist


def test_nonexist_certifies(capsys):
    code, out, _ = run(
        capsys, "nonexist", "--graph", "srg-36-10-4-2", "--ell", "10", "--a", "4", "--b=-2"
    )
    assert code == 0
    assert "no split with these parameters embeds this graph" in out


def test_nonexist_multiplicity_mismatch_exits_1(capsys):
    code, out, err = run(
        capsys, "nonexist", "--graph", "lattice-4x4", "--ell", "5", "--a", "2", "--b=-2", "--json"
    )
    assert code == 1
    assert out == ""
    assert "eigenspace dimension 0, expected 5" in err


@pytest.mark.parametrize("ell", ["0", "-1", "20"])
def test_nonexist_ell_outside_1_to_v_exits_two(capsys, ell):
    code, out, err = run(
        capsys, "nonexist", "--graph", "lattice-4x4", "--ell", ell, "--a", "2", "--b=-2"
    )
    assert code == 2
    assert out == ""
    assert f"error: eigenvector search needs 1 <= ell <= v, not v = 16, ell = {ell}" in err


def test_nonexist_inconclusive(capsys):
    code, out, _ = run(
        capsys, "nonexist", "--graph", "lattice-4x4", "--ell", "6", "--a", "2", "--b=-2"
    )
    assert code == 1
    assert "does not rule the parameters out" in out


def test_nonexist_survivor_budget_is_inconclusive(capsys, tmp_path):
    rook = bundled_data("srg-36-10-4-2").array
    f = tmp_path / "rook-complement.txt"
    f.write_text(serialize_matrix(IntMatrix(1 - np.eye(36, dtype=np.int64) - rook)))
    argv = ("nonexist", "--graph", str(f), "--ell", "25", "--a", "1", "--b=-5")
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["outcome"] == "inconclusive"
    assert payload["data"] == {"budget_exceeded": "16385 survivors exceed the budget of 16384"}
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out == "search stopped: 16385 survivors exceed the budget of 16384\n"


def test_any_command_reports_a_stopped_search_as_inconclusive(capsys, monkeypatch):
    def stop(max_n):
        raise BudgetExceeded(f"table past n = {max_n}")

    monkeypatch.setattr(cli, "enumerate_seidel", stop)
    argv = ("enumerate", "table1", "--max-n", "64")
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["outcome"] == "inconclusive"
    assert payload["data"] == {"budget_exceeded": "table past n = 64"}
    assert run(capsys, *argv) == (1, "search stopped: table past n = 64\n", "")


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 8.0 TiB")])
def test_memory_exhaustion_is_bad_input(capsys, monkeypatch, exc):
    def exhaust(n):
        raise exc

    monkeypatch.setattr(cli, "hamming_scheme", exhaust)
    code, out, err = run(capsys, "scheme", "hamming", "--n", "40", "--json")
    assert (code, out) == (2, "")
    assert err == f"error: {exc or 'MemoryError'}\n"


@pytest.mark.parametrize("change", ["loops", "weights"])
def test_nonexist_rejects_a_matrix_that_is_not_a_graph(capsys, tmp_path, change):
    # A + I and 2A used to report a multiplicity mismatch (exit 1)
    lattice = bundled_data("lattice-4x4").array
    bad = lattice + np.eye(16, dtype=np.int64) if change == "loops" else 2 * lattice
    f = tmp_path / "bad.txt"
    f.write_text(serialize_matrix(IntMatrix(bad)))
    code, out, err = run(capsys, "nonexist", "--graph", str(f), "--ell", "6", "--a", "2", "--b=-2")
    assert (code, out) == (2, "")
    assert "0/1 entries and a zero diagonal" in err


# -------------------------------------------------------------------- latin


def test_latin_circle_check_round_trip(capsys, tmp_path):
    f = tmp_path / "circle.txt"
    code, _, _ = run(capsys, "latin", "circle", "--v", "6", "--out", str(f))
    assert code == 0
    code, out, _ = run(capsys, "latin", "check", "--input", str(f))
    assert code == 0
    assert "latin: True" in out
    assert "symmetric: True" in out


def test_latin_circle_odd_order_exits_two(capsys):
    code, out, err = run(capsys, "latin", "circle", "--v", "5")
    assert code == 2
    assert out == ""
    assert "error: no one-factorization of an odd order (5)" in err


def test_latin_affine_non_prime_power_exits_two(capsys):
    code, out, err = run(capsys, "latin", "affine", "--q", "6")
    assert code == 2
    assert out == ""
    assert "error: 6 is not a prime power" in err


def test_latin_affine_pick_and_ufs(capsys, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run(capsys, "latin", "affine", "--q", "5", "--pick", "0", "--out", str(a))
    run(capsys, "latin", "affine", "--q", "5", "--pick", "1", "--out", str(b))
    code, out, _ = run(capsys, "latin", "check", "--input", str(a), "--against", str(b))
    assert code == 0
    assert "uniformly one-agreeing" in out and ": True" in out
    code, out, _ = run(capsys, "latin", "check", "--input", str(a), "--against", str(a))
    assert code == 1
    assert "one-agreement" in out


@pytest.mark.parametrize("q, picks", [(9, range(8)), (64, (0, 1, 30, 62))])
def test_latin_affine_pick_builds_only_the_picked_square(capsys, tmp_path, monkeypatch, q, picks):
    family = affine_ufs_family(q)

    def refuse(q):
        raise AssertionError("latin affine --pick built the whole family")

    monkeypatch.setattr(cli, "affine_ufs_family", refuse)
    for k in picks:
        out = tmp_path / f"{k}.txt"
        code, _, _ = run(capsys, "latin", "affine", "--q", str(q), "--pick", str(k), "--out", str(out))
        assert code == 0
        assert parse_latin(out.read_text()) == family[k]
    code, _, err = run(capsys, "latin", "affine", "--q", str(q), "--pick", str(q - 1))
    assert code == 2 and f"error: --pick must be in 0..{q - 2}, got {q - 1}" in err
    code, _, err = run(capsys, "latin", "affine", "--q", "6", "--pick", "0")
    assert code == 2 and "error: 6 is not a prime power" in err


def test_latin_affine_pick_out_of_range_exits_two(capsys):
    for pick in ("4", "99", "-1"):
        code, out, err = run(capsys, "latin", "affine", "--q", "5", "--pick", pick)
        assert code == 2
        assert out == ""
        assert f"error: --pick must be in 0..3, got {pick}" in err


def test_latin_compose_and_diagfix(capsys, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run(capsys, "latin", "affine", "--q", "7", "--pick", "0", "--out", str(a))
    run(capsys, "latin", "affine", "--q", "7", "--pick", "1", "--out", str(b))
    c = tmp_path / "c.txt"
    code, _, _ = run(capsys, "latin", "compose", "--input", str(a), "--against", str(b), "--out", str(c))
    assert code == 0
    assert parse_latin(c.read_text()).is_latin()
    d = tmp_path / "d.txt"
    code, _, _ = run(capsys, "latin", "diagfix", "--input", str(a), "--symbol", "0", "--out", str(d))
    assert code == 0
    assert parse_latin(d.read_text()).has_constant_diagonal(0)


def test_latin_affine_listing(capsys):
    code, out, _ = run(capsys, "latin", "affine", "--q", "4")
    assert code == 0
    assert "3 pairwise uniform squares of order 4" in out


# ------------------------------------------------------------------- scheme


def test_scheme_build4_and_verify_round_trip(capsys, tmp_path):
    d = tmp_path / "classes"
    code, out, _ = run(capsys, "scheme", "build4", "--twin-delete", "2", "--out-dir", str(d))
    assert code == 0
    assert "4-class symmetric scheme on 160 points" in out
    files = ",".join(str(d / f"class-{i}.txt") for i in range(5))
    code, out, _ = run(capsys, "scheme", "verify", "--inputs", files)
    assert code == 0
    assert "4-class symmetric scheme on 160 points" in out


def test_scheme_verify_eig_of_the_pentagon_exits_one(capsys, tmp_path):
    """The pentagon's eigenvalues (-1 +- sqrt 5) / 2 leave Z[i]: the float
    proposal is declined, the exact splitting raises IrrationalEigenvalue,
    and the CLI reports it as a negative outcome with nothing on stdout."""
    files = []
    for i, diffs in enumerate([{0}, {1, 4}, {2, 3}]):
        f = tmp_path / f"class-{i}.txt"
        rows = [[int((y - x) % 5 in diffs) for y in range(5)] for x in range(5)]
        f.write_text(serialize_matrix(IntMatrix(rows)))
        files.append(str(f))
    code, out, err = run(capsys, "scheme", "verify", "--inputs", ",".join(files), "--eig", "--json")
    assert (code, out) == (1, "")
    assert err == "error: discriminant 5 is not a square\n"


def test_scheme_verify_eig_of_cubic_characters_exits_one(capsys, tmp_path):
    """Z_7's symmetric 3-class scheme has characters 2 cos(2 pi k / 7), roots
    of a cubic, which leave a three-dimensional space unsplit."""
    files = []
    for i, diffs in enumerate([{0}, {1, 6}, {2, 5}, {3, 4}]):
        f = tmp_path / f"class-{i}.txt"
        rows = [[int((y - x) % 7 in diffs) for y in range(7)] for x in range(7)]
        f.write_text(serialize_matrix(IntMatrix(rows)))
        files.append(str(f))
    code, out, err = run(capsys, "scheme", "verify", "--inputs", ",".join(files), "--eig")
    assert (code, out) == (1, "")
    assert err == "error: cannot separate a subspace of dimension > 2\n"


def test_scheme_verify_entry_past_int64_exits_two(capsys, tmp_path):
    f = tmp_path / "big.txt"
    f.write_text(f"2 2\n{2**70} 0\n0 1\n")
    code, out, err = run(capsys, "scheme", "verify", "--inputs", str(f))
    assert code == 2
    assert out == ""
    assert "error:" in err and "2**62" in err


def test_scheme_build4n_eig(capsys):
    code, out, _ = run(capsys, "scheme", "build4n", "--twin-delete", "2", "--eig")
    assert code == 0
    assert "non-symmetric scheme on 160 points" in out
    assert "8i" in out


def test_scheme_build5(capsys):
    code, out, _ = run(capsys, "scheme", "build5", "--twin-delete", "2", "--f", "2")
    assert code == 0
    assert "5-class symmetric scheme on 288 points" in out
    assert "(1, 9, 6, 72, 72, 128)" in out
    for f in ("-1", "0", "1", "9", "50"):
        code, out, err = run(capsys, "scheme", "build5", "--twin-delete", "2", "--f", f)
        assert code == 2
        assert f"error: --f must be in 2..8, got {f}" in err


def test_scheme_build6(capsys):
    code, out, _ = run(capsys, "scheme", "build6", "--twin", "2", "--f", "2")
    assert code == 0
    assert "6-class symmetric scheme on 224 points" in out
    for f in ("-1", "1", "7", "50"):
        code, out, err = run(capsys, "scheme", "build6", "--twin", "2", "--f", f)
        assert code == 2
        assert f"error: --f must be in 2..6, got {f}" in err


@pytest.mark.parametrize(
    "mode, split, q, fix",
    [
        ("build5", "--twin-delete", 9, lambda sq: with_min_symbol(sq, 1)),
        ("build6", "--twin", 7, lambda sq: force_constant_diagonal(sq, 0)),
    ],
    ids=["build5", "build6"],
)
def test_scheme_build5_and_build6_build_only_the_squares_they_use(
    capsys, monkeypatch, mode, split, q, fix
):
    family = [fix(sq) for sq in affine_ufs_family(q)]
    seen = []
    builder = getattr(cli, f"build_{mode[-1]}class")

    def record(h, rep, squares):
        seen.append(list(squares))
        return builder(h, rep, squares)

    def refuse(q):
        raise AssertionError(f"scheme {mode} built the whole family")

    monkeypatch.setattr(cli, f"build_{mode[-1]}class", record)
    monkeypatch.setattr(cli, "affine_ufs_family", refuse)
    for f in (2, 3, q - 1):
        code, _, _ = run(capsys, "scheme", mode, split, "2", "--f", str(f))
        assert code == 0
        assert seen.pop() == family[:f]


def test_scheme_build5_and_build6_non_prime_power_exit_two(capsys):
    """A split whose square order is not a prime power has no affine UFS
    family: bad input, like `latin affine --q 6`."""
    code, out, err = run(capsys, "scheme", "build5", "--twin", "2")
    assert (code, out) == (2, "")
    assert "error: 6 is not a prime power" in err
    code, out, err = run(capsys, "scheme", "build6", "--twin-delete", "2")
    assert (code, out) == (2, "")
    assert "error: 10 is not a prime power" in err


# sha256 of the stdout of `scheme ... --eig --json`, recorded while the
# eigenmatrices were still split on Fraction bases.
_SCHEME_EIG_JSON_SHA256 = {
    ("build4n", "--twin-delete", "2"): (
        "732bfb378944e855e3c72c5b4b17cc5418cfae48563b195e6fe44001a6b992a9"
    ),
    ("hamming", "--n", "4"): "a58bab8f247f94b11e578c16c2b394fe63ff1d2a610d982d1019bd043b0d0889",
}


@pytest.mark.parametrize("argv", list(_SCHEME_EIG_JSON_SHA256))
def test_scheme_eig_json_is_unchanged(capsys, argv):
    code, out, _ = run(capsys, "scheme", *argv, "--eig", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _SCHEME_EIG_JSON_SHA256[argv]


def test_scheme_hamming_and_fusion(capsys):
    code, out, _ = run(capsys, "scheme", "hamming", "--n", "4", "--eig")
    assert code == 0
    assert "4-class symmetric scheme on 16 points" in out
    code, out, _ = run(capsys, "scheme", "fusion", "--n", "6", "--variant", "03")
    assert code == 0
    assert "2-class symmetric scheme on 64 points" in out


def test_scheme_split_requires_source(capsys):
    code, _, err = run(capsys, "scheme", "build4")
    assert code == 2
    assert "--input" in err or "--twin" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--twin-delete", "2", "--rows", "1"],
        ["--twin", "2", "--rows", "1"],
        ["--rows", "1"],
        ["--input", "h.txt"],
    ],
)
def test_scheme_split_rows_go_with_input(capsys, argv):
    # --rows names rows of the --input matrix; beside a twin source it used to
    # be ignored
    code, out, err = run(capsys, "scheme", "build4", *argv)
    assert (code, out) == (2, "")
    assert "error: --input and --rows go together" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["scheme", "build4", "--twin-delete", "2", "--twin", "3"],
        ["scheme", "build4", "--twin", "2", "--input", "h.txt", "--rows", "1"],
        ["scheme", "build5", "--input", "h.txt", "--twin-delete", "2"],
        ["construct", "two-row", "--input", "h.txt", "--sylvester", "5"],
        ["construct", "core-tensor", "--input2", "h.txt", "--sylvester2", "2"],
    ],
)
def test_conflicting_sources_exit_two(capsys, argv):
    # each pair names two sources for one matrix; neither silently wins
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "kron", "--m", "3"],
        ["construct", "gram", "--q", "7"],
        ["construct", "sylvester", "--variant", "small"],
        ["analyze", "seidel", "--n", "16", "--ell", "6", "--a", "2", "--input", "x"],
        ["latin", "circle", "--v", "6", "--q", "5"],
        ["latin", "circle", "--v", "6", "--q", "99", "--pick", "3"],
        ["scheme", "hamming", "--n", "4", "--twin", "2"],
        ["scheme", "build4", "--twin-delete", "2", "--f", "3"],
    ],
)
def test_a_flag_the_mode_does_not_read_exits_two(capsys, argv):
    # each of these used to exit 0 and drop the flag
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_latin_affine_out_without_pick_exits_two(capsys, tmp_path):
    # --out writes one square; the listing of the whole family used to ignore it
    f = tmp_path / "sq.txt"
    code, out, err = run(capsys, "latin", "affine", "--q", "4", "--out", str(f))
    assert (code, out) == (2, "")
    assert "error: --out writes one square: it needs --pick" in err
    assert not f.exists()


def _hadsplit_process(*argv, cwd=None):
    src = str(Path(hadsplit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "hadsplit", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        cwd=cwd,
        timeout=120,
    )


def test_python_m_hadsplit_rejects_an_unread_flag():
    done = _hadsplit_process("construct", "kron", "--m", "3")
    assert (done.returncode, done.stdout) == (2, "")
    assert "unrecognized arguments: --m 3" in done.stderr


def _commands(parser, path=()):
    yield path
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, (*path, name))


def test_help_exits_zero_for_every_command_and_mode(capsys):
    # argparse %-formats help text, so a bad help string fails only here
    paths = list(_commands(build_parser()))
    # the root, 7 commands, and the modes of construct, analyze, latin and scheme
    assert len(paths) == 1 + 7 + 7 + 8 + 5 + 7
    for path in paths:
        with pytest.raises(SystemExit) as exc:
            main([*path, "--help"])
        assert exc.value.code == 0, path
        assert capsys.readouterr().out.startswith("usage: hadsplit"), path


def _readme_commands() -> list[list[str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("hadsplit ")]
    return [shlex.split(line)[1:] for line in lines]


def test_readme_command_lines_run(capsys, tmp_path, monkeypatch):
    # the README's examples, in order, against the per-mode flags
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()


# --------------------------------------------------------------------- misc


def test_workers_flag_is_rejected(capsys):
    # the global --workers option is gone: execution was always serial
    with pytest.raises(SystemExit) as exc:
        main(["--workers", "4", "enumerate", "table1", "--max-n", "16"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_bad_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_one_parser_serves_every_call(capsys, tmp_path, twin16):
    # main keeps one parser for the process; a usage error leaves it as it was
    f = tmp_path / "twin.txt"
    f.write_text(serialize_matrix(twin16.h))
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err
    argv = ("check", "--input", str(f), "--rows", "1,4,5,6,9,15", "--json")
    first = run(capsys, *argv)
    assert first[0] == 0 and json.loads(first[1])["data"]["ell"] == 6
    assert run(capsys, *argv) == first
    assert build_parser() is not build_parser()


def test_json_payload_shape(capsys, tmp_path):
    f = tmp_path / "h.txt"
    run(capsys, "construct", "sylvester", "--m", "1", "--out", str(f))
    code, out, _ = run(capsys, "check", "--input", str(f), "--rows", "0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "check"
    assert payload["outcome"] == "ok"
    assert payload["data"]["branch"] == "single-value"
    assert len(payload["digest"]) == 64
