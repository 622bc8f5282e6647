"""Command line front end.

Every subcommand prints a short human summary, or a structured run report
with --json. Exit codes: 0 for an affirmative result, 1 for a negative
determination (invalid split, infeasible parameters, inconclusive search),
2 for usage errors and bad input, which is any ValueError: the library's
ParseError, NotPrimePower and OddOrder, and UnknownDataset, subclass it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from importlib import resources
from pathlib import Path

from .core import (
    HadamardMatrix,
    HadsplitError,
    IntMatrix,
    paley_skew_core,
    parse_matrix,
    serialize_matrix,
    sylvester,
)
from .constructions import (
    core_tensor,
    gram_construction,
    kron_square,
    skew_core_bsh,
    twin_sylvester,
    two_row_split,
    witness_for,
)
from .feasibility import eigvec_search, enumerate_case_a, enumerate_seidel
from .gf import GF
from .latin import (
    LatinSquare,
    _affine_squares,
    affine_ufs_family,
    circle_symmetric,
    compose_ufs,
    force_constant_diagonal,
    is_ufs,
    parse_latin,
    serialize_latin,
    with_min_symbol,
)
from .schemes import (
    Scheme,
    build_4class_nonsymmetric,
    build_4class_symmetric,
    build_5class,
    build_6class,
    eigenmatrices,
    hamming_scheme,
    muzychuk_fusion,
    verify_scheme,
)
from .splitting import (
    BudgetExceeded,
    NotSplittable,
    SplitParams,
    check_split,
    classify_srg16,
    delete_allones_transform,
    derive_seidel,
    derive_srg_case_a,
    derive_srg_case_b,
    diagonalize_by_hadamard,
    equiangular_report,
    regular_hadamard_normalize,
    search_splits,
    unbiased_partner,
)


class UnknownDataset(HadsplitError, ValueError):
    """Requested bundled dataset does not exist."""


_BUNDLED = ("srg-36-10-4-2", "shrikhande", "lattice-4x4")


def bundled_data(name: str) -> IntMatrix:
    """Load a bundled dataset by name, with or without its .txt suffix."""
    stem = name[:-4] if name.endswith(".txt") else name
    if stem in _BUNDLED:
        text = resources.files("hadsplit.data").joinpath(f"{stem}.txt").read_text()
        return parse_matrix(text)
    raise UnknownDataset(f"no dataset {name!r}; bundled: {', '.join(_BUNDLED)}")


def _load_matrix(spec: str) -> IntMatrix:
    p = Path(spec)
    if p.is_file():
        return parse_matrix(p.read_text())
    if p.exists():
        raise ValueError(f"{spec!r} is not a file")
    return bundled_data(spec)


def _load_hadamard(spec: str) -> HadamardMatrix:
    return HadamardMatrix.from_matrix(_load_matrix(spec))


def _parse_rows(text: str) -> list[int]:
    out: list[int] = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "-" in tok[1:]:
            lo, hi = (int(x) for x in tok.split("-", 1))
            if lo > hi:
                raise ValueError(f"reversed row range {tok!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(tok))
    if not out:
        raise ValueError("empty row list")
    return out


class _Emitter:
    def __init__(self, args: argparse.Namespace):
        self.json = args.json
        self.command = args.subcommand
        self.lines: list[str] = []
        self.data: dict = {}
        self.outcome = "ok"
        self.code = 0

    def say(self, line: str) -> None:
        self.lines.append(line)

    def finish(self) -> int:
        if self.json:
            payload = {"command": self.command, "outcome": self.outcome, "data": self.data}
            digest = hashlib.sha256(
                json.dumps(payload, sort_keys=True, default=str).encode()
            ).hexdigest()
            payload["digest"] = digest
            print(json.dumps(payload, indent=2, default=str))
        else:
            for line in self.lines:
                print(line)
        return self.code

    def negative(self, outcome: str, line: str) -> None:
        self.outcome = outcome
        self.code = 1
        self.say(line)


def _write_text(noun: str, text: str, path: str | None, em: _Emitter) -> None:
    """Write a serialized matrix or square to path, or report it under the
    key noun: as data with --json, on stdout without."""
    if path:
        Path(path).write_text(text)
        em.data["out"] = path
        em.say(f"{noun} written to {path}")
    else:
        em.data[noun] = text
        if not em.json:
            sys.stdout.write(text)


def _describe_split(em: _Emitter, report) -> None:
    n, ell, a, b = report.params.astuple()
    em.data.update(report.as_dict())
    em.say(f"split parameters (n, ell, a, b) = ({n}, {ell}, {a}, {b})")
    em.say(f"rows: {','.join(str(r) for r in report.rows)}")
    em.say(f"branch: {report.branch}" + (f" (also {report.alt_branch})" if report.alt_branch else ""))
    if report.srg is not None:
        em.say(f"block graph parameters: {report.srg.astuple()}")
    wit = witness_for(n, ell, a, b)
    em.data["witness"] = wit
    if wit:
        em.say(f"matches construction: {wit}")


# ---------------------------------------------------------------- construct


def _construct_sylvester(args: argparse.Namespace, em: _Emitter) -> None:
    h = sylvester(args.m)
    em.say(f"Sylvester matrix of order {h.order}")
    em.data["order"] = h.order
    _write_text("matrix", serialize_matrix(h), args.out, em)


def _construct_twin(args: argparse.Namespace, em: _Emitter) -> None:
    tw = twin_sylvester(args.m)
    em.data["order"] = tw.h.order
    for label, rows, rep in (
        ("block", tw.h1_rows, tw.reports[0]),
        ("twin-1", tw.h2_rows, tw.reports[1]),
        ("twin-2", tw.h3_rows, tw.reports[2]),
    ):
        em.say(f"{label}: params {rep.params.astuple()} rows {','.join(map(str, rows))}")
        em.data[label] = rep.as_dict()
    _write_text("matrix", serialize_matrix(tw.h), args.out, em)


def _emit_split(inst, args: argparse.Namespace, em: _Emitter) -> None:
    _describe_split(em, inst.report)
    _write_text("matrix", serialize_matrix(inst.h), args.out, em)


def _source_hadamard(path: str | None, exponent: int) -> HadamardMatrix:
    return _load_hadamard(path) if path else sylvester(exponent)


def _construct_skew_core(args: argparse.Namespace, em: _Emitter) -> None:
    _emit_split(skew_core_bsh(paley_skew_core(args.q)), args, em)


def _construct_kron(args: argparse.Namespace, em: _Emitter) -> None:
    h = _source_hadamard(args.input, args.sylvester)
    _emit_split(kron_square(h, args.variant), args, em)


def _construct_gram(args: argparse.Namespace, em: _Emitter) -> None:
    _emit_split(gram_construction(_source_hadamard(args.input, args.sylvester)), args, em)


def _construct_core_tensor(args: argparse.Namespace, em: _Emitter) -> None:
    h = _source_hadamard(args.input, args.sylvester)
    _emit_split(core_tensor(h, _source_hadamard(args.input2, args.sylvester2)), args, em)


def _construct_two_row(args: argparse.Namespace, em: _Emitter) -> None:
    _emit_split(two_row_split(_source_hadamard(args.input, args.sylvester)), args, em)


# -------------------------------------------------------------------- check


def _cmd_check(args: argparse.Namespace, em: _Emitter) -> None:
    h = _load_hadamard(args.input)
    try:
        report = check_split(h, _parse_rows(args.rows))
    except NotSplittable as exc:
        em.negative("not-splittable", f"not a balanced split: {exc}")
        return
    _describe_split(em, report)
    for name, ok in report.checks.items():
        em.say(f"check {name}: {'pass' if ok else 'fail'}")


# ------------------------------------------------------------------ analyze


def _analyze_seidel(args: argparse.Namespace, em: _Emitter) -> None:
    der = derive_seidel(args.n, args.ell, args.a)
    em.data["params"] = der.params.astuple()
    em.data["srg"] = der.srg.astuple()
    em.data["s_spectrum"] = [list(t) for t in der.s_spectrum]
    em.say(f"split parameters: {der.params.astuple()}")
    em.say(f"block graph: {der.srg.astuple()}")
    for val, mult in der.s_spectrum:
        em.say(f"normalized Gram eigenvalue {val} with multiplicity {mult}")


def _analyze_srg(args: argparse.Namespace, em: _Emitter) -> None:
    derive = derive_srg_case_b if args.case == "b" else derive_srg_case_a
    b, srg = derive(args.n, args.ell, args.a)
    em.data.update({"b": b, "srg": srg.astuple()})
    em.say(f"off-diagonal value b = {b}")
    em.say(f"block graph: {srg.astuple()}")


def _analyze_equiangular(args: argparse.Namespace, em: _Emitter) -> None:
    rep = equiangular_report(SplitParams(args.n, args.ell, args.a, args.b))
    em.data.update(
        {
            "lines": args.n,
            "dimension": rep.m,
            "alpha_sq": str(rep.alpha_sq),
            "bound": str(rep.bound),
            "attained": rep.attained,
        }
    )
    em.say(f"{args.n} equiangular lines in dimension {rep.m} with squared cosine {rep.alpha_sq}")
    em.say(f"relative bound {rep.bound}{' (attained)' if rep.attained else ''}")


def _analyze_unbiased(args: argparse.Namespace, em: _Emitter) -> None:
    h = _load_hadamard(args.input)
    partner = unbiased_partner(h, check_split(h, _parse_rows(args.rows)))
    em.say(f"unbiased partner of order {partner.order}")
    _write_text("matrix", serialize_matrix(partner), args.out, em)


def _analyze_regular(args: argparse.Namespace, em: _Emitter) -> None:
    h = _load_hadamard(args.input)
    reg = regular_hadamard_normalize(h, check_split(h, _parse_rows(args.rows)))
    rs = sorted(set(reg.row_sums()))
    em.data["row_sums"] = rs
    em.say(f"regular form with constant row sum {rs}")
    _write_text("matrix", serialize_matrix(reg), args.out, em)


def _analyze_diag(args: argparse.Namespace, em: _Emitter) -> None:
    layout = diagonalize_by_hadamard(_load_matrix(args.graph), _load_hadamard(args.input))
    em.data["multiplicities"] = {str(k): v for k, v in layout.multiplicities.items()}
    em.say("rows diagonalize the graph; eigenvalue multiplicities:")
    for val, mult in sorted(layout.multiplicities.items()):
        em.say(f"  {val}: {mult}")


def _analyze_srg16(args: argparse.Namespace, em: _Emitter) -> None:
    name = classify_srg16(_load_matrix(args.graph))
    em.data["name"] = name
    em.say(f"graph is the {name} graph")


def _analyze_search(args: argparse.Namespace, em: _Emitter) -> None:
    h = _load_hadamard(args.input)
    found = search_splits(h, args.ell, budget=args.budget)
    em.data["splits"] = [r.as_dict() for r in found]
    if not found:
        em.negative("none-found", f"no balanced split on {args.ell} rows")
    for r in found:
        em.say(f"params {r.params.astuple()} rows {','.join(map(str, r.rows))}")


# ---------------------------------------------------------------- enumerate


def _cmd_enumerate(args: argparse.Namespace, em: _Emitter) -> None:
    if args.table == "table1":
        rows = enumerate_seidel(args.max_n)
    else:
        rows = enumerate_case_a(args.max_n)
    em.data["rows"] = [r.as_dict() for r in rows]
    em.data["count"] = len(rows)
    for r in rows:
        n, ell, a, b = r.params.astuple()
        wit = f"  [{r.witness}]" if r.witness else ""
        em.say(
            f"n={n:5d} ell={ell:4d} a={a:3d} b={b:4d} srg={r.srg.astuple()} {r.status}{wit}"
        )
    em.say(f"{len(rows)} parameter sets")


# ----------------------------------------------------------------- nonexist


def _cmd_nonexist(args: argparse.Namespace, em: _Emitter) -> None:
    res = eigvec_search(_load_matrix(args.graph), args.ell, args.a, args.b)
    em.data.update(
        {
            "eigenspace_dim": res.eigenspace_dim,
            "survivors": len(res.survivors),
            "best_size": res.best_size,
            "certifies_nonexistence": res.certifies_nonexistence,
        }
    )
    em.say(f"eigenspace dimension {res.eigenspace_dim}")
    em.say(f"{len(res.survivors)} admissible sign vectors, largest orthogonal set {res.best_size}")
    if res.certifies_nonexistence:
        em.say("no split with these parameters embeds this graph")
    else:
        em.negative("inconclusive", "search does not rule the parameters out")


# -------------------------------------------------------------------- latin


def _load_latin(spec: str) -> LatinSquare:
    return parse_latin(Path(spec).read_text())


def _latin_circle(args: argparse.Namespace, em: _Emitter) -> None:
    square = circle_symmetric(args.v)
    _write_text("square", serialize_latin(square), args.out, em)


def _latin_affine(args: argparse.Namespace, em: _Emitter) -> None:
    field = GF(args.q)
    if args.pick is not None:
        if not 0 <= args.pick < args.q - 1:
            raise ValueError(f"--pick must be in 0..{args.q - 2}, got {args.pick}")
        # member k is the square a = k + 1; the others are never built
        (square,) = _affine_squares(field, [args.pick + 1])
        _write_text("square", serialize_latin(square), args.out, em)
        return
    if args.out:
        raise ValueError("--out writes one square: it needs --pick")
    fam = affine_ufs_family(args.q)
    em.data["count"] = len(fam)
    for sq in fam:
        if not em.json:
            sys.stdout.write(serialize_latin(sq) + "\n")
    em.data["squares"] = [serialize_latin(sq) for sq in fam]
    em.say(f"{len(fam)} pairwise uniform squares of order {args.q}")


def _latin_check(args: argparse.Namespace, em: _Emitter) -> None:
    sq = _load_latin(args.input)
    em.data.update(
        {
            "latin": sq.is_latin(),
            "symmetric": sq.is_symmetric(),
            "constant_diagonal": sq.has_constant_diagonal(),
        }
    )
    em.say(f"latin: {sq.is_latin()}")
    em.say(f"symmetric: {sq.is_symmetric()}")
    em.say(f"constant diagonal: {sq.has_constant_diagonal()}")
    if args.against:
        other = _load_latin(args.against)
        ufs = is_ufs(sq, other)
        em.data["ufs"] = ufs
        em.say(f"uniformly one-agreeing with {args.against}: {ufs}")
        if not ufs:
            em.negative("not-ufs", "pair fails the one-agreement test")


def _latin_compose(args: argparse.Namespace, em: _Emitter) -> None:
    square = compose_ufs(_load_latin(args.input), _load_latin(args.against))
    _write_text("square", serialize_latin(square), args.out, em)


def _latin_diagfix(args: argparse.Namespace, em: _Emitter) -> None:
    square = force_constant_diagonal(_load_latin(args.input), args.symbol)
    _write_text("square", serialize_latin(square), args.out, em)


# ------------------------------------------------------------------- scheme


def _describe_scheme(em: _Emitter, scheme: Scheme, args: argparse.Namespace) -> None:
    em.data["size"] = scheme.size
    em.data["classes"] = scheme.classes
    em.data["valencies"] = list(scheme.valencies)
    em.data["symmetric"] = scheme.is_symmetric
    em.say(
        f"{scheme.classes}-class {'symmetric' if scheme.is_symmetric else 'non-symmetric'}"
        f" scheme on {scheme.size} points, valencies {scheme.valencies}"
    )
    if args.out_dir:
        d = Path(args.out_dir)
        d.mkdir(parents=True, exist_ok=True)
        for i, m in enumerate(scheme.matrices):
            (d / f"class-{i}.txt").write_text(serialize_matrix(m))
        em.data["out_dir"] = str(d)
        em.say(f"class matrices written to {d}")
    if args.eig:
        tables = eigenmatrices(scheme)
        em.data["p"] = [[repr(e) for e in row] for row in tables.p]
        em.data["q"] = [[repr(e) for e in row] for row in tables.q]
        em.data["multiplicities"] = list(tables.multiplicities)
        em.say("first eigenmatrix rows (one eigenspace per row):")
        for row, mult in zip(tables.p, tables.multiplicities):
            em.say("  " + " ".join(f"{e!r:>8}" for e in row) + f"   multiplicity {mult}")


def _scheme_split(args: argparse.Namespace):
    if (args.input is None) != (args.rows is None):
        raise ValueError("--input and --rows go together")
    if args.input is not None:
        h = _load_hadamard(args.input)
        return h, check_split(h, _parse_rows(args.rows))
    if args.twin_delete is not None:
        tw = twin_sylvester(args.twin_delete)
        return tw.h, delete_allones_transform(tw.h, tw.reports[1])
    if args.twin is not None:
        tw = twin_sylvester(args.twin)
        return tw.h, tw.reports[1]
    raise ValueError("need --twin-delete/--twin or --input with --rows")


def _first_squares(q: int, f: int) -> list[LatinSquare]:
    """The first f squares of GF(q)'s affine family; the others are never built."""
    field = GF(q)
    if not 2 <= f <= q - 1:
        raise ValueError(f"--f must be in 2..{q - 1}, got {f}")
    return _affine_squares(field, range(1, f + 1))


def _scheme_build4(
    args: argparse.Namespace, em: _Emitter, builder=build_4class_symmetric
) -> None:
    h, rep = _scheme_split(args)
    square = _load_latin(args.square) if args.square else None
    _describe_scheme(em, builder(h, rep, square), args)


def _scheme_build5(args: argparse.Namespace, em: _Emitter) -> None:
    h, rep = _scheme_split(args)
    fam = [with_min_symbol(sq, 1) for sq in _first_squares(rep.params.ell, args.f)]
    _describe_scheme(em, build_5class(h, rep, fam), args)


def _scheme_build6(args: argparse.Namespace, em: _Emitter) -> None:
    h, rep = _scheme_split(args)
    fam = [force_constant_diagonal(sq, 0) for sq in _first_squares(rep.params.ell + 1, args.f)]
    _describe_scheme(em, build_6class(h, rep, fam), args)


def _scheme_hamming(args: argparse.Namespace, em: _Emitter) -> None:
    _describe_scheme(em, hamming_scheme(args.n), args)


def _scheme_fusion(args: argparse.Namespace, em: _Emitter) -> None:
    _describe_scheme(em, muzychuk_fusion(args.n, args.variant), args)


def _scheme_verify(args: argparse.Namespace, em: _Emitter) -> None:
    mats = [_load_matrix(spec) for spec in args.inputs.split(",")]
    _describe_scheme(em, verify_scheme(mats), args)


# --------------------------------------------------------------------- main


def _modes(sp, name: str, dest: str, help: str):
    """A command whose required positional picks one of its mode parsers."""
    return sp.add_parser(name, help=help).add_subparsers(dest=dest, required=True)


def _leaf(sp, name: str, func, help: str | None = None) -> argparse.ArgumentParser:
    """The parser of a command or mode that main runs as func(args, em)."""
    p = sp.add_parser(name, help=help)
    p.add_argument("--json", action="store_true", help="emit a structured run report")
    p.set_defaults(func=func)
    return p


def _add_ints(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(f"--{name}", type=int, required=True)


def _add_split(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="Hadamard matrix file")
    p.add_argument("--rows", required=True, help="comma list, ranges like 2-13 allowed")


def _add_source(p: argparse.ArgumentParser, suffix: str, what: str) -> None:
    one = p.add_mutually_exclusive_group()
    one.add_argument(f"--input{suffix}", help=f"matrix file of the {what}")
    one.add_argument(
        f"--sylvester{suffix}", type=int, default=1, help=f"Sylvester exponent of the {what}"
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser. Each mode declares only the flags it reads, so
    argparse rejects any other flag as a usage error."""
    ap = argparse.ArgumentParser(
        prog="hadsplit",
        description="balanced splits of Hadamard matrices and their schemes",
    )
    sp = ap.add_subparsers(dest="subcommand", required=True)

    con = _modes(sp, "construct", "kind", "build a split by a named construction")
    for kind, func in (("sylvester", _construct_sylvester), ("twin", _construct_twin)):
        _leaf(con, kind, func).add_argument("--m", type=int, default=1, help="Sylvester exponent")
    p = _leaf(con, "skew-core", _construct_skew_core)
    p.add_argument("--q", type=int, default=3, help="order of the skew core, a prime power")
    for kind, func in (
        ("kron", _construct_kron),
        ("gram", _construct_gram),
        ("core-tensor", _construct_core_tensor),
        ("two-row", _construct_two_row),
    ):
        _add_source(_leaf(con, kind, func), "", "source")
    con.choices["kron"].add_argument("--variant", choices=["large", "small"], default="large")
    _add_source(con.choices["core-tensor"], "2", "second factor")
    for p in con.choices.values():
        p.add_argument("--out", help="write the matrix here")

    _add_split(_leaf(sp, "check", _cmd_check, "validate a row subset as a balanced split"))

    an = _modes(sp, "analyze", "mode", "parameter derivations and matrix transforms")
    _add_ints(_leaf(an, "seidel", _analyze_seidel), "n", "ell", "a")
    p = _leaf(an, "srg", _analyze_srg)
    _add_ints(p, "n", "ell", "a")
    p.add_argument("--case", choices=["a", "b"], default="a")
    _add_ints(_leaf(an, "equiangular", _analyze_equiangular), "n", "ell", "a", "b")
    for mode, func in (("unbiased", _analyze_unbiased), ("regular", _analyze_regular)):
        p = _leaf(an, mode, func)
        _add_split(p)
        p.add_argument("--out", help="write the matrix here")
    p = _leaf(an, "diag", _analyze_diag)
    p.add_argument("--input", required=True, help="Hadamard matrix file")
    p.add_argument("--graph", required=True, help="adjacency file or bundled dataset name")
    p = _leaf(an, "srg16", _analyze_srg16)
    p.add_argument("--graph", required=True, help="adjacency file or bundled dataset name")
    p = _leaf(an, "search", _analyze_search)
    p.add_argument("--input", required=True, help="Hadamard matrix file")
    _add_ints(p, "ell")
    p.add_argument("--budget", type=int, default=10**7, help="most row subsets to try")

    p = _leaf(sp, "enumerate", _cmd_enumerate, "feasible parameter tables")
    p.add_argument("table", choices=["table1", "table2"])
    p.add_argument("--max-n", type=int, required=True)

    p = _leaf(sp, "nonexist", _cmd_nonexist, "certify nonexistence by eigenvector search")
    p.add_argument("--graph", required=True, help="adjacency file or bundled dataset name")
    _add_ints(p, "ell", "a", "b")

    lt = _modes(sp, "latin", "mode", "latin square utilities")
    p = _leaf(lt, "circle", _latin_circle)
    p.add_argument("--v", type=int, required=True, help="order, even")
    p = _leaf(lt, "affine", _latin_affine)
    p.add_argument("--q", type=int, required=True, help="field order, a prime power")
    p.add_argument("--pick", type=int, help="emit just this member of the family")
    p = _leaf(lt, "check", _latin_check)
    p.add_argument("--input", required=True)
    p.add_argument("--against", help="test the pair for uniform one-agreement")
    p = _leaf(lt, "compose", _latin_compose)
    p.add_argument("--input", required=True)
    p.add_argument("--against", required=True)
    p = _leaf(lt, "diagfix", _latin_diagfix)
    p.add_argument("--input", required=True)
    p.add_argument("--symbol", type=int, default=0)
    for mode in ("circle", "affine", "compose", "diagfix"):
        lt.choices[mode].add_argument("--out", help="write the square here")

    sc = _modes(sp, "scheme", "mode", "association scheme builders")
    for mode, func in (
        ("build4", _scheme_build4),
        ("build4n", functools.partial(_scheme_build4, builder=build_4class_nonsymmetric)),
        ("build5", _scheme_build5),
        ("build6", _scheme_build6),
    ):
        p = _leaf(sc, mode, func)
        src = p.add_mutually_exclusive_group()
        src.add_argument(
            "--twin-delete", type=int, help="use the deleted twin split at this exponent"
        )
        src.add_argument("--twin", type=int, help="use the twin split at this exponent")
        src.add_argument("--input", help="Hadamard matrix file")
        p.add_argument("--rows", help="the split's rows in the --input matrix")
    for mode in ("build4", "build4n"):
        sc.choices[mode].add_argument("--square", help="latin square file")
    for mode in ("build5", "build6"):
        sc.choices[mode].add_argument("--f", type=int, default=2, help="number of squares")
    for mode, func in (("hamming", _scheme_hamming), ("fusion", _scheme_fusion)):
        _leaf(sc, mode, func).add_argument("--n", type=int, required=True, help="word length")
    sc.choices["fusion"].add_argument("--variant", choices=["01", "03"], default="01")
    p = _leaf(sc, "verify", _scheme_verify)
    p.add_argument("--inputs", required=True, help="comma list of class matrix files")
    for p in sc.choices.values():
        p.add_argument("--eig", action="store_true", help="also print the eigenmatrix")
        p.add_argument("--out-dir", help="write class matrices here")

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call. Parsing leaves a
    parser as it was, so one serves every call in the process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code. A usage error, such as a
    missing required flag or a flag the mode does not read, raises
    SystemExit(2) from argparse instead."""
    args = _parser().parse_args(argv)
    em = _Emitter(args)
    try:
        args.func(args, em)
        return em.finish()
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        # a bare MemoryError has no message
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        # a search stopped at its budget decided nothing: an inconclusive
        # outcome with exit 1, reported like any other, not an error
        em.data["budget_exceeded"] = str(exc)
        em.negative("inconclusive", f"search stopped: {exc}")
        return em.finish()
    except HadsplitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
