"""Command line front end.

Every subcommand prints a short human summary, or a structured run report
with --json. Exit codes: 0 for an affirmative result, 1 for a negative
determination (invalid split, infeasible parameters, inconclusive search),
2 for bad input or usage.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from importlib import resources
from pathlib import Path

from .core import (
    HadamardMatrix,
    HadsplitError,
    IntMatrix,
    ParseError,
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
from .gf import NotPrimePower
from .latin import (
    LatinSquare,
    OddOrder,
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


class UnknownDataset(HadsplitError):
    """Requested bundled dataset does not exist."""


_BUNDLED = ("srg-36-10-4-2", "shrikhande", "lattice-4x4")


def bundled_data(name: str) -> IntMatrix:
    """Load a named dataset, honoring the HADSPLIT_DATA_DIR override."""
    stem = name[:-4] if name.endswith(".txt") else name
    override = os.environ.get("HADSPLIT_DATA_DIR")
    if override:
        p = Path(override) / f"{stem}.txt"
        if p.is_file():
            return parse_matrix(p.read_text())
    if stem in _BUNDLED:
        text = resources.files("hadsplit.data").joinpath(f"{stem}.txt").read_text()
        return parse_matrix(text)
    raise UnknownDataset(f"no dataset {name!r}; bundled: {', '.join(_BUNDLED)}")


def _load_matrix(spec: str) -> IntMatrix:
    p = Path(spec)
    if p.is_file():
        return parse_matrix(p.read_text())
    return bundled_data(spec)


def _load_hadamard(spec: str) -> HadamardMatrix:
    return HadamardMatrix.from_matrix(_load_matrix(spec))


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise ValueError("missing required option(s): " + ", ".join(f"--{n}" for n in missing))


def _parameter(build, value: int):
    """build(value), reporting a value it cannot build for as bad input."""
    try:
        return build(value)
    except (NotPrimePower, OddOrder) as exc:
        raise ValueError(str(exc)) from exc


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
        self.json = bool(getattr(args, "json", False))
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


def _write_matrix(m: IntMatrix, path: str | None, em: _Emitter) -> None:
    text = serialize_matrix(m)
    if path:
        Path(path).write_text(text)
        em.data["out"] = path
        em.say(f"matrix written to {path}")
    else:
        em.data["matrix"] = text
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


def _cmd_construct(args: argparse.Namespace) -> int:
    em = _Emitter(args)
    kind = args.kind
    if kind == "sylvester":
        h = sylvester(args.m)
        em.say(f"Sylvester matrix of order {h.order}")
        em.data["order"] = h.order
        _write_matrix(h, args.out, em)
        return em.finish()

    if kind == "twin":
        tw = twin_sylvester(args.m)
        em.data["order"] = tw.h.order
        for label, rows, rep in (
            ("block", tw.h1_rows, tw.reports[0]),
            ("twin-1", tw.h2_rows, tw.reports[1]),
            ("twin-2", tw.h3_rows, tw.reports[2]),
        ):
            em.say(f"{label}: params {rep.params.astuple()} rows {','.join(map(str, rows))}")
            em.data[label] = rep.as_dict()
        _write_matrix(tw.h, args.out, em)
        return em.finish()

    if kind == "skew-core":
        inst = skew_core_bsh(_parameter(paley_skew_core, args.q))
    elif kind == "kron":
        inst = kron_square(_source_hadamard(args.input, args.sylvester), args.variant)
    elif kind == "gram":
        inst = gram_construction(_source_hadamard(args.input, args.sylvester))
    elif kind == "core-tensor":
        h = _source_hadamard(args.input, args.sylvester)
        inst = core_tensor(h, _source_hadamard(args.input2, args.sylvester2))
    elif kind == "two-row":
        inst = two_row_split(_source_hadamard(args.input, args.sylvester))
    else:
        raise ValueError(f"unknown construction {kind!r}")
    _describe_split(em, inst.report)
    _write_matrix(inst.h, args.out, em)
    return em.finish()


def _source_hadamard(path: str | None, exponent: int) -> HadamardMatrix:
    return _load_hadamard(path) if path else sylvester(exponent)


# -------------------------------------------------------------------- check


def _cmd_check(args: argparse.Namespace) -> int:
    em = _Emitter(args)
    h = _load_hadamard(args.input)
    try:
        report = check_split(h, _parse_rows(args.rows))
    except NotSplittable as exc:
        em.negative("not-splittable", f"not a balanced split: {exc}")
        return em.finish()
    _describe_split(em, report)
    for name, ok in report.checks.items():
        em.say(f"check {name}: {'pass' if ok else 'fail'}")
    return em.finish()


# ------------------------------------------------------------------ analyze


def _cmd_analyze(args: argparse.Namespace) -> int:
    em = _Emitter(args)
    mode = args.mode

    if mode == "seidel":
        _require(args, "n", "ell", "a")
        der = derive_seidel(args.n, args.ell, args.a)
        em.data["params"] = der.params.astuple()
        em.data["srg"] = der.srg.astuple()
        em.data["s_spectrum"] = [list(t) for t in der.s_spectrum]
        em.say(f"split parameters: {der.params.astuple()}")
        em.say(f"block graph: {der.srg.astuple()}")
        for val, mult in der.s_spectrum:
            em.say(f"normalized Gram eigenvalue {val} with multiplicity {mult}")
        return em.finish()

    if mode == "srg":
        _require(args, "n", "ell", "a")
        derive = derive_srg_case_b if args.case == "b" else derive_srg_case_a
        b, srg = derive(args.n, args.ell, args.a)
        em.data.update({"b": b, "srg": srg.astuple()})
        em.say(f"off-diagonal value b = {b}")
        em.say(f"block graph: {srg.astuple()}")
        return em.finish()

    if mode == "equiangular":
        _require(args, "n", "ell", "a", "b")
        rep = equiangular_report(SplitParams(args.n, args.ell, args.a, args.b))
        em.data.update(
            {
                "lines": rep.m,
                "alpha_sq": str(rep.alpha_sq),
                "bound": str(rep.bound),
                "attained": rep.attained,
            }
        )
        em.say(f"{rep.m} equiangular lines with squared cosine {rep.alpha_sq}")
        em.say(f"relative bound {rep.bound}{' (attained)' if rep.attained else ''}")
        return em.finish()

    if mode == "unbiased":
        _require(args, "input", "rows")
        h = _load_hadamard(args.input)
        partner = unbiased_partner(h, check_split(h, _parse_rows(args.rows)))
        em.say(f"unbiased partner of order {partner.order}")
        _write_matrix(partner, args.out, em)
        return em.finish()

    if mode == "regular":
        _require(args, "input", "rows")
        h = _load_hadamard(args.input)
        reg = regular_hadamard_normalize(h, check_split(h, _parse_rows(args.rows)))
        rs = sorted(set(reg.row_sums()))
        em.data["row_sums"] = rs
        em.say(f"regular form with constant row sum {rs}")
        _write_matrix(reg, args.out, em)
        return em.finish()

    if mode == "diag":
        _require(args, "input", "graph")
        layout = diagonalize_by_hadamard(_load_matrix(args.graph), _load_hadamard(args.input))
        em.data["multiplicities"] = {str(k): v for k, v in layout.multiplicities.items()}
        em.say("rows diagonalize the graph; eigenvalue multiplicities:")
        for val, mult in sorted(layout.multiplicities.items()):
            em.say(f"  {val}: {mult}")
        return em.finish()

    if mode == "srg16":
        _require(args, "graph")
        name = classify_srg16(_load_matrix(args.graph))
        em.data["name"] = name
        em.say(f"graph is the {name} graph")
        return em.finish()

    if mode == "search":
        _require(args, "input", "ell")
        h = _load_hadamard(args.input)
        try:
            found = search_splits(h, args.ell, budget=args.budget)
        except BudgetExceeded as exc:
            em.data["budget_exceeded"] = str(exc)
            em.negative("inconclusive", f"search stopped: {exc}")
            return em.finish()
        em.data["splits"] = [r.as_dict() for r in found]
        if not found:
            em.negative("none-found", f"no balanced split on {args.ell} rows")
            return em.finish()
        for r in found:
            em.say(f"params {r.params.astuple()} rows {','.join(map(str, r.rows))}")
        return em.finish()

    raise ValueError(f"unknown analyze mode {mode!r}")


# ---------------------------------------------------------------- enumerate


def _cmd_enumerate(args: argparse.Namespace) -> int:
    em = _Emitter(args)
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
    return em.finish()


# ----------------------------------------------------------------- nonexist


def _cmd_nonexist(args: argparse.Namespace) -> int:
    em = _Emitter(args)
    try:
        res = eigvec_search(_load_matrix(args.graph), args.ell, args.a, args.b)
    except BudgetExceeded as exc:
        em.data["budget_exceeded"] = str(exc)
        em.negative("inconclusive", f"search stopped: {exc}")
        return em.finish()
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
    return em.finish()


# -------------------------------------------------------------------- latin


def _load_latin(spec: str) -> LatinSquare:
    return parse_latin(Path(spec).read_text())


def _emit_square(sq: LatinSquare, args: argparse.Namespace, em: _Emitter) -> None:
    text = serialize_latin(sq)
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text)
        em.data["out"] = out
        em.say(f"square written to {out}")
    else:
        em.data["square"] = text
        if not em.json:
            sys.stdout.write(text)


def _cmd_latin(args: argparse.Namespace) -> int:
    em = _Emitter(args)
    mode = args.mode

    if mode == "circle":
        _require(args, "v")
        _emit_square(_parameter(circle_symmetric, args.v), args, em)
        return em.finish()

    if mode == "affine":
        _require(args, "q")
        fam = _parameter(affine_ufs_family, args.q)
        if args.pick is not None:
            if not 0 <= args.pick < len(fam):
                raise ValueError(f"--pick must be in 0..{len(fam) - 1}, got {args.pick}")
            _emit_square(fam[args.pick], args, em)
            return em.finish()
        em.data["count"] = len(fam)
        for sq in fam:
            if not em.json:
                sys.stdout.write(serialize_latin(sq) + "\n")
        em.data["squares"] = [serialize_latin(sq) for sq in fam]
        em.say(f"{len(fam)} pairwise uniform squares of order {args.q}")
        return em.finish()

    if mode == "check":
        _require(args, "input")
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
        return em.finish()

    if mode == "compose":
        _require(args, "input", "against")
        out = compose_ufs(_load_latin(args.input), _load_latin(args.against))
        _emit_square(out, args, em)
        return em.finish()

    if mode == "diagfix":
        _require(args, "input")
        fixed = force_constant_diagonal(_load_latin(args.input), args.symbol)
        _emit_square(fixed, args, em)
        return em.finish()

    raise ValueError(f"unknown latin mode {mode!r}")


# ------------------------------------------------------------------- scheme


def _twin_delete_split(m_exponent: int):
    tw = twin_sylvester(m_exponent)
    rep = delete_allones_transform(tw.h, tw.reports[1])
    return tw.h, rep


def _describe_scheme(em: _Emitter, scheme: Scheme, args: argparse.Namespace) -> None:
    em.data["size"] = scheme.size
    em.data["classes"] = scheme.classes
    em.data["valencies"] = list(scheme.valencies)
    em.data["symmetric"] = scheme.is_symmetric
    em.say(
        f"{scheme.classes}-class {'symmetric' if scheme.is_symmetric else 'non-symmetric'}"
        f" scheme on {scheme.size} points, valencies {scheme.valencies}"
    )
    out_dir = getattr(args, "out_dir", None)
    if out_dir:
        d = Path(out_dir)
        d.mkdir(parents=True, exist_ok=True)
        for i, m in enumerate(scheme.matrices):
            (d / f"class-{i}.txt").write_text(serialize_matrix(m))
        em.data["out_dir"] = str(d)
        em.say(f"class matrices written to {d}")
    if getattr(args, "eig", False):
        tables = eigenmatrices(scheme)
        em.data["p"] = [[repr(e) for e in row] for row in tables.p]
        em.data["q"] = [[repr(e) for e in row] for row in tables.q]
        em.data["multiplicities"] = list(tables.multiplicities)
        em.say("first eigenmatrix rows (one eigenspace per row):")
        for row, mult in zip(tables.p, tables.multiplicities):
            em.say("  " + " ".join(f"{e!r:>8}" for e in row) + f"   multiplicity {mult}")


def _scheme_split(args: argparse.Namespace):
    if getattr(args, "twin_delete", None) is not None:
        return _twin_delete_split(args.twin_delete)
    if getattr(args, "twin", None) is not None:
        tw = twin_sylvester(args.twin)
        return tw.h, tw.reports[1]
    if not getattr(args, "input", None) or not getattr(args, "rows", None):
        raise ValueError("need --twin-delete/--twin or --input with --rows")
    h = _load_hadamard(args.input)
    return h, check_split(h, _parse_rows(args.rows))


def _first_squares(fam: list[LatinSquare], f: int) -> list[LatinSquare]:
    if not 2 <= f <= len(fam):
        raise ValueError(f"--f must be in 2..{len(fam)}, got {f}")
    return fam[:f]


def _cmd_scheme(args: argparse.Namespace) -> int:
    em = _Emitter(args)
    mode = args.mode

    if mode in ("build4", "build4n"):
        h, rep = _scheme_split(args)
        square = parse_latin(Path(args.square).read_text()) if args.square else None
        builder = build_4class_nonsymmetric if mode == "build4n" else build_4class_symmetric
        scheme = builder(h, rep, square)
    elif mode == "build5":
        h, rep = _scheme_split(args)
        fam = [with_min_symbol(sq, 1) for sq in _parameter(affine_ufs_family, rep.params.ell)]
        scheme = build_5class(h, rep, _first_squares(fam, args.f))
    elif mode == "build6":
        h, rep = _scheme_split(args)
        fam = [
            force_constant_diagonal(sq, 0)
            for sq in _parameter(affine_ufs_family, rep.params.ell + 1)
        ]
        scheme = build_6class(h, rep, _first_squares(fam, args.f))
    elif mode == "hamming":
        _require(args, "n")
        scheme = hamming_scheme(args.n)
    elif mode == "fusion":
        _require(args, "n")
        scheme = muzychuk_fusion(args.n, args.variant)
    elif mode == "verify":
        _require(args, "inputs")
        mats = [_load_matrix(spec) for spec in args.inputs.split(",")]
        scheme = verify_scheme(mats)
    else:
        raise ValueError(f"unknown scheme mode {mode!r}")
    _describe_scheme(em, scheme, args)
    return em.finish()


# --------------------------------------------------------------------- main


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="emit a structured run report")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hadsplit",
        description="balanced splits of Hadamard matrices and their schemes",
    )
    sp = ap.add_subparsers(dest="subcommand", required=True)

    c = sp.add_parser("construct", help="build a split by a named construction")
    c.add_argument(
        "kind",
        choices=["sylvester", "kron", "gram", "core-tensor", "two-row", "twin", "skew-core"],
    )
    c.add_argument("--m", type=int, default=1, help="exponent for sylvester/twin")
    c.add_argument("--variant", choices=["large", "small"], default="large")
    c.add_argument("--q", type=int, default=3, help="core order for skew-core")
    one = c.add_mutually_exclusive_group()
    one.add_argument("--input", help="matrix file for kron/gram/core-tensor/two-row")
    one.add_argument("--sylvester", type=int, default=1, help="Sylvester exponent of the source")
    two = c.add_mutually_exclusive_group()
    two.add_argument("--input2", help="second factor file for core-tensor")
    two.add_argument(
        "--sylvester2", type=int, default=1, help="Sylvester exponent of the second factor"
    )
    c.add_argument("--out", help="write the matrix here")
    _add_common(c)
    c.set_defaults(func=_cmd_construct)

    k = sp.add_parser("check", help="validate a row subset as a balanced split")
    k.add_argument("--input", required=True)
    k.add_argument("--rows", required=True, help="comma list, ranges like 2-13 allowed")
    _add_common(k)
    k.set_defaults(func=_cmd_check)

    a = sp.add_parser("analyze", help="parameter derivations and matrix transforms")
    a.add_argument(
        "mode",
        choices=["seidel", "srg", "equiangular", "unbiased", "regular", "diag", "srg16", "search"],
    )
    a.add_argument("--n", type=int)
    a.add_argument("--ell", type=int)
    a.add_argument("--a", type=int)
    a.add_argument("--b", type=int)
    a.add_argument("--case", choices=["a", "b"], default="a")
    a.add_argument("--input", help="matrix file")
    a.add_argument("--rows")
    a.add_argument("--graph", help="adjacency file or bundled dataset name")
    a.add_argument("--budget", type=int, default=10**7)
    a.add_argument("--out")
    _add_common(a)
    a.set_defaults(func=_cmd_analyze)

    e = sp.add_parser("enumerate", help="feasible parameter tables")
    e.add_argument("table", choices=["table1", "table2"])
    e.add_argument("--max-n", type=int, required=True)
    _add_common(e)
    e.set_defaults(func=_cmd_enumerate)

    x = sp.add_parser("nonexist", help="certify nonexistence by eigenvector search")
    x.add_argument("--graph", required=True, help="adjacency file or bundled dataset name")
    x.add_argument("--ell", type=int, required=True)
    x.add_argument("--a", type=int, required=True)
    x.add_argument("--b", type=int, required=True)
    _add_common(x)
    x.set_defaults(func=_cmd_nonexist)

    lt = sp.add_parser("latin", help="latin square utilities")
    lt.add_argument(
        "mode", choices=["circle", "affine", "check", "compose", "diagfix"]
    )
    lt.add_argument("--v", type=int, help="order for circle")
    lt.add_argument("--q", type=int, help="field order for affine")
    lt.add_argument("--pick", type=int, help="emit just this member of the affine family")
    lt.add_argument("--input")
    lt.add_argument("--against")
    lt.add_argument("--symbol", type=int, default=0)
    lt.add_argument("--out")
    _add_common(lt)
    lt.set_defaults(func=_cmd_latin)

    s = sp.add_parser("scheme", help="association scheme builders")
    s.add_argument(
        "mode",
        choices=["build4", "build4n", "build5", "build6", "hamming", "fusion", "verify"],
    )
    src = s.add_mutually_exclusive_group()
    src.add_argument("--twin-delete", type=int, help="use the deleted twin split at this exponent")
    src.add_argument("--twin", type=int, help="use the twin split at this exponent")
    src.add_argument("--input", help="Hadamard matrix file")
    s.add_argument("--rows")
    s.add_argument("--square", help="latin square file for the 4-class builders")
    s.add_argument("--f", type=int, default=2, help="number of squares for build5/build6")
    s.add_argument("--n", type=int, help="word length for hamming/fusion")
    s.add_argument("--variant", choices=["01", "03"], default="01")
    s.add_argument("--inputs", help="comma list of class matrix files for verify")
    s.add_argument("--eig", action="store_true", help="also print the eigenmatrix")
    s.add_argument("--out-dir", help="write class matrices here")
    _add_common(s)
    s.set_defaults(func=_cmd_scheme)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call. Parsing leaves a
    parser as it was, so one serves every call in the process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, UnknownDataset, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HadsplitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
