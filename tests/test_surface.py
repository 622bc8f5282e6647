"""The public surface: the names `hadsplit` exports and each module's
`__all__`, pinned so that adding or removing one is a deliberate edit here."""

import importlib
import types

import pytest

# module -> its public names, sorted
PUBLIC = {
    "hadsplit": (
        "AuxiliarySet", "AxiomFailure", "BoundInapplicable", "BshInstance",
        "BudgetExceeded", "EigenTables", "EigvecSearchResult", "EquiangularReport",
        "FeasibleRow", "GF", "HadamardMatrix", "HadsplitError", "InfeasibleSeidel",
        "IntMatrix", "InvalidSingleValue", "IrrationalEigenvalue", "JaPair",
        "LatinSquare", "MissingAllOnesRow", "MultiplicityMismatch", "NonIntegral",
        "NotDiagonalized", "NotPrimePower", "NotSplittable", "NotUfs",
        "NotUnbiasedCase", "OddOrder", "OddityViolation", "ParseError", "Scheme",
        "SeidelDerivation", "SkewCore", "SplitParams", "SplitReport", "SrgParams",
        "TwinSplit", "WrongParameters", "affine_ufs_family",
        "build_4class_nonsymmetric", "build_4class_symmetric", "build_5class",
        "build_6class", "check_split", "circle_symmetric", "classify_srg16",
        "compose_ufs", "conference_from_core", "core_tensor",
        "delete_allones_transform", "derive_seidel", "derive_srg_case_a",
        "derive_srg_case_b", "diagonalize_by_hadamard", "eigenmatrices",
        "eigvec_search", "enumerate_case_a", "enumerate_seidel", "equiangular_report",
        "filter_mod4_diff", "filter_mod4_sum", "force_constant_diagonal",
        "general_srg_from_b", "gram_construction", "hamming_scheme", "is_prime_power",
        "is_ufs", "ja_recursion", "kron_square", "kronecker", "muzychuk_fusion",
        "normalize", "paley_skew_core", "parse_latin", "parse_matrix",
        "regular_hadamard_normalize", "search_splits", "serialize_latin",
        "serialize_matrix", "skew_core_bsh", "solve_sign_pattern",
        "split_from_diagonalizable_srg", "srg_multiplicities", "srg_primitive_feasible",
        "sylvester", "twin_sylvester", "two_row_split", "unbiased_partner",
        "verify_scheme", "verify_seidel_matrix", "with_min_symbol", "witness_for",
    ),
    "hadsplit.core": (
        "HadamardMatrix", "HadsplitError", "IntMatrix", "ParseError", "SkewCore",
        "conference_from_core", "kronecker", "normalize", "paley_skew_core",
        "parse_matrix", "serialize_matrix", "sylvester",
    ),
    "hadsplit.splitting": (
        "BoundInapplicable", "BudgetExceeded", "EquiangularReport", "InfeasibleSeidel",
        "InvalidSingleValue", "MissingAllOnesRow", "NonIntegral", "NotDiagonalized",
        "NotSplittable", "NotUnbiasedCase", "SeidelDerivation", "SpectrumLayout",
        "SplitParams", "SplitReport", "SrgParams", "WrongParameters", "check_split",
        "classify_srg16", "delete_allones_transform", "derive_seidel",
        "derive_srg_case_a", "derive_srg_case_b", "diagonalize_by_hadamard",
        "direct_srg_params", "equiangular_report", "general_srg_from_b",
        "regular_hadamard_normalize", "search_splits", "split_from_diagonalizable_srg",
        "unbiased_partner", "verify_seidel_matrix",
    ),
    "hadsplit.constructions": (
        "BshInstance", "JaPair", "TwinSplit", "core_tensor", "gram_construction",
        "ja_recursion", "kron_square", "skew_core_bsh", "twin_sylvester",
        "two_row_split", "witness_for",
    ),
    "hadsplit.feasibility": (
        "EigvecSearchResult", "FeasibleRow", "MultiplicityMismatch", "STATUS_EIGSEARCH",
        "STATUS_EXISTS", "STATUS_MOD4_DIFF", "STATUS_MOD4_SUM", "STATUS_OPEN",
        "SignPatternSolution", "eigvec_search", "enumerate_case_a", "enumerate_seidel",
        "filter_mod4_diff", "filter_mod4_sum", "solve_sign_pattern",
        "srg_absolute_bound_ok", "srg_basic_ok", "srg_complement_ok", "srg_krein_ok",
        "srg_multiplicities", "srg_primitive_feasible",
    ),
    "hadsplit.search": (
        "max_clique",
    ),
    "hadsplit.exactla": (
        "GaussianRational", "mat_vec", "rref",
    ),
    "hadsplit.gf": (
        "GF", "NotPrimePower", "factor_prime_power", "is_prime_power",
    ),
    "hadsplit.latin": (
        "LatinSquare", "NotUfs", "OddOrder", "affine_ufs_family", "circle_symmetric",
        "compose_ufs", "force_constant_diagonal", "is_ufs", "parse_latin",
        "serialize_latin", "with_min_symbol",
    ),
    "hadsplit.schemes": (
        "AuxiliarySet", "AxiomFailure", "EigenTables", "IrrationalEigenvalue",
        "OddityViolation", "Scheme", "build_4class_nonsymmetric",
        "build_4class_symmetric", "build_5class", "build_6class", "eigenmatrices",
        "hamming_scheme", "muzychuk_fusion", "verify_scheme",
    ),
}


def _public(name):
    mod = importlib.import_module(name)
    if name != "hadsplit":
        return tuple(sorted(mod.__all__))
    # the package namespace also holds its submodules once they are imported
    public = (n for n, v in vars(mod).items() if not isinstance(v, types.ModuleType))
    return tuple(sorted(n for n in public if not n.startswith("_")))


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_public_names_are_pinned(name):
    assert _public(name) == PUBLIC[name]

