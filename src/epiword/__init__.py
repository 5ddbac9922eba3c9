"""Christoffel and epichristoffel word machinery.

Finite words over ordered alphabets, episturmian morphisms, the tuple
reduction test for epichristoffel words, canonical factorizations, and the
Christoffel / Stern-Brocot / epichristoffel tree families.

Names resolve on first use (PEP 562): ``import epiword`` loads no
submodule, and the first read of a name such as ``epiword.construct``
imports the submodule that defines it and binds the name here, so later
reads are plain attribute lookups.
"""

from importlib import import_module

_EXPORTS = {
    "christoffel": (
        "PathLabel",
        "Slope",
        "christoffel_word",
        "is_christoffel",
        "path_labels",
        "path_points",
        "standard_factorization",
    ),
    "epichristoffel": (
        "CanonicalSplit",
        "ConstructionResult",
        "TStep",
        "TTrace",
        "admissibility",
        "canonical_split",
        "construct",
        "epi_factorizations",
        "format_trace",
        "is_c_epichristoffel",
        "is_epichristoffel_word",
        "t_operator",
        "tuples_of_length",
    ),
    "errors": (
        "AllZeroError",
        "DegenerateSlopeError",
        "DimensionMismatchError",
        "EmptyWordError",
        "EpiwordError",
        "InvalidLetterError",
        "NonCoprimeError",
        "NotAdmissibleError",
        "NotBinaryError",
        "NotEpichristoffelError",
        "NotInTreeError",
        "RootSelectionError",
        "TrivialTupleError",
        "WordLengthOverflow",
    ),
    "morphisms": (
        "MorphismSeq",
        "Psi",
        "PsiBar",
        "Theta",
        "apply_atom",
        "format_morphisms",
        "is_pure_standard",
        "parse_morphisms",
    ),
    "trees": (
        "CLASSICAL_SEED",
        "FactorizabilityReport",
        "Fraction",
        "SBLevel",
        "TreeNode",
        "christoffel_tree",
        "classify_factorizability",
        "diagonal",
        "diagonal_sum_check",
        "epichristoffel_tree",
        "l1_plus",
        "mediant",
        "path_to_tuple",
        "resolve_epichristoffel",
        "row_successor_check",
        "sb_level_stream",
        "stern_brocot_levels",
        "tree_isomorphism_check",
        "tree_levels",
    ),
    "words": (
        "BINARY",
        "MAX_WORD_LENGTH",
        "TERNARY",
        "Alphabet",
        "OccurrenceTuple",
        "Word",
        "are_conjugate",
        "default_alphabet",
        "factors",
        "is_balanced",
        "is_lyndon",
        "is_primitive",
        "least_rotation",
        "parikh",
        "rotate",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule that defines ``name`` (or is ``name``) and bind the result here."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")  # the import binds the submodule here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
