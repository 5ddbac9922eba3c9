"""The package namespace and what each process loads.

``epiword`` resolves its names on first use, and each CLI command imports
the library modules it runs. These tests pin the names and the modules
each command loads, in fresh interpreters, rather than how long that takes.
"""

import os
import subprocess
import sys
from importlib import import_module

import pytest

import epiword

# The public names as the eager package imports bound them, by defining submodule.
PUBLIC = {
    "christoffel": {
        "PathLabel", "Slope", "christoffel_word", "is_christoffel", "path_labels", "path_points",
        "standard_factorization",
    },
    "epichristoffel": {
        "CanonicalSplit", "ConstructionResult", "TStep", "TTrace", "admissibility", "canonical_split", "construct",
        "epi_factorizations", "format_trace", "is_c_epichristoffel", "is_epichristoffel_word", "t_operator",
        "tuples_of_length",
    },
    "errors": {
        "AllZeroError", "DegenerateSlopeError", "DimensionMismatchError", "EmptyWordError", "EpiwordError",
        "InvalidLetterError", "NonCoprimeError", "NotAdmissibleError", "NotBinaryError", "NotEpichristoffelError",
        "NotInTreeError", "RootSelectionError", "TrivialTupleError", "WordLengthOverflow",
    },
    "morphisms": {
        "MorphismSeq", "Psi", "PsiBar", "Theta", "apply_atom", "format_morphisms", "is_pure_standard",
        "parse_morphisms",
    },
    "trees": {
        "CLASSICAL_SEED", "FactorizabilityReport", "Fraction", "SBLevel", "TreeNode", "christoffel_tree",
        "classify_factorizability", "diagonal", "diagonal_sum_check", "epichristoffel_tree", "l1_plus", "mediant",
        "path_to_tuple", "resolve_epichristoffel", "row_successor_check", "sb_level_stream", "stern_brocot_levels",
        "tree_isomorphism_check", "tree_levels",
    },
    "words": {
        "BINARY", "MAX_WORD_LENGTH", "TERNARY", "Alphabet", "OccurrenceTuple", "Word", "are_conjugate",
        "default_alphabet", "factors", "is_balanced", "is_lyndon", "is_primitive", "least_rotation", "parikh",
        "rotate",
    },
}
NAMES = set().union(*PUBLIC.values())


def test_all_lists_the_public_names_and_the_submodules():
    assert len(NAMES) == 76
    assert len(epiword.__all__) == len(set(epiword.__all__)) == 82
    assert set(epiword.__all__) == NAMES | set(PUBLIC)
    assert epiword.__version__ == "0.1.0"


def test_each_name_is_its_submodules_object_and_stays_bound():
    for module, names in PUBLIC.items():
        home = import_module(f"epiword.{module}")
        assert getattr(epiword, module) is home
        for name in names:
            value = getattr(epiword, name)
            assert value is getattr(home, name), name
            assert vars(epiword)[name] is value, name  # later reads are plain lookups


def test_star_import_and_dir_list_every_name():
    namespace: dict = {}
    exec("from epiword import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(epiword.__all__)
    assert set(epiword.__all__) <= set(dir(epiword))


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'epiword' has no attribute 'no_such_name'$"):
        epiword.no_such_name
    with pytest.raises(ImportError):
        exec("from epiword import no_such_name", {})
    assert not hasattr(epiword, "_no_such_private")


def fresh(*args: str) -> subprocess.CompletedProcess:
    """``python args``, in a new interpreter that finds this package first."""
    src = os.path.dirname(os.path.dirname(epiword.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


LOADED = "import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'epiword'), file=sys.stderr)"


def test_import_epiword_loads_no_submodule():
    result = fresh("-c", "import epiword; " + LOADED)
    assert result.stderr == "['epiword']\n"


CLI_BASE = {"epiword", "epiword.cli", "epiword.errors", "epiword.words"}


COMMANDS = [
    ((), set()),
    (("christoffel", "13", "8"), {"christoffel"}),
    (("christoffel", "13", "8", "--draw", "--format", "json"), {"christoffel"}),
    (("apply", "psi_y psi_z", "x"), {"morphisms"}),
    (("tuple", "1,2,4"), {"morphisms", "epichristoffel"}),
    (("tuple", "1,2,4", "--word", "--split", "--trace"), {"morphisms", "epichristoffel"}),
    (("exists", "--length", "10", "--k", "3"), {"morphisms", "epichristoffel"}),
    (("tree", "sb", "--depth", "4"), {"trees"}),
    (("tree", "christoffel", "--depth", "2", "--format", "json"), {"trees"}),
    (("diagonal", "--side", "L", "--k", "3"), {"trees"}),
    (("tree", "sb", "--depth", "3", "--root", "1,2,4"), {"trees", "morphisms", "epichristoffel"}),
    (("find", "--root", "1,2,4", "--target", "1,3,6"), {"trees", "christoffel", "morphisms", "epichristoffel"}),
]


@pytest.mark.parametrize("argv, added", COMMANDS, ids=[" ".join(argv) or "import-only" for argv, _ in COMMANDS])
def test_each_command_loads_only_the_modules_it_runs(argv, added):
    code = (
        "import sys\n"
        "from epiword.cli import main\n"
        f"if {list(argv)!r}:\n"
        "    try:\n"
        f"        main({list(argv)!r})\n"
        "    except SystemExit as exc:\n"
        "        assert not exc.code, exc.code\n"
        + LOADED
    )
    result = fresh("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines()[-1] == str(sorted(CLI_BASE | {f"epiword.{m}" for m in added}))


def test_the_module_entry_point_loads_only_what_christoffel_runs():
    result = fresh("-X", "importtime", "-m", "epiword.cli", "christoffel", "4", "7")
    assert (result.returncode, result.stdout) == (0, "xxyxxyxxyxy\n")
    imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()}
    # Run as __main__, the cli module itself is not imported under its own name.
    assert {m for m in imported if m.split(".")[0] == "epiword"} == {
        "epiword", "epiword.errors", "epiword.words", "epiword.christoffel"
    }
