"""The package's public surface: which names it exports and where they live."""

import schurkit
from schurkit import characters, partitions, polyalgebra, symfun

PUBLIC_NAMES = [
    "AlphabetContext",
    "ConjugacyClass",
    "DRAW_SYMBOLS",
    "ExactDivisionError",
    "FrobeniusCoords",
    "MiwaContext",
    "Monomial",
    "Polynomial",
    "ShapeProfile",
    "Variable",
    "YoungDiagram",
    "canonical_text",
    "character",
    "determinant",
    "dimension",
    "elementary",
    "exact_divide",
    "from_term_list",
    "hall_littlewood",
    "homogeneous",
    "miwa_push",
    "monomial",
    "partitions_of",
    "q_var",
    "schur",
    "schur_via_characters",
    "t_var",
    "to_term_list",
    "x_var",
    "z_order",
]


def test_all_lists_the_public_names():
    assert sorted(schurkit.__all__) == PUBLIC_NAMES


def test_each_name_is_its_defining_modules_object():
    for name in PUBLIC_NAMES:
        homes = [m for m in (partitions, polyalgebra, characters, symfun) if name in m.__all__]
        assert len(homes) == 1, name
        assert getattr(schurkit, name) is getattr(homes[0], name), name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from schurkit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES
