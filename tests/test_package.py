"""The package's public surface: which names it exports and where they live,
the modules its import loads, and the caches its modules keep."""

import subprocess
import sys

import schurkit
from schurkit import YoungDiagram, canonical_text, characters, cli, partitions, polyalgebra, symfun

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


# Loaded on first use, not by `import schurkit.cli`: every CLI call starts a
# fresh process that pays for what the import loads.
FIRST_USE_MODULES = ("dataclasses", "inspect", "json", "schurkit.verify")

IMPORT_GUARD = f"""
import sys
before = set(sys.modules)
import schurkit.cli
print(sorted((set(sys.modules) - before) & set({FIRST_USE_MODULES!r})))
status, _ = schurkit.cli.run(["schur", "3,2,1"])
print(status, "schurkit.verify" in sys.modules)
status, _ = schurkit.cli.run(["verify", "characters", "--max-boxes", "3"])
print(status, "schurkit.verify" in sys.modules)
"""


def test_cli_import_defers_first_use_modules(child_env):
    """New modules only, diffed against what the interpreter had already
    loaded: a site hook may preload some standard modules.  A command other
    than `verify` leaves verify unloaded too."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD],
                          capture_output=True, text=True, env=child_env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n0 False\n0 True\n"


MODULE_CACHES = [
    symfun._t_pair,
    symfun._t_pairs,
    symfun._schur,
    characters._character,
    characters._column,
    cli.build_parser,
]


def cached_outputs():
    staircase = YoungDiagram((7, 6, 5, 4, 3, 2, 1))
    return (
        canonical_text(symfun.schur(staircase)),
        canonical_text(symfun.schur_via_characters(staircase)),
        canonical_text(symfun.elementary(12)),
        cli.run(["schur", "4,2", "--json"]),
        cli.run(["character", "4,2", "--cycles", "3:2"]),
    )


def test_clearing_the_module_caches_keeps_the_bytes():
    before = cached_outputs()
    for cached in MODULE_CACHES:
        assert cached.cache_info().currsize > 0, cached.__name__
        cached.cache_clear()
        assert cached.cache_info().currsize == 0, cached.__name__
    assert cached_outputs() == before
