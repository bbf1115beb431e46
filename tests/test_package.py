"""The package's public surface: which names it exports and where they live,
the modules its import loads, and the caches its modules keep."""

import subprocess
import sys

import schurkit
from schurkit import (
    YoungDiagram, canonical_text, characters, cli, partitions, polyalgebra, symfun, verify,
)

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
    symfun._branches,
    symfun._schur_via_characters,
    characters._character,
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
        cli.run(["hall-littlewood", "3,2,1", "--vars", "5"]),
    )


def test_clearing_the_module_caches_keeps_the_bytes():
    before = cached_outputs()
    for cached in MODULE_CACHES:
        assert cached.cache_info().currsize > 0, cached.__name__
        cached.cache_clear()
        assert cached.cache_info().currsize == 0, cached.__name__
    assert cached_outputs() == before


def test_module_caches_are_the_listed_ones():
    """No module keeps a cache that the clearing test above does not clear;
    a shape's character column, in particular, lives only in the character
    route's memo."""
    modules = (schurkit, partitions, polyalgebra, symfun, characters, verify, cli)
    found = {id(obj): obj for module in modules
             for obj in vars(module).values() if hasattr(obj, "cache_info")}
    assert sorted(found) == sorted(map(id, MODULE_CACHES))
    assert not hasattr(characters._column, "cache_info")


def test_memos_of_unbounded_domains_are_bounded():
    """Both Schur memos, the Hall-Littlewood branch table and the character
    cache take any shape, so each keeps at most its module constant of
    entries."""
    for cached, bound in ((symfun._schur, symfun.SCHUR_CACHE_SIZE),
                          (symfun._schur_via_characters, symfun.SCHUR_CACHE_SIZE),
                          (symfun._branches, symfun.HL_BRANCH_CACHE_SIZE),
                          (characters._character, characters.CHARACTER_CACHE_SIZE)):
        assert type(bound) is int and cached.cache_info().maxsize == bound, cached.__name__
