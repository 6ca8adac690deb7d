"""Registry of source mutants that the suite must kill.

Each mutant replaces one exact snippet of one file under `src/` and names
the tests of which at least one must then fail.  `python
tests/run_mutants.py` applies them one at a time to a copy of the tree;
`tests/test_mutants.py` checks in tier-1 that every snippet still occurs
exactly once, so a refactor that moves the code must update this file.
`origin` names the change that recorded the mutant and `guards` the rule
it probes.  Retired mutants are kept below with the reason they no longer
apply.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Mutant:
    path: str
    snippet: str
    replacement: str
    kills: tuple
    origin: str
    guards: str


COVERS = "src/polycover/covers.py"
SELECTIONS = "src/polycover/selections.py"
JSONIO = "src/polycover/jsonio.py"
REALIZATION = "src/polycover/realization.py"
DIMENSION = "src/polycover/dimension.py"

MUTANTS = [
    # -- one-per-level faces as a join ------------------------------------
    Mutant(
        COVERS,
        "        part = [e for e in hit if e[1] == n]\n",
        "        part = list(hit)\n",
        ("tests/test_covers.py::TestDeltaSubcomplex::test_same_level_pair_excluded",
         "tests/test_hit_index.py::test_nerves_and_one_per_level_complexes_match_oracles"),
        "one-per-level complex as a join",
        "each level's part holds only that level's elements",
    ),
    Mutant(
        COVERS,
        "        faces += [face | {e} for face in faces for e in part]\n",
        "        faces += [frozenset([e]) for e in part]\n",
        ("tests/test_covers.py::TestDeltaAtCarrier::test_midpoint_carrier_sees_cross_level_pair",
         "tests/test_acceptance.py::test_criterion_1_disjoint_levels_nerve_equality"),
        "one-per-level complex as a join",
        "each part joins every face found so far",
    ),
    Mutant(
        COVERS,
        "    return faces[1:]\n",
        "    return faces\n",
        ("tests/test_covers.py::TestDeltaSubcomplex::test_delta_included_in_nerve",),
        "one-per-level complex as a join",
        "the empty face is dropped",
    ),
    # -- map soundness in one scan ----------------------------------------
    Mutant(
        SELECTIONS,
        "v for v in f.map.source.vertices if images.get(v) not in holders.get(v, ())",
        "v for v in images if images[v] not in holders.get(v, ())",
        ("tests/test_selections.py::TestAgainstSortedScans::"
         "test_why_not_selection_matches_sorted_scan",),
        "map soundness in one scan",
        "a source vertex with no image is unsound",
    ),
    Mutant(
        SELECTIONS,
        "((images[v][1], images[v][0], vlabel(v)) for v in unsound if v in images)",
        "((images[v][0], images[v][1], vlabel(v)) for v in unsound if v in images)",
        ("tests/test_selections.py::TestCanonicalAndSelection::"
         "test_constant_map_to_small_element_fails",
         "tests/test_golden.py::test_cli_output_matches_golden[selection-bad]"),
        "map soundness in one scan",
        "the canonical witness is the least (level, id, label)",
    ),
    Mutant(
        SELECTIONS,
        "    v = min(unsound, key=vlabel, default=None)\n",
        "    v = max(unsound, key=vlabel, default=None)\n",
        ("tests/test_selections.py::TestAgainstSortedScans::"
         "test_why_not_selection_matches_sorted_scan",),
        "map soundness in one scan",
        "the selection witness is the least-labelled unsound vertex",
    ),
    Mutant(
        SELECTIONS,
        "    _check_elements(cs, kappa, images.values())\n",
        "",
        ("tests/test_selections.py::TestAgainstSortedScans::"
         "test_map_witnesses_match_fiber_and_sweep_oracles",),
        "map soundness in one scan",
        "the canonical predicate refuses an image naming no element",
    ),
    # -- every refusal a PolycoverError, levels before labels -------------
    Mutant(
        JSONIO,
        "    space.stage(level)\n    try:\n        return star_set(space, level, names)\n",
        "    try:\n        return star_set(space, level, names)\n",
        ("tests/test_golden.py::test_cli_output_matches_golden[cover-negative-level]",),
        "every refusal a PolycoverError",
        "a star-set reader refuses a negative level as a level",
    ),
    Mutant(
        JSONIO,
        "    space.stage(level)\n    try:\n        return stage_point(space, level, parsed)\n",
        "    try:\n        return stage_point(space, level, parsed)\n",
        ("tests/test_jsonio_cli.py::TestSchemaErrors::"
         "test_a_negative_level_is_refused_as_a_level[point]",),
        "every refusal a PolycoverError",
        "the point reader refuses a negative level as a level",
    ),
    Mutant(
        JSONIO,
        '    except InvalidArgument as err:\n        raise SchemaError(f"{path}.stars"',
        '    except ValueError as err:\n        raise SchemaError(f"{path}.stars"',
        ("tests/test_jsonio_cli.py::TestSchemaErrors::"
         "test_internal_value_errors_are_not_schema_errors",),
        "every refusal a PolycoverError",
        "a label lookup converts only its own refusal",
    ),
    Mutant(
        COVERS,
        'raise InvalidArgument("element ids must be strings")',
        'raise ValueError("element ids must be strings")',
        ("tests/test_refusals.py::TestCovers::test_id_that_is_not_a_string",),
        "every refusal a PolycoverError",
        "library refusals are PolycoverErrors",
    ),
    Mutant(
        "src/polycover/cli.py",
        "import argparse\n",
        "import argparse\nimport hypothesis\n",
        ("tests/test_imports.py::test_cli_imports_only_the_standard_library",),
        "every refusal a PolycoverError",
        "the command line imports only the standard library",
    ),
    # -- pairwise disjointness in one pass over held vertices -------------
    Mutant(
        REALIZATION,
        "            if len(mine) > 1:",
        "            if False:",
        ("tests/test_hit_index.py::test_least_overlap_prefers_the_least_of_several_pairs",
         "tests/test_hit_index.py::test_least_overlap_matches_sweep_on_random_families"),
        "least-overlap index",
        "two holders of one vertex overlap",
    ),
    Mutant(
        REALIZATION,
        "            if not held.keys().isdisjoint(near):",
        "            if False:",
        ("tests/test_hit_index.py::test_least_overlap_matches_sweep",),
        "least-overlap index",
        "holders of an edge's two ends overlap",
    ),
    Mutant(
        REALIZATION,
        "if theirs is not None and i < theirs[0]:",
        "if theirs is not None and i <= theirs[0]:",
        ("tests/test_acceptance.py::test_criterion_6_dimension_separation",),
        "least-overlap index",
        "an element does not overlap itself",
    ),
    # -- search table -------------------------------------------------------
    Mutant(
        DIMENSION,
        "groups = sorted({a & unassigned for _, a in fam_comps})",
        "groups = []",
        ("tests/test_acceptance.py::test_criterion_6_dimension_separation",),
        "search table",
        "the residual state keeps the component groups",
    ),
    Mutant(
        DIMENSION,
        "            prunes += counts[1]\n",
        "",
        ("tests/test_acceptance.py::test_criterion_6_dimension_separation",),
        "search table",
        "a table hit adds the stored prunes",
    ),
    Mutant(
        DIMENSION,
        "key = key << nv | h & unassigned",
        "key = key << nv",
        ("tests/test_acceptance.py::test_criterion_6_dimension_separation",),
        "search table",
        "the residual state keeps the holds rows",
    ),
]

# (origin, what the mutant did, why it no longer applies)
RETIRED = [
    ("product facets of the one-per-level complex",
     "`itertools.product` over the first level's part only",
     "the product facets are gone: faces are enumerated as a join"),
    ("product facets of the one-per-level complex",
     "`itertools.product` over every part, empty ones included",
     "the product facets are gone: faces are enumerated as a join"),
    ("product facets of the one-per-level complex",
     "the skeletal predicate reads the product facets only",
     "both table predicates now walk every one-per-level face"),
    ("search table",
     "the key drops U (`key = unassigned` becomes `key = 1`)",
     "equivalent: where the key is built every unassigned vertex is live in "
     "some family, so U is the OR of the masked holds rows"),
    ("search table",
     "a found subtree is stored in the table as well",
     "equivalent: a found result returns straight up the stack, and the "
     "table dies with the level before any lookup could read it"),
]
