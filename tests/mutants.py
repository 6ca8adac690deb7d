"""Registry of source mutants that the suite must kill.

Each mutant replaces one exact snippet of one file under `src/` and names
the tests of which at least one must then fail.  `python
tests/run_mutants.py` applies them one at a time to a copy of the tree;
`tests/test_mutants.py` checks in tier-1 that every snippet still occurs
exactly once, so a refactor that moves the code must update this file.
`origin` names the change that recorded the mutant and `guards` the rule
it probes.  Retired mutants are kept below with the reason they no longer
apply, as is a mutant that was tried and not registered, with the reason.
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


COMPLEXES = "src/polycover/complexes.py"
COVERS = "src/polycover/covers.py"
SELECTIONS = "src/polycover/selections.py"
JSONIO = "src/polycover/jsonio.py"
REALIZATION = "src/polycover/realization.py"
DIMENSION = "src/polycover/dimension.py"
SELFTEST = "src/polycover/selftest.py"

MUTANTS = [
    # -- a complex is its facets ------------------------------------------
    Mutant(
        COMPLEXES,
        "        if not any(s < f for f in at.get(next(iter(s)), ())):\n",
        "        if True:\n",
        ("tests/test_facets.py::test_a_complex_is_the_maximal_sets_of_its_family",
         "tests/test_complexes.py::TestSkeleton::test_high_k_is_identity"),
        "a complex is its facets",
        "the constructor drops a set inside a larger one",
    ),
    Mutant(
        COMPLEXES,
        "    if len(set(map(len, family))) <= 1:\n",
        "    if len(set(map(len, family))) <= 2:\n",
        ("tests/test_facets.py::test_a_complex_is_the_maximal_sets_of_its_family",
         "tests/test_complexes.py::TestSkeleton::test_high_k_is_identity"),
        "a complex is its facets",
        "only a family of one size is kept as it is",
    ),
    Mutant(
        COMPLEXES,
        "any(s < f for f in self._facets_at",
        "any(s == f for f in self._facets_at",
        ("tests/test_facets.py::test_a_complex_is_the_maximal_sets_of_its_family",
         "tests/test_acceptance.py::test_criterion_7_cone_extension_suite"),
        "a complex is its facets",
        "membership holds inside a facet, not only at one",
    ),
    Mutant(
        COMPLEXES,
        "[m - 1 for m in itertools.accumulate(1 << i for i in o)]",
        "[m - 1 for m in itertools.accumulate(1 << i for i in o)][:-1]",
        ("tests/test_facets.py::test_stage_facets_are_the_maximal_chains_below",
         "tests/test_acceptance.py::test_criterion_1_disjoint_levels_nerve_equality"),
        "a complex is its facets",
        "a flag ends at its facet's own barycenter",
    ),
    Mutant(
        COVERS,
        "[e for e in hit if e[1] == n]",
        "list(hit)",
        ("tests/test_covers.py::TestDeltaSubcomplex::test_same_level_pair_excluded",
         "tests/test_hit_index.py::test_nerves_and_one_per_level_complexes_match_oracles"),
        "a complex is its facets",
        "a product's parts are split by level",
    ),
    Mutant(
        COVERS,
        "itertools.product(*parts)]",
        "itertools.product(*parts[:1])]",
        ("tests/test_acceptance.py::test_criterion_1_disjoint_levels_nerve_equality",
         "tests/test_hit_index.py::test_nerves_and_one_per_level_complexes_match_oracles"),
        "a complex is its facets",
        "a product takes one element of every level the hit set meets",
    ),
    Mutant(
        COVERS,
        "        return [hit] if hit else []\n",
        "        return [hit]\n",
        ("tests/test_covers.py::TestDeltaAtCarrier::"
         "test_a_carrier_the_prefix_misses_gets_the_empty_complex",),
        "a complex is its facets",
        "an empty hit set has no products",
    ),
    Mutant(
        COVERS,
        " - {frozenset()}\n",
        "\n",
        ("tests/test_hit_index.py::test_nerves_and_one_per_level_complexes_match_oracles",),
        "a complex is its facets",
        "an empty facet hit set is no nerve facet",
    ),
    Mutant(
        REALIZATION,
        '            raise InvalidArgument(f"{key!r} is not a vertex of stage {level}")\n',
        "            return key\n",
        ("tests/test_refusals.py::TestCoordinates::test_a_key_that_is_no_stage_vertex",
         "tests/test_refusals.py::TestStarSetsAndCones::test_star_set_key_that_is_no_stage_vertex"),
        "a complex is its facets",
        "a key that is neither a stage vertex nor a label is refused",
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
        "    space.stage(level)\n    return stars.build(InvalidArgument, star_set,",
        "    return stars.build(InvalidArgument, star_set,",
        ("tests/test_golden.py::test_cli_output_matches_golden[cover-negative-level]",
         "tests/test_jsonio_cli.py::TestSchemaErrors::"
         "test_a_negative_level_is_refused_as_a_level[star_set]"),
        "every refusal a PolycoverError",
        "a star-set reader refuses a negative level as a level",
    ),
    Mutant(
        JSONIO,
        "stars.build(InvalidArgument, star_set,",
        "stars.build(ValueError, star_set,",
        ("tests/test_jsonio_cli.py::TestSchemaErrors::"
         "test_internal_value_errors_are_not_schema_errors",),
        "every refusal a PolycoverError",
        "a label lookup converts only its own refusal",
    ),
    # -- one reader for every document ------------------------------------
    Mutant(
        JSONIO,
        "            if not (isinstance(v, str) and v):\n",
        "            if not isinstance(v, str):\n",
        ("tests/test_golden.py::test_cli_output_matches_golden[complex-empty-label]",
         "tests/test_jsonio_cli.py::TestSchemaErrors::test_empty_labels_and_ids_are_refused"),
        "one reader for every document",
        "a label list refuses an empty label",
    ),
    Mutant(
        JSONIO,
        "        except refusal as err:\n",
        "        except Exception as err:\n",
        ("tests/test_jsonio_cli.py::TestSchemaErrors::"
         "test_internal_errors_are_not_schema_errors",),
        "one reader for every document",
        "a library refusal is mapped by its class only",
    ),
    Mutant(
        JSONIO,
        'f"{self.path}[{key!r}]"',
        'f"{self.path}.{key}"',
        ("tests/test_jsonio_cli.py::TestSchemaErrors::test_image_keys_must_be_source_vertices",
         "tests/test_refusals.py::TestCoordinates::test_an_unknown_label_in_a_map_document"),
        "one reader for every document",
        "an object entry's path is ['key']",
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
        "masks = {a & near for _, a in fam_comps}",
        "masks = set()",
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
        "masks = {h & unassigned for h in holds[fam]}",
        "masks = set()",
        ("tests/test_acceptance.py::test_criterion_6_dimension_separation",),
        "search table",
        "the residual state keeps the holds rows",
    ),
    # -- canonical search states ---------------------------------------------
    Mutant(
        DIMENSION,
        "            descriptors.sort()\n",
        "",
        ("tests/test_dimension.py::test_the_table_answers_mirrored_states",),
        "canonical search states",
        "a twin class's open members are keyed as a multiset",
    ),
    Mutant(
        DIMENSION,
        "masks = {a & near for _, a in fam_comps}\n                masks.discard(0)\n",
        "masks = {a & near for _, a in fam_comps}\n",
        ("tests/test_dimension.py::test_the_table_answers_mirrored_states",),
        "canonical search states",
        "a component mask that no vertex can join is dropped",
    ),
    Mutant(
        DIMENSION,
        "width = max(nv, kappa.bit_length()",
        "width = max(nv.bit_length() + 2, kappa.bit_length()",
        ("tests/test_dimension.py::test_search_catalog_trees_are_pinned",),
        "canonical search states",
        "a key field holds a mask of every stage vertex",
    ),
    # -- nerves and map checks from facets --------------------------------
    Mutant(
        COMPLEXES,
        "    return all(frozenset(map(images, s)) in m.target for s in m.source.facets)\n",
        "    return all(frozenset(map(images, s)) in m.target for s in m.source.facets"
        " if len(s) == m.source.dim + 1)\n",
        ("tests/test_facets.py::test_a_map_whose_only_bad_image_is_one_edge_is_refused",
         "tests/test_facets.py::test_check_simplicial_map_matches_all_simplex_oracle"),
        "nerves and map checks from facets",
        "every source facet is checked, not only the top-dimensional ones",
    ),
    Mutant(
        COVERS,
        "        built = cs.nerves[kind, kappa] = SimplicialComplex(hits)\n",
        "        built = SimplicialComplex(hits)\n",
        ("tests/test_facets.py::test_canonical_target_is_the_refinement_maps_source",
         "tests/test_facets.py::test_mu_driver_builds_each_complex_once_and_no_hit_index"),
        "nerves and map checks from facets",
        "each nerve is built once per cover, kind and prefix",
    ),
    # -- stage tokens hashed in C, each cover pushed once -------------------
    Mutant(
        COVERS,
        "images[(eid, n)] = min(fits)",
        "images[(eid, n)] = max(fits)",
        ("tests/test_covers.py::TestRefinementMap::test_nested_choice_is_deterministic",
         "tests/test_covers.py::TestRefinementMap::test_least_id_choice_matches_per_pair_reference"),
        "stage tokens hashed in C",
        "the refinement map picks the least-id coarse element",
    ),
    Mutant(
        COVERS,
        "        if key not in self._pushed:\n",
        "        if True:\n",
        ("tests/test_covers.py::test_mu_driver_pushes_each_star_set_to_each_level_once",),
        "stage tokens hashed in C",
        "a cover's pushed families are kept",
    ),
    Mutant(
        COVERS,
        "            stars = dict.fromkeys(star for row in rows for _, star in row)\n",
        "            stars = [star for row in rows for _, star in row]\n",
        ("tests/test_covers.py::test_mu_driver_pushes_each_star_set_to_each_level_once",),
        "stage tokens hashed in C",
        "each distinct star-set is pushed once",
    ),
    Mutant(
        COMPLEXES,
        "    def __getnewargs__(self):\n        return (self.of,)\n",
        "",
        ("tests/test_stage_tokens.py::test_labels_and_reprs_are_unchanged_and_survive_copies",),
        "stage tokens hashed in C",
        "a token survives copy and pickle",
    ),
    Mutant(
        COMPLEXES,
        "    of = property(itemgetter(0))\n",
        "    of = property(itemgetter(0))\n    __hash__ = lambda self: tuple.__hash__(self)\n",
        ("tests/test_stage_tokens.py::test_token_hash_and_equality_are_those_of_the_one_tuple",),
        "stage tokens hashed in C",
        "a token hashes in C, as its 1-tuple",
    ),
    Mutant(
        REALIZATION,
        "    if target_level == s.level:\n        return s\n",
        "",
        ("tests/test_stage_tokens.py::test_same_level_push_and_same_space_are_shortcuts",),
        "stage tokens hashed in C",
        "a push to a star-set's own level returns it",
    ),
    # -- one holders index per cover ---------------------------------------
    Mutant(
        COVERS,
        "            for n, row in enumerate(self.pushed(kappa, level)):\n",
        "            for n, row in reversed(list(enumerate(self.pushed(kappa, level)))):\n",
        ("tests/test_hit_index.py::test_holders_match_oracle",
         "tests/test_golden.py::test_cli_output_matches_golden[canonical-nerve]"),
        "one holders index per cover",
        "holders are listed least level first",
    ),
    Mutant(
        COVERS,
        "self._holders[key] = {v: tuple(h) for v, h in held.items()}",
        "self._holders[key] = {v: tuple(sorted(h)) for v, h in held.items()}",
        ("tests/test_hit_index.py::test_holders_match_oracle",
         "tests/test_golden.py::test_cli_output_matches_golden[canonical-nerve]"),
        "one holders index per cover",
        "holders are ordered by (level, id), not by id",
    ),
    Mutant(
        COVERS,
        "            self._holders[key] = {v: tuple(h) for v, h in held.items()}\n",
        "            return {v: tuple(h) for v, h in held.items()}\n",
        ("tests/test_facets.py::test_mu_driver_builds_each_complex_once_and_no_hit_index",),
        "one holders index per cover",
        "a holders index is kept by its cover",
    ),
    Mutant(
        COVERS,
        "            fits = [c for c in held if c[1] == n]\n",
        "            fits = list(held)\n",
        ("tests/test_covers.py::TestRefinementMap::test_identity_refinement",
         "tests/test_covers.py::TestRefinementMap::test_least_id_choice_matches_per_pair_reference"),
        "one holders index per cover",
        "the refinement map keeps each element's level",
    ),
    Mutant(
        SELECTIONS,
        "range(len(sigma) - 1 if skeletal else n, n + 1)",
        "range(len(sigma) - 1 if skeletal else n, len(sigma) if skeletal else n + 1)",
        ("tests/test_hit_index.py::test_skeletal_predicates_match_kernel_sweeps",),
        "one holders index per cover",
        "the skeletal predicate checks every table from |sigma|-1 up",
    ),
    Mutant(
        SELECTIONS,
        "        default=None,\n    )\n    if stray is None:",
        "        default=None, key=lambda t: t[2],\n    )\n    if stray is None:",
        ("tests/test_selections.py::TestAgainstSortedScans::"
         "test_map_witnesses_match_fiber_and_sweep_oracles",),
        "one holders index per cover",
        "the canonical witness is ordered by element before vertex",
    ),
    Mutant(
        SELECTIONS,
        "    images = {v: held[0] for v, held in holders.items()}\n",
        "    images = {v: held[-1] for v, held in holders.items()}\n",
        ("tests/test_selections.py::TestAgainstSortedScans::"
         "test_canonical_images_are_the_least_hit_elements",
         "tests/test_golden.py::test_cli_output_matches_golden[canonical-nerve]"),
        "one holders index per cover",
        "a canonical map sends each vertex to its first holder",
    ),
    Mutant(
        COMPLEXES,
        "    missing = min(pool.difference(m.vertex_images), key=vlabel, default=None)\n",
        "    missing = max(pool.difference(m.vertex_images), key=vlabel, default=None)\n",
        ("tests/test_golden.py::test_cli_output_matches_golden[cone-extend-incomplete]",
         "tests/test_golden.py::test_cli_output_matches_golden[selection-skeletal-incomplete]"),
        "one holders index per cover",
        "check_complete names the least missing vertex",
    ),
    Mutant(
        SELECTIONS,
        "        for s in g.source.sorted_simplices():\n",
        "        for s in g.source.simplices:\n",
        ("tests/test_selections.py::TestOneMessagePerInput::test_least_simplex_outside_the_chain",
         "tests/test_golden.py::test_cli_output_matches_golden[cone-extend-two-edges]",
         # set order follows the hash seed; this test fixes seeds 0, 1 and 2
         "tests/test_golden.py::test_seed_cases_match_golden_under_three_hash_seeds"),
        "one holders index per cover",
        "cone_extend reports the least simplex outside its chain",
    ),
    # -- one home for each value -------------------------------------------
    Mutant(
        SELECTIONS,
        "    if not check_simplicial_map(SimplicialMap(f.map.source, delta, f.map.vertex_images)):\n",
        "    if False:\n",
        ("tests/test_golden.py::test_cli_output_matches_golden[extract-incomplete]",
         "tests/test_golden.py::test_cli_output_matches_golden[extract-overlap]"),
        "one home for each value",
        "extraction checks the map is simplicial into the one-per-level complex",
    ),
    Mutant(
        COMPLEXES,
        "    check_complete(m)\n    images = m.vertex_images.__getitem__\n",
        "    images = m.vertex_images.get\n",
        ("tests/test_facets.py::test_a_vertex_with_no_image_is_still_refused",
         "tests/test_complexes.py::TestSimplicialMaps::test_partial_map_rejected"),
        "one home for each value",
        "a simplicial check refuses a vertex with no image",
    ),
    Mutant(
        JSONIO,
        '        self.check(self.value != "", "expected a nonempty string")\n',
        "",
        ("tests/test_golden.py::test_cli_output_matches_golden[complex-empty-label]",
         "tests/test_golden.py::test_cli_output_matches_golden[nerve-empty-id]"),
        "one home for each value",
        "labels and ids are nonempty",
    ),
    Mutant(
        COVERS,
        "        if level == self.working_level:\n            return self.levels[:kappa]\n",
        "",
        ("tests/test_hit_index.py::test_working_level_questions_push_nothing",),
        "one home for each value",
        "at the working level a cover's families are its own",
    ),
    # -- ask holders once ---------------------------------------------------
    Mutant(
        COVERS,
        "        return frozenset(held[0]).intersection(*held[1:])\n",
        "        return frozenset(held[0])\n",
        ("tests/test_covers.py::TestRefinementMap::test_not_a_refinement",
         "tests/test_dimension.py::test_search_walks_the_reference_tree"),
        "ask holders once",
        "a containing element holds every vertex of the core",
    ),
    Mutant(
        COVERS,
        "        hit = frozenset().union(*map(holders.get, s, itertools.repeat(())))\n",
        "        hit = frozenset(holders.get(next(iter(s)), ()))\n",
        ("tests/test_acceptance.py::test_criterion_2_prefix_cone_monotonicity",
         "tests/test_hit_index.py::test_nerves_and_one_per_level_complexes_match_oracles"),
        "ask holders once",
        "a hit set unites the holders of every vertex",
    ),
    # -- less Python per element ------------------------------------------
    Mutant(
        DIMENSION,
        "for c in held if c[1] == n)",
        "for c in held)",
        ("tests/test_dimension.py::test_verifier_and_refinement_map_match_per_pair_reference",),
        "less Python per element",
        "a refinement element is tested against coarse elements of its own level",
    ),
    Mutant(
        COVERS,
        "    if len(levels) == len(hit):\n",
        "    if len(levels) >= len(hit) - 1:\n",
        ("tests/test_hit_index.py::test_nerves_and_one_per_level_complexes_match_oracles",),
        "less Python per element",
        "only a hit set with one element per level is its own single product",
    ),
    Mutant(
        COMPLEXES,
        "    orders = itertools.permutations(range(k))\n",
        "    orders = list(itertools.permutations(range(k)))[: -1 if k == 3 else None]\n",
        ("tests/test_facets.py::test_stage_facets_are_the_maximal_chains_below",),
        "less Python per element",
        "a facet gets one flag per ordering of its vertices",
    ),
    Mutant(
        REALIZATION,
        "        if sum(map(len, cores)) == len(union) and union.isdisjoint(near):\n",
        "        if union.isdisjoint(near):\n",
        ("tests/test_hit_index.py::test_least_overlap_on_refinement_families_matches_sweep",
         "tests/test_dimension.py::test_verifier_and_refinement_map_match_per_pair_reference"),
        "less Python per element",
        "a family passes the overlap check at once only if no vertex has two holders",
    ),
    Mutant(
        REALIZATION,
        "        if sum(map(len, cores)) == len(union) and union.isdisjoint(near):\n",
        "        if sum(map(len, cores)) == len(union):\n",
        ("tests/test_hit_index.py::test_least_overlap_matches_sweep",
         "tests/test_dimension.py::TestVerify::test_overlap_is_caught_with_witness"),
        "less Python per element",
        "a family passes the overlap check at once only if no edge joins two held vertices",
    ),
    Mutant(
        DIMENSION,
        "families[size - 1].append((barycenter_label(names), star))",
        "families[size - 1].append((barycenter_label(names[::-1]), star))",
        ("tests/test_dimension.py::TestOstrand::test_edge_whole_cover",
         "tests/test_golden.py::test_cli_output_matches_golden[construct]"),
        "less Python per element",
        "a constructed element's id is its barycenter's label, from the sorted vertex labels",
    ),
    Mutant(
        REALIZATION,
        "    if s1.space is not s2.space and s1.space != s2.space:\n",
        "    if s1.space is not s2.space:\n",
        ("tests/test_dimension.py::TestSearch::test_found_extends_to_larger_kappa",),
        "less Python per element",
        "star-sets on equal spaces are compared, whether or not the spaces are one object",
    ),
    # -- one way in ---------------------------------------------------------
    Mutant(
        COVERS,
        "            if not isinstance(eid, str):\n"
        '                raise InvalidArgument("element ids must be strings")\n',
        "",
        ("tests/test_refusals.py::TestCovers::test_a_family_whose_element_id_is_not_a_string",),
        "one way in",
        "covers and refinements refuse an element id that is not a string",
    ),
    # -- start-up without the dataclass machinery ---------------------------
    Mutant(
        COMPLEXES,
        "        if other.__class__ is not self.__class__:\n"
        "            return NotImplemented\n"
        "        return self.facets == other.facets\n",
        "        return self.facets == other.facets\n",
        ("tests/test_value_types.py::test_a_complex_or_a_cover_equals_no_tuple_of_its_fields",),
        "start-up without the dataclass machinery",
        "a complex equals only another complex",
    ),
    Mutant(
        COVERS,
        "        if other.__class__ is not self.__class__:\n"
        "            return NotImplemented\n"
        "        return (self.space, self.working_level, self.levels) == (\n",
        "        return (self.space, self.working_level, self.levels) == (\n",
        ("tests/test_value_types.py::test_a_complex_or_a_cover_equals_no_tuple_of_its_fields",),
        "start-up without the dataclass machinery",
        "a cover sequence equals only another cover sequence",
    ),
    Mutant(
        "src/polycover/cli.py",
        "from . import jsonio\n",
        "from . import jsonio, selftest\n",
        ("tests/test_imports.py::test_cli_imports_only_the_standard_library",),
        "start-up without the dataclass machinery",
        "only the selftest command imports the fixture corpus",
    ),
    Mutant(
        REALIZATION,
        "    resolved = {space.vertex_at(level, key) for key in cores}\n",
        "    space.stage(level)\n"
        "    resolved = {space.vertex_at(level, key) for key in cores}\n",
        ("tests/test_jsonio_cli.py::test_a_star_set_element_reads_its_stage_twice",),
        "start-up without the dataclass machinery",
        "a star-set looks its stage up only through vertex_at",
    ),
    # -- exact points off the import path ----------------------------------
    Mutant(
        SELFTEST,
        "    if p.level != s.level or p.complex != s.space.stage_complex(s.level):\n",
        "    if p.level != s.level:\n",
        ("tests/test_realization.py::TestStarContains::test_a_point_of_another_space_is_refused",),
        "exact points off the import path",
        "star membership refuses a point of another space at the same level",
    ),
    Mutant(
        SELFTEST,
        "            weight = (c - nxt) * (i + 1)\n",
        "            weight = (c - nxt) * i\n",
        ("tests/test_realization.py::TestPushPoint::test_generic_point_staircase",
         "tests/test_realization.py::TestPushPoint::test_midpoint_becomes_barycenter_vertex"),
        "exact points off the import path",
        "a staircase step weighs the i-th prefix by i",
    ),
    Mutant(
        SELFTEST,
        "    if isinstance(x, float):\n",
        "    if False:\n",
        ("tests/test_acceptance.py::test_criterion_9_exact_arithmetic_audit",
         "tests/test_realization.py::TestCarrier::test_float_coordinates_rejected"),
        "exact points off the import path",
        "a float coordinate is refused at run time (criterion 9)",
    ),
    Mutant(
        SELFTEST,
        "    if total != 1:\n",
        "    if False:\n",
        ("tests/test_realization.py::TestCarrier::test_bad_sum_rejected",),
        "exact points off the import path",
        "a point's coordinates sum to 1",
    ),
    Mutant(
        SELFTEST,
        "    if target_level < p.level:\n"
        '        raise CannotCoarsen("points can only be pushed to finer levels")\n',
        "",
        ("tests/test_realization.py::TestPushPoint::test_cannot_coarsen",),
        "exact points off the import path",
        "a point is never pushed to a coarser level",
    ),
    Mutant(
        SELFTEST,
        "        if c == 0:\n            continue\n",
        "",
        ("tests/test_refusals.py::TestRealizeMap::test_a_zero_coordinate_needs_no_image",),
        "exact points off the import path",
        "a vertex of zero weight needs no image under an affine map",
    ),
]

# (origin, what the mutant did, why it no longer applies)
RETIRED = [
    ("product facets of the one-per-level complex",
     "`itertools.product` over every part, empty ones included",
     "parts are made only for the levels a hit set meets, so none is empty; "
     "the products are back as facets, and 'an empty hit set has no "
     "products' guards the one empty case"),
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
    ("one-per-level complex as a join",
     "each level's part holds every element of the hit set",
     "`_one_per_level_faces` is gone: a complex is its facets, and the "
     "per-level split lives on in `_products` ('a product's parts are "
     "split by level')"),
    ("one-per-level complex as a join",
     "each part adds its elements to the singletons only",
     "`_one_per_level_faces` is gone: no face is enumerated, and 'a product "
     "takes one element of every level the hit set meets' guards the join"),
    ("one-per-level complex as a join",
     "the empty face is kept",
     "`_one_per_level_faces` is gone: products start from no empty face, "
     "and 'an empty hit set has no products' guards the one empty case"),
    ("nerves and map checks from facets",
     "the linear `facets` rule skips edges",
     "the rule is gone: a complex stores its facets and never derives them"),
    ("every refusal a PolycoverError",
     "the point reader loses `space.stage(level)` before its mapped call",
     "the point document and its reader are gone; the star-set reader's "
     "mutant guards the same rule, levels before labels"),
    ("canonical search states",
     "a closed twin is keyed as an open one with no component",
     "not registered, since no test kills it: on criterion 6 and on 460 "
     "three- and four-family level-1 trees over the tetrahedron and the "
     "4-simplex, every pair of states it merges had equal node and prune "
     "counts"),
    ("one holders index per cover",
     "`max` for `min` in `refinement_map`",
     "the same mutant as 'the refinement map picks the least-id coarse "
     "element'"),
]
