from dataclasses import replace

import numpy as np
import pytest

from ecindex.alphabet import (
    AlphabetWorld,
    endowment_rank_oracle,
    generate_nested_world,
    generate_random_world,
    letter_symbols,
    world_to_incidence,
    write_world,
)
from ecindex.errors import EmptyAfterPrune, InfeasibleWorld
from ecindex.spectral import eci, largest_component

from oracles import pearson_by_formula


def chain_world(requirements):
    letters = ("a", "b", "c")
    return AlphabetWorld(
        letters=letters,
        location_labels=("L000", "L001", "L002"),
        endowments=(frozenset("a"), frozenset("ab"), frozenset("abc")),
        activity_labels=tuple(f"A{i:03d}" for i in range(len(requirements))),
        requirements=tuple(frozenset(req) for req in requirements),
        seed=0,
    )


class TestGenerateNestedWorld:
    def test_minimal_chain(self):
        world = generate_nested_world(3, 5, seed=1)
        assert world.letters == ("a", "b", "c")
        assert world.endowments == (frozenset("a"), frozenset("ab"), frozenset("abc"))

    def test_strict_chain_for_larger_worlds(self):
        world = generate_nested_world(30, 45, seed=2)
        for small, large in zip(world.endowments, world.endowments[1:]):
            assert small < large

    def test_same_seed_same_world(self):
        assert generate_nested_world(8, 12, seed=9) == generate_nested_world(8, 12, seed=9)

    def test_different_seed_differs(self):
        a = generate_nested_world(8, 20, seed=1)
        b = generate_nested_world(8, 20, seed=2)
        assert a.requirements != b.requirements

    def test_every_requirement_feasible_for_top_location(self):
        world = generate_nested_world(10, 30, seed=3)
        top = world.endowments[-1]
        assert all(req <= top for req in world.requirements)

    def test_needs_two_locations(self):
        with pytest.raises(ValueError):
            generate_nested_world(1, 5, seed=0)


class TestGenerateRandomWorld:
    def test_zero_letters_per_word_rejected(self):
        with pytest.raises(ValueError):
            generate_random_world(4, 6, 5, 0, seed=0)

    def test_ordering_precondition(self):
        with pytest.raises(ValueError):
            generate_random_world(4, 6, 3, 5, seed=0)
        with pytest.raises(ValueError):
            generate_random_world(4, 6, 30, 2, seed=0, num_letters=26)

    def test_same_seed_same_world(self):
        a = generate_random_world(5, 8, 6, 2, seed=42, num_letters=8)
        b = generate_random_world(5, 8, 6, 2, seed=42, num_letters=8)
        assert a == b

    def test_sizes_respected(self):
        world = generate_random_world(5, 8, 6, 2, seed=7, num_letters=8)
        assert all(len(e) == 6 for e in world.endowments)
        assert all(len(r) == 2 for r in world.requirements)

    def test_every_activity_feasible_somewhere(self):
        world = generate_random_world(6, 12, 5, 2, seed=11, num_letters=8)
        for req in world.requirements:
            assert any(req <= endowment for endowment in world.endowments)

    def test_infeasible_world_raises(self):
        # requirements must match an endowment exactly; with a 26-letter pool
        # and 2 locations that never happens within the retry budget
        with pytest.raises(InfeasibleWorld):
            generate_random_world(2, 12, 6, 6, seed=13)


class TestWorldToIncidence:
    def test_nested_subset_checks(self):
        world = chain_world(["a", "ab", "abc"])
        m = world_to_incidence(world)
        assert m.values.tolist() == [[1, 0, 0], [1, 1, 0], [1, 1, 1]]

    def test_missing_letter_blocks_activity(self):
        # the surgeon/pianist case: one absent capability is enough
        world = chain_world(["b"])
        m = world_to_incidence(world)
        assert m.location_labels == ("L001", "L002")  # L000 lacks "b" and is pruned
        assert m.values.tolist() == [[1], [1]]

    def test_infeasible_activity_pruned(self):
        world = AlphabetWorld(
            letters=("a", "b", "z"),
            location_labels=("L000", "L001"),
            endowments=(frozenset("a"), frozenset("ab")),
            activity_labels=("A000", "A001"),
            requirements=(frozenset("a"), frozenset("z")),
            seed=0,
        )
        m = world_to_incidence(world)
        assert m.activity_labels == ("A000",)

    def test_empty_requirement_rejected_by_type(self):
        with pytest.raises(ValueError):
            chain_world(["a", ""])

    def test_nothing_feasible_propagates_empty(self):
        world = AlphabetWorld(
            letters=("a", "z"),
            location_labels=("L000",),
            endowments=(frozenset("a"),),
            activity_labels=("A000",),
            requirements=(frozenset("z"),),
            seed=0,
        )
        with pytest.raises(EmptyAfterPrune):
            world_to_incidence(world)

    def test_feasibility_monotone_in_endowment(self):
        world = generate_random_world(6, 12, 5, 2, seed=17, num_letters=8)
        m = world_to_incidence(world)
        grown = AlphabetWorld(
            letters=world.letters,
            location_labels=world.location_labels,
            endowments=tuple(
                endowment | {world.letters[0]} for endowment in world.endowments
            ),
            activity_labels=world.activity_labels,
            requirements=world.requirements,
            seed=world.seed,
        )
        m_grown = world_to_incidence(grown)
        shared_acts = [a for a in m.activity_labels if a in m_grown.activity_labels]
        for loc in m.location_labels:
            if loc not in m_grown.location_labels:
                continue
            i, gi = m.location_labels.index(loc), m_grown.location_labels.index(loc)
            for act in shared_acts:
                j, gj = m.activity_labels.index(act), m_grown.activity_labels.index(act)
                assert m_grown.values[gi, gj] >= m.values[i, j]


class TestEndowmentRankOracle:
    def test_chain(self):
        world = chain_world(["a"])
        assert endowment_rank_oracle(world).tolist() == [3, 2, 1]

    def test_ties_share_rank(self):
        world = AlphabetWorld(
            letters=("a", "b"),
            location_labels=("L000", "L001", "L002"),
            endowments=(frozenset("a"), frozenset("b"), frozenset("ab")),
            activity_labels=("A000",),
            requirements=(frozenset("a"),),
            seed=0,
        )
        assert endowment_rank_oracle(world).tolist() == [2, 2, 1]

    def test_matches_sort_oracle(self):
        world = generate_random_world(8, 10, 5, 2, seed=19, num_letters=9)
        ranks = endowment_rank_oracle(world)
        sizes = [len(e) for e in world.endowments]
        expected = [1 + sum(1 for other in sizes if other > size) for size in sizes]
        assert ranks.tolist() == expected


def test_nested_world_oracle_recovery_smoke():
    world = generate_nested_world(8, 16, seed=23)
    m = world_to_incidence(world)
    assert m.location_labels == world.location_labels  # nothing pruned
    scores = eci(m)
    sizes = [len(e) for e in world.endowments]
    # strictly increasing capability must give strictly increasing ECI
    assert (np.diff(scores.standardized) > 0).all()
    assert pearson_by_formula(scores.standardized, sizes) > 0


def test_disjoint_endowments_disconnect_the_graph():
    # two self-contained capability islands: a surgeon plus a pianist
    world = AlphabetWorld(
        letters=("a", "b", "c", "d"),
        location_labels=("L000", "L001"),
        endowments=(frozenset("ab"), frozenset("cd")),
        activity_labels=("A000", "A001", "A002", "A003"),
        requirements=(frozenset("a"), frozenset("ab"), frozenset("c"), frozenset("cd")),
        seed=0,
    )
    m = world_to_incidence(world)
    kept, report = largest_component(m)
    assert report.n_components == 2
    assert report.excluded_locations == ("L001",)
    assert set(report.excluded_activities) == {"A002", "A003"}


def test_world_file_roundtrip(tmp_path):
    world = generate_random_world(5, 8, 6, 2, seed=29, num_letters=8)
    path = tmp_path / "world.txt"
    write_world(path, world)
    text = path.read_text()
    assert text.startswith("seed: 29\n")
    read = {key: rest.split() for key, _, rest in (line.partition(":") for line in text.splitlines())}
    assert len(read) == 2 + len(world.location_labels) + len(world.activity_labels)
    assert tuple(read["letters"]) == world.letters
    assert tuple(frozenset(read[f"location {label}"]) for label in world.location_labels) == world.endowments
    assert tuple(frozenset(read[f"activity {label}"]) for label in world.activity_labels) == world.requirements


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: replace(chain_world(["a"]), endowments=(frozenset("a"),)), "one endowment per location"),
        (lambda: replace(chain_world(["a"]), requirements=()), "one requirement per activity"),
        (lambda: replace(chain_world(["a"]), endowments=(frozenset("a"),) * 2 + (frozenset("az"),)),
         "endowment contains unknown letters"),
        (lambda: chain_world(["az"]), "requirement contains unknown letters"),
        (lambda: generate_nested_world(3, 0, seed=0), "need at least 1 activity"),
        (lambda: generate_random_world(0, 6, 5, 2, seed=0), "need at least 1 location and 1 activity"),
        (lambda: generate_random_world(4, 0, 5, 2, seed=0), "need at least 1 location and 1 activity"),
    ],
    ids=["endowment-count", "requirement-count", "endowment-letter", "requirement-letter",
         "nested-no-activity", "random-no-location", "random-no-activity"],
)
def test_bad_arguments_are_refused(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_letter_symbols_extend_beyond_z():
    symbols = letter_symbols(30)
    assert symbols[0] == "a"
    assert symbols[25] == "z"
    assert symbols[26] == "aa"
    assert len(set(symbols)) == 30
    symbols = letter_symbols(703)
    assert symbols[51:53] == ("az", "ba")
    assert symbols[701:] == ("zz", "aaa")
