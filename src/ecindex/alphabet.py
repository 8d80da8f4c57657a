"""Synthetic alphabet economies: a ground-truth oracle for the metrics.

Letters stand for capabilities, locations own subsets of letters
(endowments), activities require subsets (requirements), and a location can
perform an activity exactly when it owns every required letter. Feasibility
is strict containment with no partial credit: missing one letter is enough to
lose the activity. Because endowments are known by construction, the induced
incidence matrices come with an exact complexity ordering to validate
against.

All randomness flows through ``numpy.random.default_rng`` (PCG64), so a seed
pins the generated world across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, islice, product
from pathlib import Path
from string import ascii_lowercase

import numpy as np

from .errors import InfeasibleWorld
from .incidence import IncidenceMatrix, prune_degenerate

#: whole-world redraws before generate_random_world gives up
RETRY_BUDGET = 100


@dataclass(frozen=True)
class AlphabetWorld:
    letters: tuple[str, ...]
    location_labels: tuple[str, ...]
    endowments: tuple[frozenset[str], ...]
    activity_labels: tuple[str, ...]
    requirements: tuple[frozenset[str], ...]
    seed: int

    def __post_init__(self):
        pool = set(self.letters)
        if len(self.endowments) != len(self.location_labels):
            raise ValueError("one endowment per location required")
        if len(self.requirements) != len(self.activity_labels):
            raise ValueError("one requirement per activity required")
        for endowment in self.endowments:
            if not endowment <= pool:
                raise ValueError("endowment contains unknown letters")
        for requirement in self.requirements:
            if not requirement:
                raise ValueError("requirement sets must be non-empty")
            if not requirement <= pool:
                raise ValueError("requirement contains unknown letters")


def letter_symbols(n: int) -> tuple[str, ...]:
    """a..z, then aa, ab, ... for alphabets beyond 26 letters."""
    words = (map("".join, product(ascii_lowercase, repeat=k)) for k in count(1))
    return tuple(islice(chain.from_iterable(words), n))


def _world(letters, endowments, requirements, seed: int) -> AlphabetWorld:
    """The world of these endowments and requirements, locations labeled
    ``L000``, ``L001``, ... and activities ``A000``, ``A001``, ... in order."""
    return AlphabetWorld(
        letters=letters,
        location_labels=tuple(f"L{i:03d}" for i in range(len(endowments))),
        endowments=endowments,
        activity_labels=tuple(f"A{j:03d}" for j in range(len(requirements))),
        requirements=requirements,
        seed=seed,
    )


def generate_nested_world(num_locations: int, num_activities: int, seed: int) -> AlphabetWorld:
    """World whose endowments form a strict chain E1 < E2 < ... < EC.

    Location ``i`` owns the first ``i+1`` letters, so capability is totally
    ordered and the top location can perform everything. Each requirement is
    pinned to a level k (its highest letter is the k-th), making the
    feasibility matrix a staircase. When ``num_activities >= num_locations``
    the first ``num_locations`` requirements cover every level once, so no
    two locations end up with identical activity rows; remaining levels are
    sampled.
    """
    if num_locations < 2:
        raise ValueError("need at least 2 locations")
    if num_activities < 1:
        raise ValueError("need at least 1 activity")
    rng = np.random.default_rng(seed)
    letters = letter_symbols(num_locations)
    endowments = tuple(frozenset(letters[: i + 1]) for i in range(num_locations))
    requirements = []
    for j in range(num_activities):
        if j < num_locations:
            level = j + 1
        else:
            level = int(rng.integers(1, num_locations + 1))
        required = {letters[level - 1]}
        if level > 1:
            mask = rng.random(level - 1) < 0.5
            required.update(letter for letter, take in zip(letters[: level - 1], mask) if take)
        requirements.append(frozenset(required))
    return _world(letters, endowments, tuple(requirements), seed)


def generate_random_world(
    num_locations: int,
    num_activities: int,
    letters_per_location: int,
    letters_per_word: int,
    seed: int,
    num_letters: int = 26,
) -> AlphabetWorld:
    """Uniformly sampled fixed-size endowments and requirements.

    Worlds where some activity is feasible nowhere are redrawn, up to
    ``RETRY_BUDGET`` attempts, then :class:`InfeasibleWorld` is raised.
    """
    if not 1 <= letters_per_word <= letters_per_location <= num_letters:
        raise ValueError(
            "need 1 <= letters_per_word <= letters_per_location <= num_letters"
        )
    if num_locations < 1 or num_activities < 1:
        raise ValueError("need at least 1 location and 1 activity")
    rng = np.random.default_rng(seed)
    letters = letter_symbols(num_letters)
    for _ in range(RETRY_BUDGET):
        endowments = tuple(
            frozenset(letters[i] for i in rng.choice(num_letters, size=letters_per_location, replace=False))
            for _ in range(num_locations)
        )
        requirements = tuple(
            frozenset(letters[i] for i in rng.choice(num_letters, size=letters_per_word, replace=False))
            for _ in range(num_activities)
        )
        feasible = all(
            any(requirement <= endowment for endowment in endowments)
            for requirement in requirements
        )
        if feasible:
            return _world(letters, endowments, requirements, seed)
    raise InfeasibleWorld(
        f"no feasible world in {RETRY_BUDGET} draws; "
        "loosen letters_per_word or add locations"
    )


def world_to_incidence(w: AlphabetWorld) -> IncidenceMatrix:
    """Feasibility matrix: 1 where the location owns every required letter.

    The result is pruned, so locations that can perform nothing (and
    activities nobody can perform) are dropped; :class:`EmptyAfterPrune`
    propagates if nothing survives.
    """
    values = np.array(
        [
            [1 if requirement <= endowment else 0 for requirement in w.requirements]
            for endowment in w.endowments
        ],
        dtype=np.int64,
    )
    matrix = IncidenceMatrix.from_values(values, w.location_labels, w.activity_labels)
    pruned, _ = prune_degenerate(matrix)
    return pruned


def endowment_rank_oracle(w: AlphabetWorld) -> np.ndarray:
    """Rank locations by endowment size: rank 1 is the largest, ties share
    the smallest applicable rank."""
    sizes = np.array([len(endowment) for endowment in w.endowments])
    return np.array([1 + int((sizes > size).sum()) for size in sizes])


def write_world(path: Path, w: AlphabetWorld) -> None:
    """Plain-text form: seed and letters header, then one line per location
    and per activity listing its letters."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"seed: {w.seed}\n")
        fh.write(f"letters: {' '.join(w.letters)}\n")
        for label, endowment in zip(w.location_labels, w.endowments):
            fh.write(f"location {label}: {' '.join(sorted(endowment))}\n")
        for label, requirement in zip(w.activity_labels, w.requirements):
            fh.write(f"activity {label}: {' '.join(sorted(requirement))}\n")
