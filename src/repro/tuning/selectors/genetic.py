"""The genetic selector.

"These algorithms are based on the biological principles of mutation,
selection, and crossover. Genetic algorithms (e.g., for index selection
Kratica et al. [21]) can be applied when the search space is too large to
find optimal solutions. They usually find close-to-optimal solutions in
relatively short amounts of time" (Section II-D.c).

Genome layout: one integer gene per required group (which member is
chosen) plus one bit per ungrouped/optional candidate. Budget violations
are penalised proportionally to the excess, so evolution is pushed toward
feasibility; the best *feasible* individual ever seen is returned.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.errors import SelectionError
from repro.tuning.assessment import Assessment
from repro.tuning.selectors.base import (
    ScoreFn,
    Selector,
    budget_violations,
    group_members,
    resource_usage,
)
from repro.util.rng import derive_rng

#: genomes per generation
POPULATION_SIZE = 40
#: chance that one gene is redrawn (a group member) or flipped (a bit)
MUTATION_RATE = 0.08
#: genomes drawn per parent tournament
TOURNAMENT_SIZE = 3
#: fittest genomes carried into the next generation unchanged
ELITE = 2


@dataclass
class _Problem:
    assessments: list[Assessment]
    scores: list[float]
    budgets: Mapping[str, float]
    #: indices per required group, in stable order
    group_slots: list[list[int]]
    #: indices of candidates represented as independent bits
    bit_slots: list[int]

    def decode(self, genome: np.ndarray) -> set[int]:
        chosen: set[int] = set()
        taken_groups: set[str] = set()
        for slot, members in enumerate(self.group_slots):
            chosen.add(members[int(genome[slot]) % len(members)])
        offset = len(self.group_slots)
        for bit, index in enumerate(self.bit_slots):
            if genome[offset + bit] < 0.5:
                continue
            group = self.assessments[index].candidate.group
            if group is not None:
                if group in taken_groups:
                    continue
                taken_groups.add(group)
            chosen.add(index)
        return chosen

    def violations(self, chosen: set[int]) -> dict[str, float]:
        usage = resource_usage(self.assessments, chosen, list(self.budgets))
        return budget_violations(usage, self.budgets)

    def fitness(
        self, total: float, violations: Mapping[str, float], penalty_scale: float
    ) -> float:
        for resource, excess in violations.items():
            limit = abs(self.budgets[resource]) + 1.0
            total -= penalty_scale * (1.0 + excess / limit)
        return total


class GeneticSelector(Selector):
    """Evolutionary selection with penalty-driven feasibility."""

    name = "genetic"

    def __init__(self, generations: int = 60, seed: int = 0) -> None:
        self._generations = generations
        self._seed = seed

    def _random_genome(
        self, problem: _Problem, rng: np.random.Generator
    ) -> np.ndarray:
        genes = []
        for members in problem.group_slots:
            genes.append(float(rng.integers(len(members))))
        for _ in problem.bit_slots:
            genes.append(float(rng.random() < 0.3))
        return np.array(genes)

    def _mutate(
        self, genome: np.ndarray, problem: _Problem, rng: np.random.Generator
    ) -> np.ndarray:
        child = genome.copy()
        for slot, members in enumerate(problem.group_slots):
            if rng.random() < MUTATION_RATE:
                child[slot] = float(rng.integers(len(members)))
        offset = len(problem.group_slots)
        for bit in range(len(problem.bit_slots)):
            if rng.random() < MUTATION_RATE:
                child[offset + bit] = 1.0 - child[offset + bit]
        return child

    def select(
        self,
        assessments: list[Assessment],
        budgets: Mapping[str, float],
        score: ScoreFn,
    ) -> list[Assessment]:
        scores = [score(a) for a in assessments]
        groups, required = group_members(assessments)
        group_slots = [groups[g] for g in sorted(required)]
        in_required = {i for g in required for i in groups[g]}
        bit_slots = [i for i in range(len(assessments)) if i not in in_required]
        problem = _Problem(assessments, scores, budgets, group_slots, bit_slots)
        penalty_scale = max((abs(s) for s in scores), default=1.0) * max(
            len(assessments), 1
        )

        rng = derive_rng(self._seed, "genetic-selector")
        population = [
            self._random_genome(problem, rng)
            for _ in range(POPULATION_SIZE)
        ]
        best_feasible: tuple[float, set[int]] | None = None

        def evaluate(genome: np.ndarray) -> float:
            nonlocal best_feasible
            chosen = problem.decode(genome)
            value = sum(scores[i] for i in chosen)
            violations = problem.violations(chosen)
            if not violations and (
                best_feasible is None or value > best_feasible[0]
            ):
                best_feasible = (value, chosen)
            return problem.fitness(value, violations, penalty_scale)

        fitnesses = [evaluate(g) for g in population]
        for _generation in range(self._generations):
            order = np.argsort(fitnesses)[::-1]
            next_population = [population[i].copy() for i in order[:ELITE]]
            while len(next_population) < POPULATION_SIZE:
                picks = rng.integers(0, len(population), TOURNAMENT_SIZE)
                parent_a = population[max(picks, key=lambda i: fitnesses[i])]
                picks = rng.integers(0, len(population), TOURNAMENT_SIZE)
                parent_b = population[max(picks, key=lambda i: fitnesses[i])]
                mask = rng.random(len(parent_a)) < 0.5
                child = np.where(mask, parent_a, parent_b)
                next_population.append(self._mutate(child, problem, rng))
            population = next_population
            fitnesses = [evaluate(g) for g in population]

        if best_feasible is None:
            raise SelectionError(
                "genetic search found no feasible selection within "
                f"{self._generations} generations"
            )
        return [assessments[i] for i in sorted(best_feasible[1])]
