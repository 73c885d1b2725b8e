"""Plain-integer brute force for the classical side, independent of bellkit.lhvt.

A strategy is an integer i in [0, 2**free).  Free slot s (counted party-major,
setting-minor, flip-90 classes in order of first appearance) answers +1 when
bit (free - 1 - s) of i is 0 and -1 otherwise, which is the fixed order that
lhvt.enumerate_strategies documents.  Only Python ints and floats are used.
"""

from __future__ import annotations

from fractions import Fraction


def slot_plans(spec) -> tuple[list[list[tuple[int, int]]], int]:
    """Per party, the (free slot, sign) that answers at each setting, and the
    number of free slots."""
    free_parties = 1 if (spec.identical or spec.opposite) else spec.parties
    own, offset = [], 0
    for p in range(free_parties):
        plan, classes = [], {}
        for angle in spec.settings[p]:
            key = angle % 90.0 if spec.flip_90 else angle
            if key not in classes:
                classes[key] = (angle, offset + len(classes))
            first, slot = classes[key]
            half_turns = round((angle - first) / 90.0)
            plan.append((slot, -1 if half_turns % 2 else 1))
        own.append(plan)
        offset += len(classes)
    plans = []
    for p in range(spec.parties):
        if p < free_parties:
            plans.append(own[p])
        else:
            flip = -1 if spec.opposite else 1
            plans.append([(slot, flip * sign) for slot, sign in own[0]])
    return plans, offset


def strategy_count(spec) -> int:
    return 2 ** slot_plans(spec)[1]


def brute_force(spec, weights=None) -> tuple[list[int], list[float]]:
    """For every strategy, the number of runs on which all parties agree; and,
    when weights are given, the weighted mean outcome product of every run."""
    plans, free = slot_plans(spec)
    members = [
        [plans[p][spec.settings[p].index(angle)] for p, angle in enumerate(run)]
        for run in spec.runs
    ]
    hits = []
    mix = [0.0] * len(spec.runs)
    top = free - 1
    for i in range(2**free):
        agree = 0
        for r, run in enumerate(members):
            values = [sign if not (i >> (top - slot)) & 1 else -sign for slot, sign in run]
            if all(v == values[0] for v in values):
                agree += 1
            if weights is not None:
                product = 1
                for v in values:
                    product *= v
                mix[r] += weights[i] * product
        hits.append(agree)
    return hits, mix


def bound(hits: list[int], runs: int, score: str, direction: str) -> tuple[Fraction, int]:
    """Extremal agreement (or antiparallel) fraction and how many strategies reach it."""
    values = [Fraction(h, runs) if score == "agreement" else 1 - Fraction(h, runs) for h in hits]
    best = max(values) if direction == "max" else min(values)
    return best, values.count(best)
