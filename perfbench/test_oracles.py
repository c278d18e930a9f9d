"""The benchmark's oracles against hand-computed values.

    python3 -m pytest perfbench/test_oracles.py   # or
    python3 perfbench/test_oracles.py
"""

from fractions import Fraction

from corpus import corpus, pieces
from inputs import multipartitions, partition_cells, random_filling, random_shape, violate
from oracles import (check_tableau, check_u_character, check_witness,
                     condition_violated, elementary_symmetric, filling_count,
                     hook_count, normal_form)

# (2,1) for ell = 1: cells (row, c) with contents 0, 1 / -1
HOOK21 = [(0, Fraction(0), frozenset({(1, 0), (1, 1), (2, -1)}))]


def test_hook_count():
    assert hook_count([(2, 1)]) == 2
    assert hook_count([(3, 2)]) == 5
    assert hook_count([(1,), (1,)]) == 2
    assert hook_count([(2, 1), (1,)]) == 8  # 4! / (3 * 1 * 1 * 1)
    assert hook_count([(2, 1), ()]) == 2


def test_filling_count():
    assert filling_count(HOOK21) == 2
    # (3,3)/(1): 1 always sits in the removed corner of (3,3), so f = f^(3,3) = 5
    assert filling_count([(0, 0, {(1, 1), (1, 2), (2, -1), (2, 0), (2, 1)})]) == 5
    # (2,2)/(1): two boxes both below-left of the last one
    assert filling_count([(0, 0, {(1, 1), (2, -1), (2, 0)})]) == 2
    # two separate boxes (same colour, contents 0 and 2) fill in either order
    assert filling_count([(0, 0, {(1, 0), (1, 2)})]) == 2
    # a domino in one colour and a box in another: 3 places for the box
    assert filling_count([(0, 0, {(1, 0), (1, 1)}), (1, 0, {(1, 0)})]) == 3
    assert filling_count([(b, 0, partition_cells(lam)) for b, lam in enumerate([(2, 1), (1,)])]) == 8


def test_elementary_symmetric_and_u_character():
    assert elementary_symmetric([1, 2, 3]) == [6, 11, 6]
    # (2,1): contents 0, 1, -1, so e_1 = 0, e_2 = -1, e_3 = 0
    good = [{"ell": 1, "coeffs": [x]} for x in ("0", "-1", "0")]
    assert check_u_character(1, HOOK21, good) is None
    assert check_u_character(1, HOOK21, good[:2] + [{"ell": 1, "coeffs": ["1"]}])
    # ell = 2 multiplies every content by 2 and pads the power basis
    two = [{"ell": 2, "coeffs": [x, "0"]} for x in ("0", "-4", "0")]
    assert check_u_character(2, HOOK21, two) is None
    assert check_u_character(2, HOOK21, [{"ell": 2, "coeffs": ["0", "1"]}] + two[1:])


def test_normal_form():
    a = [(0, Fraction(0), {(1, 0), (1, 1)}), (0, Fraction(0), {(5, 3)})]
    b = [(0, Fraction(0), {(7, 3)}), (0, Fraction(0), {(2, 0), (2, 1)})]
    assert normal_form(1, a) == normal_form(1, b)
    # an offset of 3/2 is an offset of 1/2 with every content one higher
    assert normal_form(2, [(1, Fraction(3, 2), {(1, 0)})]) == \
        normal_form(2, [(1, Fraction(1, 2), {(1, 1)})])
    assert normal_form(1, a) != normal_form(1, [(0, Fraction(0), {(1, 0), (1, 1), (1, 4)})])
    assert normal_form(2, [(0, 0, {(1, 0)})]) != normal_form(2, [(1, 0, {(1, 0)})])


def tableau_21(labels):
    cells = [(1, 0), (1, 1), (2, -1)]
    return {"ell": 1, "components": [{"beta": 0, "offset": "0",
                                      "cells": [list(c) for c in sorted(cells)]}],
            "entries": [[r, c, 0, lab] for (r, c), lab in zip(cells, labels)]}


def test_check_tableau():
    ones = [0, 0, 0]
    assert check_tableau(tableau_21([1, 2, 3]), [0, 1, -1], ones, 1) is None
    assert check_tableau(tableau_21([1, 3, 2]), [0, -1, 1], ones, 1) is None
    assert check_tableau(tableau_21([2, 1, 3]), [1, 0, -1], ones, 1)  # not standard
    assert check_tableau(tableau_21([1, 2, 3]), [0, -1, 1], ones, 1)  # other weight
    assert check_tableau(tableau_21([1, 2, 2]), [0, 1, -1], ones, 1)  # no bijection
    assert check_tableau(tableau_21([1, 2, 3]), [0, 1, -1], [0, 0, 1], 1)  # colour


def test_check_witness():
    assert check_witness({"kind": "AdjacentEqual", "i": 1, "j": 2}, [0, 0], [0, 0], 1) is None
    assert check_witness({"kind": "AdjacentEqual", "i": 1, "j": 2}, [0, 0], [0, 1], 2)
    a, b = [0, -1, 0], [0, 0, 0]
    up = {"kind": "MissingUpStep", "i": 1, "j": 3, "required_a": "1"}
    assert check_witness(up, a, b, 1) is None
    assert check_witness({**up, "kind": "MissingDownStep", "required_a": "-1"}, a, b, 1)
    assert check_witness({**up, "required_a": "2"}, a, b, 1)
    assert check_witness({"kind": "AdjacentEqual", "i": 1, "j": 3}, a, b, 1)
    assert check_witness({**up, "j": 4}, a, b, 1)


def test_condition_violated():
    assert condition_violated([0, 0], [0, 0], 1)
    assert not condition_violated([0, 0], [0, 1], 2)
    # 0, 1, -1, 0 has both steps between the equal entries
    assert not condition_violated([0, 1, -1, 0], [0] * 4, 1)
    assert condition_violated([0, 1, -1, 0], [0, 1, 0, 0], 2)


def test_generated_weights():
    import random
    rng = random.Random(7)
    for _ in range(200):
        ell = rng.randint(1, 4)
        comps = random_shape(rng, ell, rng.randint(2, 12), of_partitions=rng.random() < 0.4)
        a, b = random_filling(rng, ell, comps)
        assert len(a) == sum(len(cells) for _, _, cells in comps)
        assert not condition_violated(a, b, ell)
        assert condition_violated(*violate(rng, a, b, ell), ell)


def test_corpus():
    assert [len(pieces(m)) for m in (1, 2, 3)] == [1, 2, 4]
    # ell = 1, n = 2: the row, the column, and two boxes at contents 0 and 2
    assert len(corpus(1, 2)) == 3
    assert len(corpus(2, 1)) == 2
    assert len(list(multipartitions(2, 2))) == 5
    assert len(list(multipartitions(1, 6))) + len(list(multipartitions(2, 6))) == 76


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
    print("oracle tests passed")
