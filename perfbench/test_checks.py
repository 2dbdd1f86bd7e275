"""Each check accepts the right output and rejects one corrupted in a single
coefficient, count or multiplicity.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import sys
import unittest
from collections import deque
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from checks import SplitModel  # noqa: E402


class ModelTest(unittest.TestCase):
    def test_closed_forms(self):
        for family, n in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("C", 3), ("D", 4)]:
            model = SplitModel(family, n)
            self.assertEqual(model.weyl_order, checks.weyl_order(family, n))
            self.assertEqual(len(model.roots), checks.root_count(family, n))
            self.assertEqual(len(model.positive) * 2, len(model.roots))

    def test_simple_reflections_have_length_one(self):
        model = SplitModel("C", 2)
        for j in range(2):
            self.assertEqual(model.length((0, 0), model.matrix((j,))), 1)
        self.assertEqual(model.length((0, 0), model.identity), 0)

    def test_class_count_and_stabilizer(self):
        s3 = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 4, 0, 5, 1, 3],
              [3, 5, 1, 4, 0, 2], [4, 2, 5, 0, 3, 1], [5, 3, 4, 1, 2, 0]]
        self.assertEqual(checks.class_count(s3), 3)
        self.assertEqual(checks.gl_stabilizer_order([0, 0, Fraction(1, 2), 0]), 6)


class HeckeChecksTest(unittest.TestCase):
    def setUp(self):
        self.model = SplitModel("A", 2)
        self.unit = ((0, 0), self.model.identity)
        self.s0 = ((0, 0), self.model.matrix((0,)))

    def test_quadratic(self):
        good = {self.unit: {0: Fraction(1)}, self.s0: {2: Fraction(1), -2: Fraction(-1)}}
        self.assertIsNone(checks.check_quadratic(good, self.unit, self.s0, 2))
        bad = {self.unit: {0: Fraction(1)}, self.s0: {2: Fraction(1), -2: Fraction(-2)}}
        self.assertIsNotNone(checks.check_quadratic(bad, self.unit, self.s0, 2))

    def test_group_limit_and_lengths_add(self):
        key = ((1, 0), self.model.matrix((1,)))
        good = {key: {0: Fraction(1)}}
        self.assertIsNone(checks.check_group_limit(good, key))
        self.assertIsNone(checks.check_lengths_add(good, key))
        deformed = {key: {0: Fraction(1)}, self.s0: {1: Fraction(1), -1: Fraction(-1)}}
        self.assertIsNone(checks.check_group_limit(deformed, key))
        self.assertIsNotNone(checks.check_lengths_add(deformed, key))
        self.assertIsNotNone(checks.check_group_limit({key: {0: Fraction(2)}}, key))
        bad = {key: {0: Fraction(1)}, self.s0: {1: Fraction(1), -1: Fraction(-2)}}
        self.assertIsNotNone(checks.check_group_limit(bad, key))

    def test_associativity_and_flags(self):
        lhs = {self.s0: {1: Fraction(1)}}
        self.assertIsNone(checks.check_equal(lhs, {self.s0: {1: Fraction(1)}}, "x"))
        self.assertIsNotNone(checks.check_equal(lhs, {self.s0: {1: Fraction(3)}}, "x"))
        self.assertIsNone(checks.check_flag(True, True, "oracle"))
        self.assertIsNotNone(checks.check_flag(False, True, "oracle"))
        self.assertIsNotNone(checks.check_flag(True, False, "N_s central"))


class PullbackChecksTest(unittest.TestCase):
    def test_conservation(self):
        self.assertIsNone(checks.check_conservation([(1, 1), (1, 1), (2, 1)], 4, 1))
        self.assertIsNotNone(checks.check_conservation([(1, 1), (1, 2), (2, 1)], 4, 1))

    def test_sln_example(self):
        n = 3
        self.assertIsNone(checks.check_sln_stabilizer(n, n, True))
        self.assertIsNotNone(checks.check_sln_stabilizer(n, n + 1, True))
        self.assertIsNotNone(checks.check_sln_stabilizer(n, n, False))
        ad = [([1], Fraction(k, n), Fraction(k + 1, n) % 1) for k in range(n)]
        self.assertIsNone(checks.check_ad_twist(n, ad))
        for corrupt in ([([2],) + a[1:] for a in ad],
                        [(a[0], a[1], a[1]) for a in ad],
                        ad[:2]):
            self.assertIsNotNone(checks.check_ad_twist(n, corrupt), corrupt)
        self.assertIsNotNone(checks.check_value([1, 2], [1, 1, 1], "inclusion"))
        self.assertIsNotNone(checks.check_value(6, n, "Weyl-group stabilizer"))


class CliChecksTest(unittest.TestCase):
    """The reply checks of cli_session, on replies made up here."""

    @classmethod
    def setUpClass(cls):
        import workloads
        cls.w = workloads
        a1 = SplitModel("A", 1)
        cls.models = {"datum:a1sc": a1, "datum:a1ad": a1}

    def verdict(self, expect, argv, payload, replies=None, code=0, stderr=""):
        check = self.w._guarded(self.w._reply_check(
            expect, argv, self.models, replies if replies is not None else deque(maxlen=3)))
        stdout = json.dumps(payload) if payload is not None else ""
        return check((code, stdout, stderr))

    def test_counts(self):
        argv = ["weyl", "enumerate", "--in", "datum:b3sc"]
        self.assertIsNone(self.verdict({"order": 48}, argv, {"order": 48, "words": []}))
        self.assertIsNotNone(self.verdict({"order": 48}, argv, {"order": 47, "words": []}))
        argv = ["rootdatum", "build"]
        datum = {"rank": 2, "roots": [[1]] * 8, "coroots": [], "simples": []}
        self.assertIsNone(self.verdict({"roots": 8, "rank": 2}, argv, datum))
        self.assertIsNotNone(self.verdict({"roots": 8, "rank": 2}, argv,
                                          dict(datum, roots=[[1]] * 7)))

    def test_characters(self):
        expect = {"group_order": 6, "classes": 3}
        argv = ["finrep", "irreducibles"]
        self.assertIsNone(self.verdict(expect, argv, {"degrees": [1, 1, 2]}))
        self.assertIsNotNone(self.verdict(expect, argv, {"degrees": [1, 1, 1]}))
        self.assertIsNotNone(self.verdict(expect, argv, {"degrees": [1, 1, 2, 0]}))

    def test_tau_and_multiplicities(self):
        argv = ["param", "tau"]
        expect = {"angles": ["0", "1/3", "2/3"]}
        self.assertIsNone(self.verdict(expect, argv, {"values": ["1", "zeta_3^1", "zeta_3^2"]}))
        self.assertIsNotNone(self.verdict(expect, argv, {"values": ["1", "zeta_3^1", "zeta_3^1"]}))
        argv = ["pullback", "--hom"]
        expect = {"count": 2, "multiplicities": [1, 1]}
        good = {"count": 2, "outputs": [{"multiplicity": 1}, {"multiplicity": 1}]}
        self.assertIsNone(self.verdict(expect, argv, good))
        bad = {"count": 2, "outputs": [{"multiplicity": 1}, {"multiplicity": 2}]}
        self.assertIsNotNone(self.verdict(expect, argv, bad))

    def test_hecke_mul(self):
        def elt(terms):
            return [[{"t": list(t), "w_word": list(w), "r": 0},
                     {"vars": ["z"], "terms": [[[e], {"n": 1, "coeffs": [[0, str(c)]]}]
                                               for e, c in poly]}]
                    for (t, w), poly in terms]
        argv = ["hecke", "mul", "--spec", "datum:a1sc"]
        first = elt([(((1,), ()), [(1, 2), (-1, 1)])])
        second = elt([(((0,), (0,)), [(0, 1)])])
        total = elt([(((0,), (0,)), [(0, 1)]), (((1,), ()), [(1, 2), (-1, 1)])])
        expect = {"at_one": [[[0], [0], "1"], [[1], [], "3"]], "sum_of_previous_two": True}
        replies = deque([{"product": first}, {"product": second}], maxlen=3)
        self.assertIsNone(self.verdict(expect, argv, {"product": total}, replies))
        replies = deque([{"product": first}, {"product": second}], maxlen=3)
        corrupt = elt([(((0,), (0,)), [(0, 1)]), (((1,), ()), [(1, 1), (-1, 2)])])
        self.assertIsNotNone(self.verdict(expect, argv, {"product": corrupt}, replies))
        replies = deque([{"product": first}, {"product": second}], maxlen=3)
        corrupt = elt([(((0,), (0,)), [(0, 1)]), (((1,), ()), [(1, 2), (-1, 2)])])
        self.assertIsNotNone(self.verdict(expect, argv, {"product": corrupt}, replies))

    def test_refusals(self):
        expect = {"refused": True}
        argv = ["rootdatum", "validate"]
        self.assertIsNone(self.verdict(expect, argv, None, code=2, stderr="bad\n"))
        self.assertIsNotNone(self.verdict(expect, argv, {"valid": True}))
        self.assertIsNotNone(self.verdict(expect, argv, None, code=0, stderr="bad\n"))
        self.assertIsNotNone(self.verdict(expect, argv, None, code=1, stderr="a\nb\n"))


if __name__ == "__main__":
    unittest.main()
