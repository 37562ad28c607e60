"""Each output check accepts the program's real answers and rejects a
corrupted one; the layer trace wraps every binding and restores it.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import copy
import json
import random
import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

LB = run.import_program()


def _report(doc):
    text = LB.report.render_json(LB.report.run_scenario(LB.scenario.from_json(
        workloads.scenario_json(doc, 2 * 286 ** 2))))
    return json.loads(text)


SU23_RIGID = {"group": {"family": "SU", "p": 2, "q": 3},
              "blocks": [{"kind": "sesq_self", "dim": 1, "class_sig": [0, 1],
                          "mult_sig": [1, 0], "label": "D"},
                         {"kind": "sesq_self", "dim": 2, "class_sig": [1, 1],
                          "mult_sig": [2, 0], "label": "E"}],
              "decorations": [{"target": "E:il", "status": "maximal_positive"}]}
SP4R_FLEXIBLE = {"group": {"family": "SP_R", "n": 4},
                 "blocks": [{"kind": "imag_pair", "dim": 1, "mult": 1, "sig": [1, 0]},
                            {"kind": "zero", "dim": 2, "sig": [1, 1]}]}


class CertificateCheck(unittest.TestCase):
    def setUp(self):
        f = Fraction
        self.bal = LB.balance.BalancednessInstance.make(
            2, [[f(1), f(1)], [f(-1), f(0)]], [[f(0), f(1)]])
        self.unbal = LB.balance.BalancednessInstance.make(
            2, [[f(1), f(0)], [f(1), f(1)]], [[f(0), f(2)]])

    def problem(self, inst, cert, **override):
        fields = dict(coefficients=cert.coefficients, n_coefficients=cert.n_coefficients,
                      spanning=cert.spanning_indices, functional=cert.functional)
        fields.update(override)
        return checks.certificate_problem(inst.ambient_dim, inst.p_vectors,
                                          inst.n_vectors, cert.balanced, **fields)

    def test_real_certificates_pass(self):
        for inst, balanced in ((self.bal, True), (self.unbal, False)):
            cert = LB.balance.is_balanced(inst)
            self.assertEqual(cert.balanced, balanced)
            self.assertIsNone(self.problem(inst, cert))

    def test_corrupted_balanced_witness_rejected(self):
        cert = LB.balance.is_balanced(self.bal)
        c = list(cert.coefficients)
        self.assertIsNotNone(self.problem(self.bal, cert, coefficients=[-x for x in c]))
        self.assertIsNotNone(self.problem(self.bal, cert, coefficients=[2 * c[0]] + c[1:]))
        self.assertIsNotNone(self.problem(self.bal, cert, spanning=cert.spanning_indices[:1]))

    def test_corrupted_unbalanced_witness_rejected(self):
        cert = LB.balance.is_balanced(self.unbal)
        phi = list(cert.functional)
        self.assertIsNotNone(self.problem(self.unbal, cert, functional=[-x for x in phi]))
        self.assertIsNotNone(self.problem(self.unbal, cert, functional=[0, 0]))
        self.assertIsNotNone(self.problem(self.unbal, cert, functional=[phi[0], phi[1] + 1]))

    def test_balance_workload_rejects_swapped_certificate(self):
        wl = workloads.Balance(LB, seed=3)
        wl.instances = wl.instances[:40]
        rnd = wl.run_round()
        self.assertEqual(wl.problems(rnd), [])
        flip = next(i for i, c in enumerate(rnd.outputs) if c.balanced)
        other = next(c for c in rnd.outputs if not c.balanced)
        rnd.outputs[flip] = other
        self.assertTrue(wl.problems(rnd))


class ReportCheck(unittest.TestCase):
    def test_real_reports_pass(self):
        self.assertEqual(checks.report_problems(_report(SU23_RIGID)), [])
        self.assertEqual(checks.report_problems(_report(SP4R_FLEXIBLE)), [])

    def corrupted(self, base, mutate):
        rep = copy.deepcopy(base)
        mutate(rep)
        return checks.report_problems(rep)

    def test_corruptions_rejected(self):
        rigid, flexible = _report(SU23_RIGID), _report(SP4R_FLEXIBLE)
        self.assertEqual(rigid["verdict"]["outcome"], "rigid_maximal")

        def bump_dim(r): r["dim_g"] += 1
        def bump_weight(r): r["adjoint_weights"][0]["dim"] += 1
        def bad_descriptor(r): r["verdict"]["descriptor"] = "S(U(1,1) x U(3))"
        def wrong_group(r): r["group"] = "SU(2,2)"
        def flip_functional(r):
            w = r["balance"]["witness"]
            w["functional"] = [str(-Fraction(x)) for x in w["functional"]]
        def oracle_complains(r): r["oracle"]["problems"] = ["weight not found"]
        def rigid_in_sp(r): r["verdict"]["outcome"] = "rigid_maximal"
        def drop_coefficient(r): r["balance"]["witness"]["coefficients"] = []
        for base, mutate in ((rigid, bump_dim), (rigid, bump_weight),
                             (rigid, bad_descriptor), (rigid, wrong_group),
                             (rigid, flip_functional), (rigid, oracle_complains),
                             (flexible, rigid_in_sp), (flexible, bump_dim)):
            with self.subTest(mutate.__name__):
                self.assertTrue(self.corrupted(base, mutate))
        if flexible["balance"]["p_vectors"]:
            self.assertTrue(self.corrupted(flexible, drop_coefficient))

    def test_dimension_table(self):
        known = {"SL(3,R)": 8, "SL(4,C)": 15, "SL(2,H)": 15, "SU(2,3)": 24,
                 "SO(3,2)": 10, "SO(5,C)": 10, "SO*(6)": 15, "Sp(4,R)": 10,
                 "Sp(6,C)": 21, "Sp(1,1)": 10}
        for name, dim in known.items():
            self.assertEqual(checks.complexified_dim(name), dim, name)

    def test_descriptors(self):
        self.assertEqual(checks.rigid_descriptor("SU(4,1)"), "S(U(1,1) x U(3))")
        self.assertEqual(checks.rigid_descriptor("SO*(10)"), "SO*(8) x SO(2)")
        for name in ("SU(2,2)", "SU(0,3)", "SO*(8)", "SO(2,3)", "Sp(6,R)"):
            self.assertIsNone(checks.rigid_descriptor(name), name)


class SweepCheck(unittest.TestCase):
    def summary(self, family, bound):
        res = LB.sweep.run_sweep(LB.groups.Family(family), bound)
        return {"runs": res.runs, "rigid": sorted((r["group"], r["descriptor"])
                                                  for r in res.rigid),
                "tag_violations": res.tag_violations, "mismatches": res.mismatches}

    def test_real_sweeps_pass(self):
        for family, bound in (("SU", 4), ("SO_STAR", 6), ("SO", 5)):
            self.assertEqual(checks.sweep_problems(family, bound,
                                                   self.summary(family, bound)), [])

    def test_corruptions_rejected(self):
        su = self.summary("SU", 4)
        self.assertTrue(su["rigid"])
        def drop_group(s):
            s["rigid"] = [r for r in s["rigid"] if r[0] != s["rigid"][0][0]]
        for mutate in (drop_group,
                       lambda s: s["rigid"].append(("SU(2,2)", "S(U(2,2) x U(0))")),
                       lambda s: s["rigid"].__setitem__(
                           0, (s["rigid"][0][0], "SO*(4) x SO(2)")),
                       lambda s: s["tag_violations"].append("SU(1,2)/x: untagged forcing"),
                       lambda s: s["mismatches"].append("SU(1,2): unbalanced")):
            s = copy.deepcopy(su)
            mutate(s)
            self.assertTrue(checks.sweep_problems("SU", 4, s))
        so = self.summary("SO", 5)
        so["rigid"].append(("SO(2,3)", None))
        self.assertTrue(checks.sweep_problems("SO", 5, so))


class CheckInputs(unittest.TestCase):
    def test_decoration_targets_are_weight_labels(self):
        rng = random.Random(11)
        for family, dims in workloads.CHECK_DIMS.items():
            for dim in dims:
                doc = workloads.check_document(LB, family, dim, rng)
                sc = LB.scenario.from_json(workloads.scenario_json(doc, 2 * 286 ** 2))
                self.assertEqual(sc.spec.ambient_dim, dim)
                labels = LB.roots.root_system(sc.spec, sc.blocks).standard_by_label()
                for deco in doc["decorations"]:
                    self.assertIn(deco["target"], labels, (family, dim, doc))


class LayerTrace(unittest.TestCase):
    def test_every_binding_wrapped_and_restored(self):
        original = LB.balance.is_balanced
        stats = layertrace.LayerStats()
        with layertrace.traced(stats):
            import liebalance
            self.assertIsNot(LB.classify.is_balanced, original)
            self.assertIs(LB.classify.is_balanced, LB.balance.is_balanced)
            self.assertIs(liebalance.is_balanced, LB.balance.is_balanced)
            LB.report.run_scenario(LB.scenario.from_json(
                workloads.scenario_json(SU23_RIGID, 2 * 286 ** 2)))
        self.assertIs(LB.classify.is_balanced, original)
        self.assertGreater(stats.calls["balance.is_balanced"], 0)
        self.assertEqual(stats.calls["report.run_scenario"], 1)
        self.assertGreaterEqual(min(stats.self_s.values()), 0.0)

    def test_self_time_excludes_wrapped_callees(self):
        stats = layertrace.LayerStats()
        inner = stats.wrap("linalg.rref", lambda: sum(range(20000)))
        outer = stats.wrap("balance.is_balanced", lambda: inner())
        outer()
        self.assertEqual(stats.calls["linalg.rref"], 1)
        self.assertEqual(stats.calls["balance.is_balanced"], 1)
        self.assertLess(stats.self_s["balance.is_balanced"], stats.self_s["linalg.rref"])


if __name__ == "__main__":
    unittest.main()
