"""Tests of the benchmark's own arithmetic, names and gate.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import ORACLES, WORKLOADS, job_problems, job_seeds  # noqa: E402


def _span(name, start, end, parent, counts=None):
    return [name, start, end, parent, 0, counts]


class TestSelfTime:
    def test_nested_spans(self):
        synthetic = [_span("benchcli.run", 0.0, 10.0, -1),
                     _span("qcore.evolve", 1.0, 4.0, 0),
                     _span("qcore.apply_pauli", 2.0, 3.0, 1),
                     _span("qcore.evolve", 5.0, 9.0, 0)]
        assert spans.self_times(synthetic) == pytest.approx([3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_are_counted_once(self):
        synthetic = [_span("benchcli.run", 0.0, 10.0, -1),
                     _span("qcore.evolve", 1.0, 4.0, 0),
                     _span("qcore.evolve", 3.0, 6.0, 0),
                     _span("qcore.evolve", 9.0, 12.0, 0)]
        assert spans.self_times(synthetic)[0] == pytest.approx(10.0 - 5.0 - 1.0)

    def test_layer_metrics_attribute_job_time(self):
        synthetic = [_span("benchcli.run", 0.0, 10.0, -1),
                     _span("qcore.haar_unitary", 1.0, 7.0, 0, {"gflop_computed": 0.5}),
                     _span("qcore.apply_unitary", 2.0, 3.0, 1),
                     _span("toyperm.tv_distance", 7.0, 9.0, 0)]
        m = spans.layer_metrics(synthetic)
        assert m["qcore.haar_unitary.calls"] == 1
        assert m["qcore.haar_unitary.self_s"] == pytest.approx(5.0)
        assert m["qcore.haar_unitary.gflop_computed"] == pytest.approx(0.5)
        assert m["qcore.self_s"] == pytest.approx(6.0)
        assert m["benchcli.run.self_s"] == pytest.approx(2.0)
        assert m["trace.coverage"] == pytest.approx(0.8)
        assert set(m) == {name for name, _ in spans.SPAN_METRICS}


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

REQUIRED_METRICS = """
setup_s wall_s peak_rss_mb failed_jobs appendix-a_s prs-distinguish_s prs-gram_s prs-energy_s
scrambling-time_s toy-hybrids_s toy-distinguish_s weingarten-verify_s rewrite_s
qcore.haar_unitary.calls qcore.haar_unitary.self_s qcore.haar_unitary.gflop_computed
qcore.haar_state.calls qcore.haar_state.self_s qcore.apply_unitary.calls
qcore.apply_unitary.self_s qcore.eigensystem.misses qcore.eigensystem.hits
qcore.eigensystem.self_s qcore.evolve.calls qcore.evolve.self_s qcore.evolve.gbytes_computed
qcore.apply_pauli.calls qcore.apply_pauli.self_s qcore.pauli_expectation.calls
qcore.pauli_expectation.self_s toyperm.random_permutation.calls
toyperm.random_permutation.self_s toyperm.random_permutation.entries toyperm.queries
toyperm.queries_per_entry toyperm.run_distinguishing_game.self_s toyperm.enumerate.self_s
toyperm.enumerate.entries toyperm.tv_distance.self_s prslab.moment_power_overlap_mc.self_s
prslab.moment_power_overlap_mc.trials prslab.copy_limited_distinguisher.self_s
prslab.copy_limited_distinguisher.trials prslab.prs_state.calls prslab.build_state_tree.self_s
prslab.gram_matrix.self_s prslab.shocked_evolution_state.calls
prslab.shocked_evolution_state.self_s prslab.energy_attack_experiment.self_s
weingarten.gram_weingarten_identity.calls weingarten.gram_weingarten_identity.self_s
weingarten.weingarten.calls weingarten.weingarten.misses weingarten.weingarten.self_s
weingarten.power_overlap_exact.self_s rewrite.trotterize.self_s rewrite.trotterize.gates
rewrite.pseudo_complexity.calls rewrite.pseudo_complexity.self_s
rewrite.pseudo_complexity.gates_in rewrite.pseudo_complexity.firings benchcli.run.self_s
trace.overhead_s
""".split()


class TestMetricNames:
    def test_charset_units_and_uniqueness(self):
        metrics = run.END_TO_END + run.PER_LAYER
        names = [name for name, _ in metrics]
        assert len(names) == len(set(names))
        for name, unit in metrics:
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit

    def test_every_named_metric_is_reported(self):
        names = {name for name, _ in run.END_TO_END + run.PER_LAYER}
        assert set(REQUIRED_METRICS) <= names

    def test_benchmark_json_lists_the_reported_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _record(experiment, failed_checks=(), error=None):
    return {"experiment": experiment, "error": error, "failed_checks": list(failed_checks),
            "seconds": 1.0}


HYBRIDS_OK = json.dumps({"tv_AB": "55/56", "tv_CD": "0/1", "tv_DE": "6/7"})


class TestGate:
    def test_clean_job_passes(self):
        assert job_problems(_record("toy-hybrids"), {"summary.json": HYBRIDS_OK}) == []

    def test_failing_check(self):
        found = job_problems(_record("prs-gram", ["sibling_mean_within_3se"]), {})
        assert found == ["check sibling_mean_within_3se is false"]

    def test_mismatched_exact_value(self):
        files = {"summary.json": HYBRIDS_OK.replace("55/56", "27/28")}
        assert len(job_problems(_record("toy-hybrids"), files)) == 1
        table = "cycle_type,wg\n3,1/1260\n2-1,-1/504\n1-1-1,23/2521\n"
        assert len(job_problems(_record("weingarten-verify"), {"wg_table.csv": table})) == 1

    def test_raising_job_and_changed_bytes(self):
        assert job_problems(_record("prs-gram", error="ValueError: x"), {}) == [
            "raised ValueError: x"]
        found = job_problems(_record("prs-gram"), {"gram.csv": "a\n"}, {"gram.csv": "b\n"})
        assert found == ["not byte-identical to the first pass: gram.csv"]

    def test_oracles_match_the_wg_closed_forms(self):
        d = 5
        denom = d * (d * d - 1) * (d * d - 4)
        expected = {"1-1-1": Fraction(d * d - 2, denom), "2-1": Fraction(-d, denom),
                    "3": Fraction(2, denom)}
        for key, value in ORACLES["weingarten-verify"]["wg_table.csv"].items():
            assert Fraction(value) == expected[key]

    def _pass_dir(self, root, name, summary, checks=()):
        job = root / name / "job0"
        job.mkdir(parents=True)
        (job / "summary.json").write_text(summary)
        (job / "manifest.json").write_text(name)  # differs per pass; not compared
        return root / name, {"jobs": [_record("toy-hybrids", checks)]}

    def test_failed_jobs_counts_each_bad_execution(self, tmp_path):
        good = self._pass_dir(tmp_path, "p0", HYBRIDS_OK)
        assert run.gate([good, self._pass_dir(tmp_path, "p1", HYBRIDS_OK)], 1)[:2] == (2, 0)
        check = self._pass_dir(tmp_path, "p2", HYBRIDS_OK, ["tv_AB_within_bound"])
        exact = self._pass_dir(tmp_path, "p3", HYBRIDS_OK.replace("6/7", "5/7"))
        attempted, failed, problems = run.gate([good, check, exact, (tmp_path / "p4", None)], 1)
        assert (attempted, failed) == (4, 3)
        assert len(problems) == 4  # the changed value also breaks byte identity


def test_job_seeds_follow_the_master_seed():
    assert job_seeds("exact", 3) == job_seeds("exact", 3)
    assert job_seeds("exact", 3) != job_seeds("exact", 4)
    assert len(set(job_seeds("hamiltonian", 0))) == len(WORKLOADS["hamiltonian"].jobs)
