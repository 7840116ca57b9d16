import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_summary_counts_wins_in_each_metrics_direction():
    compare = load_tool("compare")
    base = [1.0, 2.0, 3.0, 4.0, 5.0]
    head = [0.5, 1.0, 3.0, 5.0, 2.5]
    pairs = [{"base": {"metrics": {"t": b, "r": b}}, "head": {"metrics": {"t": h, "r": h}}}
             for b, h in zip(base, head)]
    specs = [{"name": "t", "unit": "s", "better": "lower"},
             {"name": "r", "unit": "1/s", "better": "higher"}]
    summary = compare.summarize(pairs, specs)
    t, r = summary["t"], summary["r"]
    assert t["head_won"] == 3 and r["head_won"] == 1  # the tie counts for neither
    assert t["pairs"] == 5
    assert t["base_q1_median_q3"] == [2.0, 3.0, 4.0]
    assert t["head_q1_median_q3"] == [1.0, 2.5, 3.0]
    assert t["median_paired_ratio"] == pytest.approx(0.5)
    assert t["median_gap_exceeds_base_iqr"] is False  # |2.5 - 3| <= 4 - 2
    low, high = t["median_ratio_ci95"]
    assert low <= t["median_paired_ratio"] <= high


def test_bootstrap_interval_brackets_the_median_ratio_and_is_seeded():
    compare = load_tool("compare")
    assert compare.bootstrap_interval([0.8] * 7) == (0.8, 0.8)
    ratios = [0.70, 0.75, 0.78, 0.80, 0.81, 0.83, 0.90, 1.05]
    low, high = compare.bootstrap_interval(ratios)
    assert min(ratios) <= low <= 0.805 <= high <= max(ratios)
    assert compare.bootstrap_interval(ratios) == (low, high)
    # one draw of 2,000 resamples is the 2.5% and 97.5% quantiles of their medians
    picks = np.random.default_rng(0).integers(0, len(ratios), size=(2000, len(ratios)))
    medians = np.median(np.array(ratios)[picks], axis=1)
    assert (low, high) == tuple(np.quantile(medians, [0.025, 0.975]))


def test_hash_diff_lists_changed_and_one_sided_paths():
    compare = load_tool("compare")
    base = ["aaa  data/x/meta.json", "bbb  runs/a b/metrics.csv", "ccc  theory/theory.csv",
            "ddd  only/base.bin"]
    head = ["aaa  data/x/meta.json", "bbb  runs/a b/metrics.csv", "eee  theory/theory.csv",
            "fff  only/head.bin"]
    assert compare.hash_diff(base, head) == ["only/base.bin", "only/head.bin",
                                             "theory/theory.csv"]
    assert compare.hash_diff(base, base) == []


def test_rejected_runs_name_each_side_and_seed_the_checks_refused():
    compare = load_tool("compare")
    pairs = [{"seed": 0, "base": {"correct": True}, "head": {"correct": True}},
             {"seed": 1, "base": {"correct": True}, "head": {"correct": False}},
             {"seed": 2, "base": {"correct": False}, "head": {"correct": False}}]
    assert compare.rejected_runs(pairs[:1]) == []
    assert compare.rejected_runs(pairs) == ["head seed 1", "base seed 2", "head seed 2"]


def test_count_diff_lists_only_count_metrics_that_differ():
    compare = load_tool("compare")
    specs = [{"name": "nn.forward_calls_per_step", "unit": "count"},
             {"name": "dynamics.fit_pct", "unit": "%"},
             {"name": "dynamics.member_passes_per_step", "unit": "count"},
             {"name": "dynamics.fit_epochs", "unit": "count"},
             {"name": "conservative.fixed_point_sweeps", "unit": "count"}]
    base = {"nn.forward_calls_per_step": 9.0, "dynamics.fit_pct": 20.0,
            "dynamics.member_passes_per_step": 3.0, "dynamics.fit_epochs": 10.0,
            "conservative.fixed_point_sweeps": 1.0}
    head = {**base, "dynamics.fit_pct": 17.5, "dynamics.fit_epochs": 9.6}
    del head["conservative.fixed_point_sweeps"]
    # a changed time share is not a count; a metric one side lacks differs
    assert compare.count_diff(base, head, specs) == ["dynamics.fit_epochs",
                                                     "conservative.fixed_point_sweeps"]
    assert compare.count_diff(base, base, specs) == []


@pytest.mark.parametrize("seeds", ["0,,1", "0,1,", ","])
def test_compare_refuses_an_empty_hash_seed_before_any_run(tmp_path, capsys, seeds):
    compare = load_tool("compare")
    out = tmp_path / "record.json"
    with pytest.raises(SystemExit) as exit_info:
        compare.main(["--base", "HEAD", "--workload", "certify", "--pairs", "1",
                      "--out", str(out), "--hash-seeds", seeds])
    assert exit_info.value.code == 2
    assert "--hash-seeds must be comma-separated integers" in capsys.readouterr().err
    assert not out.exists()


def test_claim_met_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_base_iqr():
    compare = load_tool("compare")
    base = [10.0 + 0.2 * k for k in range(10)]  # median 10.9, quartiles 10.45 and 11.35
    faster = [b - 2.0 for b in base]
    assert compare.claim_met(base, faster, lower=True)
    assert not compare.claim_met(base, faster, lower=False)  # the gain is the wrong way
    assert compare.claim_met(faster, base, lower=False)
    # every pair won, but the medians differ by 0.5, inside the base IQR of 0.9
    assert not compare.claim_met(base, [b - 0.5 for b in base], lower=True)
    # a tie counts for neither side: 9 of 10 wins still claims, 8 of 10 does not
    assert compare.claim_met(base, [base[0], *faster[1:]], lower=True)
    assert not compare.claim_met(base, [*base[:2], *faster[2:]], lower=True)
    assert not compare.claim_met(base, [base[0] + 1.0, base[1] + 1.0, *faster[2:]],
                                 lower=True)
    # 11 of 12 pairs is at least nine tenths, 10 of 12 is not
    base12 = base + [12.0, 12.2]
    assert compare.claim_met(base12, [base12[0], *[b - 2.0 for b in base12[1:]]], lower=True)
    assert not compare.claim_met(base12, [*base12[:2], *[b - 2.0 for b in base12[2:]]],
                                 lower=True)


def test_compare_summary_records_claim_met_for_each_metric():
    compare = load_tool("compare")
    pairs = [{"base": {"metrics": {"t": 10.0 + k, "r": 1.0}},
              "head": {"metrics": {"t": 5.0 + k, "r": 1.0}}} for k in range(10)]
    specs = [{"name": "t", "unit": "s", "better": "lower"},
             {"name": "r", "unit": "1/s", "better": "higher"}]
    summary = compare.summarize(pairs, specs)
    assert summary["t"]["claim_met"] is True and summary["r"]["claim_met"] is False


def test_compare_refuses_a_negative_first_seed_before_any_run(tmp_path, capsys):
    compare = load_tool("compare")
    out = tmp_path / "record.json"
    with pytest.raises(SystemExit) as exit_info:
        compare.main(["--base", "HEAD", "--workload", "certify", "--pairs", "1",
                      "--out", str(out), "--first-seed", "-1"])
    assert exit_info.value.code == 2
    assert "--first-seed must be at least 0" in capsys.readouterr().err
    assert not out.exists()
