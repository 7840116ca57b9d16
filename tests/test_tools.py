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
