import importlib.util
from pathlib import Path

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
