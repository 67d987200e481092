"""Verdicts of ``tools/bench_pairs.py``'s per-metric comparison."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
compare = bench_pairs.compare

# BASE with medians near 10 and a narrow spread (q3 - q1 = 0.5, 5%)
NARROW = [9.5, 9.75, 10.0, 10.0, 10.25, 10.5, 9.6, 9.9, 10.1, 10.4]


def test_clear_gain_and_within_bound():
    head = [v / 2 for v in NARROW]
    got = compare(NARROW, head, "lower", 0.25)
    assert got["head_wins"] == 10
    assert got["gain"] is True
    assert got["within_bound"] is True


def test_regression_beyond_bound_is_out_of_bound():
    got = compare(NARROW, [v * 1.5 for v in NARROW], "lower", 0.25)
    assert got["gain"] is False
    assert got["within_bound"] is False


def test_wide_base_spread_is_unresolved():
    # q3 - q1 is 40% of the median, wider than the 25% bound
    base = [6.0, 8.0, 10.0, 12.0, 14.0, 7.0, 9.0, 11.0, 13.0, 10.0]
    got = compare(base, [v * 1.1 for v in base], "lower", 0.25)
    assert got["within_bound"] == "unresolved"
    # unless every HEAD run beats every BASE run
    got = compare(base, [1.0] * 10, "lower", 0.25)
    assert got["within_bound"] is True


def test_wide_spread_for_higher_is_better():
    base = [6.0, 8.0, 10.0, 12.0, 14.0, 7.0, 9.0, 11.0, 13.0, 10.0]
    assert compare(base, base, "higher", 0.25)["within_bound"] == "unresolved"
    assert compare(base, [20.0] * 10, "higher", 0.25)["within_bound"] is True
    assert compare(base, [1.0] * 10, "higher", 0.25)["within_bound"] \
        == "unresolved"


def test_more_failures_cancel_a_gain():
    head = [v / 2 for v in NARROW]
    got = compare(NARROW, head, "lower", 0.25, more_failures=True)
    assert got["head_wins"] == 10
    assert got["gain"] is False
    assert got["within_bound"] is True
