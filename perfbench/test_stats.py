"""Tests of the benchmark's own statistics and checks.

    python3 -m pytest perfbench -q
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from stats import Tally, self_time, tail_percentile, union_length  # noqa: E402


@pytest.mark.parametrize("n, pct", [(1000, 99.0), (999, 95.0), (200, 95.0),
                                    (199, 90.0), (100, 90.0), (20, 50.0)])
def test_tail_percentile_is_highest_with_ten_beyond(n, pct):
    values = list(range(1, n + 1))
    got_pct, got = tail_percentile(values[::-1])
    assert got_pct == pct
    assert n - got >= 10  # values are their own ranks
    assert sum(v > got for v in values) >= 10


def test_tail_percentile_falls_back_to_max_when_too_few_samples():
    assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)
    with pytest.raises(ValueError):
        tail_percentile([])


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6), (6, 7)]) == 5.0


def test_self_time_with_overlapping_children_from_two_threads():
    # parent 0..10; thread A child 1..4, thread B child 3..6 overlaps it,
    # a late child 8..12 is clipped to the parent
    children = [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]
    assert self_time(0.0, 10.0, children) == pytest.approx(10.0 - 5.0 - 2.0)
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(11.0, 12.0)]) == 10.0


def test_tally_counts_failures_against_attempts():
    tally = Tally()
    for reasons in ([], ["exit status 2"], [], ["a", "b"]):
        tally.record(reasons)
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.failures == ["run 2: exit status 2", "run 4: a; b"]


FACTS = {"strategy": "cll", "rounds": 2, "local_steps": 1, "silos": 1,
         "round_s": 0.1, "eval_rounds": [0, 1, 2], "eval_rows": 3, "test_count": 300}
HEADER = "round,sim_time_s,train_loss,test_rmse,strategy\n"


def test_check_metrics_accepts_a_correct_file():
    good = HEADER + "0,0.0,0.3,0.6,cll\n1,0.1,0.2,0.5,cll\n2,0.2,0.1,0.4,cll\n"
    assert run.check_metrics(good, FACTS) == []


@pytest.mark.parametrize("rows, reason", [
    ("0,0.0,0.3,0.6,cll\n1,0.1,nan,0.5,cll\n2,0.2,0.1,0.4,cll\n", "non-finite"),
    ("0,0.0,0.3,0.6,cll\n2,0.2,0.1,0.4,cll\n", "rows at rounds"),
    ("0,0.0,0.3,0.6,cll\n1,0.1,0.2,0.5,cll\n2,0.25,0.1,0.4,cll\n", "sim_time_s"),
    ("0,0.0,0.3,0.6,cll\n1,0.1,0.2,0.5,cll\n2,0.2,0.1,0.7,cll\n", "not below"),
])
def test_check_metrics_names_each_defect(rows, reason):
    reasons = run.check_metrics(HEADER + rows, FACTS)
    assert any(reason in r for r in reasons), reasons


def _span(i, name, parent, start, end, **extra):
    return dict(id=i, name=name, parent=parent, thread=1, start=start, end=end, **extra)


def test_analyse_fails_loudly_when_a_wrapped_call_is_missing():
    facts = dict(FACTS, rounds=1, eval_rounds=[0, 1], eval_rows=2, test_count=10)
    spans = [_span(0, "cli.main", None, 0, 10), _span(1, "protocol.run", 0, 1, 9)]
    metrics, failures = layers.analyse(spans, facts)
    assert metrics == {}
    assert any("model.loss_and_grad calls 0 not in [2]" in f for f in failures)
    assert any("model.predict calls 0 not in [2]" in f for f in failures)
    assert any("tensor.forward.conv3x3 calls 0 not in [24]" in f for f in failures)
    # the input-norm gradient is unused, so no backward call for it is fine
    assert not any("tensor.backward.norm" in f for f in failures)


def test_analyse_counts_a_partial_norm_backward_as_a_failure():
    facts = dict(FACTS, rounds=1, eval_rounds=[0, 1], eval_rows=2, test_count=10)
    spans = [_span(0, "cli.main", None, 0, 10), _span(1, "protocol.run", 0, 1, 9),
             _span(2, "tensor.backward", 1, 2, 3, role="norm")]
    _, failures = layers.analyse(spans, facts)
    assert any("tensor.backward.norm calls 1 not in [0, 2]" in f for f in failures)


def test_expected_calls_match_the_config():
    facts = {"silos": 22, "rounds": 12, "local_steps": 1, "eval_rows": 2, "test_count": 400}
    counts = layers.expected_calls(facts)
    assert counts["model.loss_and_grad"] == {22 * 13}
    assert counts["model.predict"] == {4}
    assert counts["tensor.forward.fc"] == {4 * (286 + 4)}
    assert counts["tensor.backward.elementwise"] == {9 * 286}
    assert counts["tensor.backward.norm"] == {0, 286}
    assert sum(layers.FADNET_ROLE_CALLS.values()) == 25


def test_timings_scale_by_the_median_probe_of_the_invocation():
    probe = speed.Probe()
    probe.times = [2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S, 100.0]
    assert probe.to_reference(6.0) == pytest.approx(3.0)
    probe.measure()
    assert len(probe.times) == 3 + speed.CHUNKS
