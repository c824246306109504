import pytest

from stats import nearest_rank, quartile_spread, tail_percentile


@pytest.mark.parametrize("n, percentile, beyond", [(30, 66.0, 10), (20, 50.0, 10), (6480, 99.0, 64)])
def test_tail_percentile_leaves_ten_samples_beyond(n, percentile, beyond):
    samples = [float(k) for k in range(1, n + 1)]
    p, value, above = tail_percentile(samples)
    assert (p, above) == (percentile, beyond)
    assert value == samples[n - beyond - 1]
    # the next candidate up would leave fewer than ten
    assert nearest_rank(samples, p + 1)[1] < 10


def test_tail_percentile_falls_back_to_the_maximum():
    assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)
    # eleven samples are the fewest that leave ten beyond some percentile
    assert tail_percentile([float(k) for k in range(11)])[2] == 10


def test_tail_percentile_ignores_sample_order():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 6
    assert tail_percentile(samples) == tail_percentile(sorted(samples))


def test_quartile_spread():
    q1, med, q3, spread = quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, med, q3) == (1.5, 3.0, 4.5)
    assert spread == pytest.approx(1.0)
