from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from matsub.core import WeightClassifier
from matsub.instances import stream_rng
from matsub.sampler import BucketLists
from reference import bucket_class, bucket_weight, move_bucket


def _classifier() -> WeightClassifier:
    return WeightClassifier(100.0, 0.5, 4)


def test_insert_remove_bookkeeping() -> None:
    buckets = BucketLists(_classifier())
    buckets.insert(7, 0)
    buckets.insert(3, 0)
    buckets.insert(9, 2)
    assert len(buckets) == 3
    assert 3 in buckets and 9 in buckets and 4 not in buckets
    assert bucket_class(buckets, 9) == 2
    assert buckets.remove(7) == 0
    assert 7 not in buckets
    assert bucket_class(buckets, 3) == 0  # swap-remove kept the survivor indexed
    move_bucket(buckets, 3, 1)
    assert bucket_class(buckets, 3) == 1


def test_insert_and_remove_errors() -> None:
    buckets = BucketLists(_classifier())
    buckets.insert(1, 0)
    with pytest.raises(ValueError):
        buckets.insert(1, 2)
    with pytest.raises(ValueError):
        buckets.insert(2, 99)
    with pytest.raises(ValueError):
        buckets.remove(5)


def test_total_weight_exact() -> None:
    cl = _classifier()
    buckets = BucketLists(cl)
    buckets.insert(0, 0)
    buckets.insert(1, 2)
    buckets.insert(2, 2)
    buckets.insert(3, cl.num_classes)  # bottom class contributes nothing
    want = cl.class_value(0) + 2 * cl.class_value(2)
    assert buckets.total_weight() == pytest.approx(want)
    assert bucket_weight(buckets, 3) == 0.0


def test_fuzz_against_dict_model() -> None:
    cl = WeightClassifier(50.0, 0.2, 10)
    buckets = BucketLists(cl)
    model: dict[int, int] = {}
    rng = np.random.default_rng(77)
    for _ in range(4000):
        roll = rng.random()
        if roll < 0.5 or not model:
            elem = int(rng.integers(1000))
            j = int(rng.integers(cl.num_classes + 1))
            if elem in model:
                continue
            buckets.insert(elem, j)
            model[elem] = j
        elif roll < 0.8:
            elem = int(rng.choice(list(model)))
            assert buckets.remove(elem) == model.pop(elem)
        else:
            elem = int(rng.choice(list(model)))
            j = int(rng.integers(cl.num_classes + 1))
            move_bucket(buckets, elem, j)
            model[elem] = j
        assert len(buckets) == len(model)
    want = sum(cl.class_value(j) for j in model.values())
    assert buckets.total_weight() == pytest.approx(want)


def test_sample_has_no_duplicates_and_only_members() -> None:
    cl = _classifier()
    buckets = BucketLists(cl)
    for e in range(40):
        buckets.insert(e, e % (cl.num_classes + 1))
    rng = stream_rng(5, 1)
    for _ in range(200):
        picked = buckets.sample(3.0, rng)
        elems = [e for e, _ in picked]
        assert len(elems) == len(set(elems))
        for e, p in picked:
            assert e in buckets
            assert 0 < p <= 1.0


def test_sample_saturated_class_always_included() -> None:
    cl = _classifier()
    buckets = BucketLists(cl)
    buckets.insert(0, 0)  # weight 100 out of a small total: p caps at 1
    buckets.insert(1, 3)
    rng = stream_rng(6, 1)
    for _ in range(50):
        picked = dict(buckets.sample(2.0, rng))
        assert picked.get(0) == 1.0


def test_sample_inclusion_frequencies() -> None:
    cl = WeightClassifier(100.0, 0.5, 4)
    buckets = BucketLists(cl)
    # three classes with values 100, 25, 12.5 and varying counts
    members = {0: 0, 1: 2, 2: 2, 3: 2, 4: 3, 5: 3}
    for e, j in members.items():
        buckets.insert(e, j)
    total = buckets.total_weight()
    t = 1.5
    rng = stream_rng(7, 1)
    trials = 20000
    hits = {e: 0 for e in members}
    for _ in range(trials):
        for e, _ in buckets.sample(t, rng):
            hits[e] += 1
    for e, j in members.items():
        p = min(1.0, t * cl.class_value(j) / total)
        sigma = np.sqrt(p * (1 - p) / trials)
        assert abs(hits[e] / trials - p) <= 4 * sigma + 1e-9


def test_sample_empty_and_zero_weight() -> None:
    cl = _classifier()
    buckets = BucketLists(cl)
    rng = stream_rng(8, 1)
    assert buckets.sample(2.0, rng) == []
    buckets.insert(0, cl.num_classes)
    assert buckets.sample(2.0, rng) == []
    with pytest.raises(ValueError):
        buckets.sample(0.0, rng)


def test_uniform_sample_chi_square() -> None:
    cl = _classifier()
    buckets = BucketLists(cl)
    support = list(range(12))
    for e in support:
        buckets.insert(e, e % (cl.num_classes + 1))
    rng = stream_rng(9, 1)
    trials = 12000
    counts = np.zeros(len(support))
    for _ in range(trials):
        counts[buckets.uniform_sample(rng)] += 1
    _, pvalue = stats.chisquare(counts)
    assert pvalue > 0.001


def test_uniform_sample_empty_raises() -> None:
    buckets = BucketLists(_classifier())
    with pytest.raises(ValueError):
        buckets.uniform_sample(stream_rng(1, 1))
