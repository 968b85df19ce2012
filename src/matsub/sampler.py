"""Bucketed sampling over the unfrozen part of a maintained basis.

Elements live in per-class lists keyed by their discretized weight class, so
independent inclusion with probability proportional to the rounded weight
reduces to one binomial draw per class plus a without-replacement pick.
"""

from __future__ import annotations

import numpy as np

from .core import WeightClassifier


class BucketLists:
    """Weight-class buckets with O(1) insert, remove and membership.

    Removal swaps the target with the last entry of its bucket, so positions
    are not stable; the element-to-position index is updated on every move.
    """

    def __init__(self, classifier: WeightClassifier) -> None:
        self.classifier = classifier
        self._lists: list[list[int]] = [[] for _ in range(classifier.num_classes + 1)]
        self._where: dict[int, tuple[int, int]] = {}

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, elem: int) -> bool:
        return elem in self._where

    def insert(self, elem: int, class_index: int) -> None:
        if elem in self._where:
            raise ValueError(f"element {elem} already present")
        if not 0 <= class_index <= self.classifier.num_classes:
            raise ValueError("class index out of range")
        bucket = self._lists[class_index]
        self._where[elem] = (class_index, len(bucket))
        bucket.append(elem)

    def remove(self, elem: int) -> int:
        """Drop ``elem`` and return the class it was filed under."""
        try:
            class_index, pos = self._where.pop(elem)
        except KeyError:
            raise ValueError(f"element {elem} not present") from None
        bucket = self._lists[class_index]
        last = bucket.pop()
        if last != elem:
            bucket[pos] = last
            self._where[last] = (class_index, pos)
        return class_index

    def total_weight(self) -> float:
        """Sum of rounded weights over everything held, bottom class counting 0."""
        return sum(
            len(bucket) * self.classifier.class_value(j)
            for j, bucket in enumerate(self._lists)
            if bucket
        )

    def sample(self, t: float, rng: np.random.Generator) -> list[tuple[int, float]]:
        """Include each element independently with p = min(1, t * w / W).

        ``W`` is the current rounded total; all elements of a class share one
        probability, so the class contributes a binomial count drawn without
        replacement.  Returns (element, probability) pairs; zero-weight
        elements are never included.
        """
        if t <= 0:
            raise ValueError("sample size parameter must be positive")
        total = self.total_weight()
        picked: list[tuple[int, float]] = []
        if total <= 0:
            return picked
        for j, bucket in enumerate(self._lists):
            count = len(bucket)
            if count == 0:
                continue
            value = self.classifier.class_value(j)
            if value <= 0:
                continue
            p = min(1.0, t * value / total)
            k = count if p >= 1.0 else int(rng.binomial(count, p))
            if k == 0:
                continue
            if k == count:
                chosen = bucket
            else:
                chosen = [bucket[i] for i in rng.choice(count, size=k, replace=False)]
            picked.extend((elem, p) for elem in chosen)
        return picked

    def uniform_sample(self, rng: np.random.Generator) -> int:
        """Uniform element over everything held, bottom class included."""
        total = len(self._where)
        if total == 0:
            raise ValueError("cannot sample from an empty structure")
        k = int(rng.integers(total))
        for bucket in self._lists:
            if k < len(bucket):
                return bucket[k]
            k -= len(bucket)
        raise AssertionError("index walked past every bucket")
