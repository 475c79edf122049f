"""Model test: ``BoundedLRU`` against a plain list of (key, value) pairs.

The model keeps entries oldest-first in a list and does everything by
linear search, so it is obviously right; Hypothesis drives random
get/peek/put/resize/clear sequences through both and compares every
return value, the eviction counts, and the full LRU order after each
step.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.lru import BoundedLRU


class ListModel:
    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = []  # oldest first

    def _find(self, key):
        for index, (k, _v) in enumerate(self.entries):
            if k == key:
                return index
        return None

    def _evict(self):
        evicted = max(0, len(self.entries) - self.capacity)
        del self.entries[:evicted]
        return evicted

    def get(self, key):
        index = self._find(key)
        if index is None:
            return None
        entry = self.entries.pop(index)
        self.entries.append(entry)
        return entry[1]

    def peek(self, key):
        index = self._find(key)
        return None if index is None else self.entries[index][1]

    def put(self, key, value):
        if self.capacity == 0:
            return 0
        index = self._find(key)
        if index is not None:
            del self.entries[index]
        self.entries.append((key, value))
        return self._evict()

    def resize(self, capacity):
        self.capacity = capacity
        return self._evict()

    def clear(self):
        self.entries.clear()


KEYS = st.integers(min_value=0, max_value=7)
OPERATIONS = st.one_of(
    st.tuples(st.just("get"), KEYS),
    st.tuples(st.just("peek"), KEYS),
    st.tuples(st.just("put"), KEYS, st.integers()),
    st.tuples(st.just("resize"), st.integers(min_value=0, max_value=5)),
    st.tuples(st.just("clear")),
)


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(min_value=0, max_value=5),
    operations=st.lists(OPERATIONS, max_size=60),
)
def test_bounded_lru_matches_the_list_model(capacity, operations):
    lru = BoundedLRU(capacity)
    model = ListModel(capacity)
    for name, *args in operations:
        assert getattr(lru, name)(*args) == getattr(model, name)(*args)
        assert list(lru.items()) == model.entries
        assert list(lru.values()) == [v for _k, v in model.entries]
        assert len(lru) == len(model.entries) <= model.capacity
        assert lru.capacity == model.capacity
        for key in range(8):
            assert (key in lru) == (model._find(key) is not None)


def test_negative_capacity_is_rejected():
    with pytest.raises(ValueError):
        BoundedLRU(-1)
    with pytest.raises(ValueError):
        BoundedLRU(1).resize(-1)
