"""Unit and property tests for the two priority queues."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pq import AddressableHeap, LazyHeap

QUEUES = (AddressableHeap, LazyHeap)


@pytest.fixture(params=QUEUES, ids=lambda cls: cls.__name__)
def queue(request):
    return request.param()


class TestBasicProtocol:
    def test_the_protocol_is_push_pop_and_size(self, queue):
        public = {name for name in dir(queue) if not name.startswith("_")}
        assert public == {"push", "pop"}

    def test_empty(self, queue):
        assert len(queue) == 0
        assert not queue
        with pytest.raises(IndexError):
            queue.pop()

    def test_push_pop_single(self, queue):
        assert queue.push("a", 5)
        assert len(queue) == 1
        assert queue
        assert queue.pop() == ("a", 5)
        assert len(queue) == 0

    def test_pops_in_key_order(self, queue):
        for item, key in [("a", 30), ("b", 10), ("c", 20)]:
            queue.push(item, key)
        assert [queue.pop()[0] for _ in range(3)] == ["b", "c", "a"]

    def test_decrease_key(self, queue):
        queue.push("a", 50)
        queue.push("b", 20)
        assert queue.push("a", 10)  # decrease
        assert len(queue) == 2
        assert queue.pop() == ("a", 10)

    def test_key_increase_ignored(self, queue):
        queue.push("a", 10)
        assert not queue.push("a", 99)
        assert not queue.push("a", 10)
        assert queue.pop() == ("a", 10)
        assert not queue

    def test_tuple_items(self, queue):
        queue.push((3, 1), 9)
        queue.push((2, 7), 4)
        assert queue.pop() == ((2, 7), 4)


class TestAgainstReferenceModel:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_ops=st.integers(min_value=1, max_value=300),
    )
    def test_random_operations(self, seed, num_ops):
        """Both queues must agree with a naive dict-scan reference.

        Keys are made unique (base key · N + op counter) so that the
        minimum item is unambiguous and both queues must pop exactly
        the same (item, key) sequence.
        """
        rng = random.Random(seed)
        queues = [cls() for cls in QUEUES]
        reference: dict[int, int] = {}
        for op_index in range(num_ops):
            if rng.random() < 0.65 or not reference:
                item = rng.randrange(40)
                key = rng.randrange(1000) * 1000 + op_index  # unique
                current = reference.get(item)
                changed = current is None or key < current
                if changed:
                    reference[item] = key
                for q in queues:
                    assert q.push(item, key) == changed
            else:
                expected_item, expected_key = min(
                    reference.items(), key=lambda kv: kv[1]
                )
                for q in queues:
                    assert q.pop() == (expected_item, expected_key)
                del reference[expected_item]
            for q in queues:
                assert len(q) == len(reference)
        drain_expected = sorted(reference.items(), key=lambda kv: kv[1])
        for q in queues:
            drained = []
            while q:
                drained.append(q.pop())
            assert drained == drain_expected


class TestHeapSpecifics:
    def test_lazy_heap_stale_entries_skipped(self):
        heap = LazyHeap()
        heap.push("a", 50)
        heap.push("a", 10)  # stale (50) entry remains internally
        heap.push("b", 20)
        assert len(heap) == 2
        assert heap.pop() == ("a", 10)
        assert heap.pop() == ("b", 20)
        assert not heap
        with pytest.raises(IndexError):
            heap.pop()  # only the stale entry is left

    def test_addressable_heap_internal_consistency(self):
        heap = AddressableHeap()
        rng = random.Random(1)
        for _ in range(500):
            heap.push(rng.randrange(60), rng.randrange(1000))
            if rng.random() < 0.3 and heap:
                heap.pop()
        # Heap property: every parent ≤ its children.
        keys = heap._keys
        for pos in range(1, len(keys)):
            assert keys[(pos - 1) >> 1] <= keys[pos]
        # Position map agrees with storage.
        for item, pos in heap._pos.items():
            assert heap._items[pos] == item
