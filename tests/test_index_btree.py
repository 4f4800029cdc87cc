"""B+-tree substrate.

``COUNTED_BTREE_EXAMPLES`` sets the hypothesis examples of the counted
tree's brute-force check (CI's weekly job runs 500; tier-1 keeps a
short slice).
"""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.oid import OID
from repro.errors import KimDBError
from repro.index.btree import BTree, normalize_key


class TestNormalizeKey:
    def test_type_ranks_ordered(self):
        keys = [None, False, True, -5, 2.5, 7, "a", b"b", OID(1)]
        normalized = [normalize_key(k) for k in keys]
        assert normalized == sorted(normalized)

    def test_int_float_interleave(self):
        assert normalize_key(1) < normalize_key(1.5) < normalize_key(2)

    def test_int_equals_equal_float(self):
        assert normalize_key(7500) == normalize_key(7500.0)

    def test_every_nan_is_one_key_after_every_number(self):
        nan = normalize_key(float("nan"))
        assert nan == normalize_key(float("nan"))
        assert hash(nan) == hash(normalize_key(-float("nan")))
        assert normalize_key(float("inf")) < nan < normalize_key("")

    def test_unindexable_value(self):
        with pytest.raises(KimDBError):
            normalize_key([1, 2])


class TestInsertSearch:
    def test_search_empty(self):
        assert BTree().search(5) == []

    def test_single_entry(self):
        tree = BTree()
        tree.insert(5, "A", OID(1))
        assert tree.search(5) == [("A", OID(1))]

    def test_duplicates_same_key(self):
        tree = BTree()
        tree.insert(5, "A", OID(1))
        tree.insert(5, "B", OID(2))
        assert sorted(tree.search(5)) == [("A", OID(1)), ("B", OID(2))]

    def test_many_keys_split(self):
        tree = BTree(order=4)
        for value in range(200):
            tree.insert(value, "A", OID(value + 1))
        assert tree.depth() > 1
        for value in (0, 57, 199):
            assert tree.search(value) == [("A", OID(value + 1))]
        tree.check_invariants()

    def test_random_insert_order(self):
        rng = random.Random(0)
        values = list(range(500))
        rng.shuffle(values)
        tree = BTree(order=8)
        for value in values:
            tree.insert(value, "A", OID(value + 1))
        tree.check_invariants()
        assert list(tree.iter_keys()) == list(range(500))

    def test_mixed_type_keys(self):
        tree = BTree()
        tree.insert("detroit", "A", OID(1))
        tree.insert(42, "A", OID(2))
        tree.insert(None, "A", OID(3))
        tree.check_invariants()
        assert tree.search("detroit") == [("A", OID(1))]
        assert tree.search(None) == [("A", OID(3))]

    def test_order_validation(self):
        with pytest.raises(KimDBError):
            BTree(order=2)


class TestRange:
    @pytest.fixture
    def tree(self):
        tree = BTree(order=4)
        for value in range(0, 100, 10):
            tree.insert(value, "A", OID(value + 1))
        return tree

    def keys(self, result):
        return [key for key, _entries in result]

    def test_full_range(self, tree):
        assert self.keys(tree.range()) == list(range(0, 100, 10))

    def test_bounded_inclusive(self, tree):
        assert self.keys(tree.range(20, 50)) == [20, 30, 40, 50]

    def test_bounded_exclusive(self, tree):
        assert self.keys(tree.range(20, 50, include_low=False, include_high=False)) == [30, 40]

    def test_open_low(self, tree):
        assert self.keys(tree.range(high=25)) == [0, 10, 20]

    def test_open_high(self, tree):
        assert self.keys(tree.range(low=75)) == [80, 90]

    def test_bounds_between_keys(self, tree):
        assert self.keys(tree.range(15, 35)) == [20, 30]

    def test_empty_range(self, tree):
        assert self.keys(tree.range(101, 200)) == []


class TestRemove:
    def test_remove_entry(self):
        tree = BTree()
        tree.insert(5, "A", OID(1))
        assert tree.remove(5, "A", OID(1))
        assert tree.search(5) == []
        assert len(tree) == 0

    def test_remove_one_of_duplicates(self):
        tree = BTree()
        tree.insert(5, "A", OID(1))
        tree.insert(5, "A", OID(2))
        assert tree.remove(5, "A", OID(1))
        assert tree.search(5) == [("A", OID(2))]

    def test_remove_missing_returns_false(self):
        tree = BTree()
        tree.insert(5, "A", OID(1))
        assert not tree.remove(5, "A", OID(99))
        assert not tree.remove(6, "A", OID(1))

    def test_heavy_churn_keeps_invariants(self):
        rng = random.Random(1)
        tree = BTree(order=6)
        live = set()
        for step in range(2000):
            value = rng.randrange(100)
            oid = OID(value + 1)
            if (value, oid.value) in live and rng.random() < 0.5:
                tree.remove(value, "A", oid)
                live.discard((value, oid.value))
            elif (value, oid.value) not in live:
                tree.insert(value, "A", oid)
                live.add((value, oid.value))
        tree.check_invariants()
        assert len(tree) == len(live)

    def test_clear(self):
        tree = BTree()
        for value in range(10):
            tree.insert(value, "A", OID(value + 1))
        tree.clear()
        assert len(tree) == 0
        assert list(tree.iter_keys()) == []


class TestIterEntries:
    def test_entries_in_key_order(self):
        tree = BTree()
        tree.insert(2, "B", OID(2))
        tree.insert(1, "A", OID(1))
        entries = list(tree.iter_entries())
        assert entries == [(1, ("A", OID(1))), (2, ("B", OID(2)))]


COUNTED_BTREE_EXAMPLES = int(os.environ.get("COUNTED_BTREE_EXAMPLES", "60"))

#: Keys of every indexable rank, few enough to collide: duplicates,
#: ``None``, booleans beside numbers (``1 == 1.0``), NaN (one key after
#: every number), short strings.
_KEYS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-6, 6),
    st.floats(-6, 6, allow_nan=False),
    st.just(float("nan")),
    st.text(alphabet="ab", max_size=2),
)
_BOUNDS = st.tuples(
    st.one_of(st.none(), _KEYS), st.one_of(st.none(), _KEYS), st.booleans(), st.booleans()
)


class TestCountedTree:
    @given(
        order=st.integers(4, 6),
        # (op, key, pick): op 0 removes the live entry ``pick`` selects,
        # 1 and 2 insert ``key`` — enough net inserts to split levels.
        ops=st.lists(
            st.tuples(st.integers(0, 2), _KEYS, st.integers(0, 10 ** 6)),
            min_size=40,
            max_size=240,
        ),
        bounds=st.lists(_BOUNDS, min_size=1, max_size=12),
    )
    @settings(max_examples=COUNTED_BTREE_EXAMPLES, deadline=None)
    def test_counts_match_brute_force(self, order, ops, bounds):
        tree = BTree(order=order)
        live = []  # (key, oid) pairs in the tree
        for serial, (op, key, pick) in enumerate(ops, start=1):
            if op or not live:
                tree.insert(key, "A", OID(serial))
                live.append((key, OID(serial)))
            else:
                key, oid = live.pop(pick % len(live))
                assert tree.remove(key, "A", oid)
        tree.check_invariants()
        assert len(tree) == len(live)
        normal = [normalize_key(key) for key, _oid in live]
        for key, _oid in live:
            assert tree.count(key) == normal.count(normalize_key(key))
        assert tree.distinct_keys() == len(set(normal))
        for low, high, include_low, include_high in bounds:
            lo = None if low is None else normalize_key(low)
            hi = None if high is None else normalize_key(high)
            expected = sum(
                1
                for k in normal
                if (lo is None or k > lo or (include_low and k == lo))
                and (hi is None or k < hi or (include_high and k == hi))
            )
            assert tree.count_range(low, high, include_low, include_high) == expected
            yielded = tree.range(low, high, include_low, include_high)
            assert sum(len(entries) for _key, entries in yielded) == expected

    def test_count_missing_and_duplicate_keys(self):
        tree = BTree(order=4)
        for serial in range(1, 31):
            tree.insert(serial % 3, "A", OID(serial))
        assert tree.count(0) == tree.count(1) == tree.count(2) == 10
        assert tree.count(3) == tree.count("0") == tree.count(None) == 0
        assert tree.remove(1, "A", OID(1))
        assert tree.count(1) == 9 and tree.count(1.0) == 9

    def test_inverted_or_empty_bounds_count_zero(self):
        tree = BTree(order=4)
        for value in range(50):
            tree.insert(value, "A", OID(value + 1))
        assert tree.count_range(30, 10) == 0
        assert tree.count_range(10, 10, include_low=False) == 0
        assert tree.count_range(10, 10) == 1
        assert tree.count_range(None, None) == 50

    def test_internal_counts_survive_splits_and_removals(self):
        tree = BTree(order=4)
        for value in range(400):
            tree.insert(value % 97, "A", OID(value + 1))
        assert tree.depth() > 2
        for value in range(0, 400, 2):
            assert tree.remove(value % 97, "A", OID(value + 1))
        tree.check_invariants()
        assert sum(tree._root.counts) == len(tree) == 200
        assert tree.count_range(10, 20) == sum(tree.count(k) for k in range(10, 21))

    def test_check_invariants_catches_count_drift(self):
        tree = BTree(order=4)
        for value in range(40):
            tree.insert(value, "A", OID(value + 1))
        tree._root.counts[0] += 1
        with pytest.raises(KimDBError, match="count drift"):
            tree.check_invariants()
