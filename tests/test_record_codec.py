"""The record codec and the page image, checked against oracles.

:func:`~repro.storage.serializer.decode_object` is one flat loop with
the common tags inlined; :func:`_reference_decode` below is the plain
recursive decoder it replaced, kept as the oracle.  For random objects —
None, bools, ints (big and negative), floats, strings (non-ASCII
included), bytes, OIDs and nested lists under random attribute names —
decoding the encoding must give back the object and agree with the
oracle, and re-encoding the decoded object must give back the same bytes
(the log reuses stored records as its images on that promise); every
strict prefix of a record, and a record with bytes after it, must be a
``StorageError``.  A slotted page must survive its own image, tombstones
included, and a flipped byte must fail its checksum; its running
record-byte total must equal a recount after any sequence of inserts,
updates, deletes and re-parses, and ``free_space``/``fits`` must answer
as the recount does.

``RECORD_CODEC_EXAMPLES`` sets the examples per property (CI's weekly
job runs 500).
"""

import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.obj import ObjectState
from repro.core.oid import OID
from repro.errors import PageCorruptError, PageFullError, StorageError
from repro.storage.page import SlottedPage
from repro.storage.serializer import decode_object, encode_object

RECORD_CODEC_EXAMPLES = int(os.environ.get("RECORD_CODEC_EXAMPLES", "40"))

_OIDS = st.builds(OID, st.integers(0, 2 ** 64 - 1))
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2 ** 300), 2 ** 300),
    st.floats(),
    st.text(max_size=12),
    st.binary(max_size=12),
    _OIDS,
)
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(st.lists(children, max_size=4), st.lists(_OIDS, max_size=4)),
    max_leaves=12,
)
_STATES = st.builds(
    ObjectState,
    _OIDS,
    st.text(max_size=10),
    st.dictionaries(st.text(max_size=10), _VALUES, max_size=6),
)


def _shape(value):
    """``value`` with every type spelled out: ``True != 1``, ``-0.0 !=
    0.0`` and a NaN equals itself bit for bit."""
    if isinstance(value, list):
        return ("list", tuple(_shape(element) for element in value))
    if isinstance(value, OID):
        return ("OID", value.value)
    if isinstance(value, float):
        return ("float", struct.pack(">d", value))
    return (type(value).__name__, value)


def _state_shape(state):
    return (
        state.oid.value,
        state.class_name,
        sorted((name, _shape(value)) for name, value in state.values.items()),
    )


# -- the oracle ----------------------------------------------------------------


def _take(data, pos, size):
    end = pos + size
    if end > len(data):
        raise StorageError("record ends inside a value")
    return data[pos:end], end


def _reference_value(data, pos):
    tag, pos = _take(data, pos, 1)
    if tag in (b"N", b"T", b"F"):
        return {b"N": None, b"T": True, b"F": False}[tag], pos
    if tag == b"O":
        raw, pos = _take(data, pos, 8)
        return OID(int.from_bytes(raw, "big")), pos
    if tag == b"I":
        (length,), pos = _take(data, pos, 1)
        raw, pos = _take(data, pos, length)
        return int.from_bytes(raw, "big", signed=True), pos
    if tag == b"D":
        raw, pos = _take(data, pos, 8)
        return struct.unpack(">d", raw)[0], pos
    if tag in (b"S", b"B"):
        raw, pos = _take(data, pos, 4)
        raw, pos = _take(data, pos, int.from_bytes(raw, "big"))
        return (raw.decode("utf-8") if tag == b"S" else raw), pos
    if tag == b"L":
        raw, pos = _take(data, pos, 4)
        items = []
        for _ in range(int.from_bytes(raw, "big")):
            item, pos = _reference_value(data, pos)
            items.append(item)
        return items, pos
    raise StorageError("unknown tag %r" % tag)


def _reference_name(data, pos):
    raw, pos = _take(data, pos, 2)
    raw, pos = _take(data, pos, int.from_bytes(raw, "big"))
    return raw.decode("utf-8"), pos


def _reference_decode(data):
    raw, pos = _take(data, 0, 8)
    oid = OID(int.from_bytes(raw, "big"))
    class_name, pos = _reference_name(data, pos)
    raw, pos = _take(data, pos, 2)
    values = {}
    for _ in range(int.from_bytes(raw, "big")):
        name, pos = _reference_name(data, pos)
        values[name], pos = _reference_value(data, pos)
    if pos != len(data):
        raise StorageError("bytes after the record")
    return ObjectState(oid, class_name, values)


# -- properties -------------------------------------------------------------------


class TestRecordCodec:
    @settings(max_examples=RECORD_CODEC_EXAMPLES, deadline=None)
    @given(_STATES)
    def test_round_trip_matches_the_reference_decoder(self, state):
        data = encode_object(state)
        decoded = decode_object(data)
        assert _state_shape(decoded) == _state_shape(state)
        assert _state_shape(decoded) == _state_shape(_reference_decode(data))

    @settings(max_examples=RECORD_CODEC_EXAMPLES, deadline=None)
    @given(_STATES)
    def test_the_encoding_is_canonical(self, state):
        data = encode_object(state)
        assert encode_object(decode_object(data)) == data

    @settings(max_examples=RECORD_CODEC_EXAMPLES, deadline=None)
    @given(_STATES)
    def test_every_strict_prefix_is_rejected(self, state):
        data = encode_object(state)
        for cut in range(len(data)):
            with pytest.raises(StorageError):
                decode_object(data[:cut])

    @settings(max_examples=RECORD_CODEC_EXAMPLES, deadline=None)
    @given(_STATES, st.binary(min_size=1, max_size=4))
    def test_trailing_bytes_are_rejected(self, state, junk):
        with pytest.raises(StorageError):
            decode_object(encode_object(state) + junk)

    @pytest.mark.parametrize(
        "values",
        [
            # The OO1 shapes: every inline tag, each followed by another value.
            {"build": 5, "part_id": -12, "ptype": "type-é", "to": [OID(7), OID(2 ** 64 - 1)], "x": 2 ** 70},
            {"ctype": "c", "length": 0, "target": OID(3), "z": None},
            # Lists the inline OID-list path must hand to the general decoder.
            {"a": [], "b": [OID(1), 2], "c": [1, OID(2)], "d": [[OID(1)]], "e": OID(0)},
        ],
    )
    def test_the_inline_tags_round_trip(self, values):
        state = ObjectState(OID(42), "Part", values)
        data = encode_object(state)
        assert _state_shape(decode_object(data)) == _state_shape(state)
        assert _state_shape(_reference_decode(data)) == _state_shape(state)

    @pytest.mark.parametrize(
        "value, cut",
        [("hello world", 3), (123456789, 2), ([OID(7), OID(8)], 4), (b"bytes", 1)],
    )
    def test_a_truncated_last_value_is_rejected(self, value, cut):
        data = encode_object(ObjectState(OID(1), "A", {"a": 1, "z": value}))
        with pytest.raises(StorageError):
            decode_object(data[:-cut])

    def test_trailing_junk_is_rejected(self):
        data = encode_object(ObjectState(OID(1), "A", {"a": "hello world"}))
        with pytest.raises(StorageError):
            decode_object(data + b"\x00")

    def test_a_huge_list_count_is_rejected_without_allocating(self):
        data = bytearray(encode_object(ObjectState(OID(1), "A", {"a": [OID(2)]})))
        data[-13:-9] = b"\xff\xff\xff\xff"  # the list's element count
        with pytest.raises(StorageError):
            decode_object(bytes(data))


_BODIES = st.lists(
    st.one_of(st.binary(max_size=40), st.none()),  # None: insert then delete
    max_size=40,
)


def _build_page(bodies):
    page = SlottedPage.empty(1024)
    doomed = []
    for body in bodies:
        record = body if body is not None else b"doomed"
        if not page.fits(record):
            break
        slot = page.insert(record)
        if body is None:
            doomed.append(slot)
    for slot in doomed:
        page.delete(slot)
    return page


class TestPageImage:
    @settings(max_examples=RECORD_CODEC_EXAMPLES, deadline=None)
    @given(_BODIES)
    def test_image_round_trip_keeps_every_slot(self, bodies):
        page = _build_page(bodies)
        parsed = SlottedPage.from_bytes(page.to_bytes())
        assert parsed.slot_count == page.slot_count
        for slot in range(page.slot_count):
            expected = page._slots[slot]
            if expected is None:
                with pytest.raises(StorageError):
                    parsed.read(slot)
            else:
                assert parsed.read(slot) == expected
                assert type(parsed.read(slot)) is bytes
        assert parsed.to_bytes() == page.to_bytes()

    @settings(max_examples=RECORD_CODEC_EXAMPLES, deadline=None)
    @given(_BODIES, st.data())
    def test_a_flipped_byte_fails_the_checksum(self, bodies, data):
        image = bytearray(_build_page(bodies).to_bytes())
        position = data.draw(st.integers(0, len(image) - 1))
        image[position] ^= data.draw(st.integers(1, 255))
        with pytest.raises(PageCorruptError):
            SlottedPage.from_bytes(bytes(image))

    def test_a_bytearray_image_yields_immutable_bodies(self):
        page = _build_page([b"abc", None, b"de"])
        parsed = SlottedPage.from_bytes(bytearray(page.to_bytes()))
        assert [type(body) for body in parsed._slots] == [bytes, type(None), bytes]

    def test_a_slot_directory_past_the_page_end_is_rejected(self):
        image = bytearray(_build_page([b"abc"]).to_bytes())
        image[4:6] = b"\xff\xff"  # slot_count
        with pytest.raises(StorageError):
            SlottedPage.from_bytes(bytes(image), verify=False)


#: Page operations: insert a body, update or delete the slot at an index
#: (modulo the slot count), or re-parse the page from its image.
_PAGE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.binary(max_size=120)),
        st.tuples(st.just("update"), st.integers(0, 63), st.binary(max_size=160)),
        st.tuples(st.just("delete"), st.integers(0, 63)),
        st.tuples(st.just("parse")),
    ),
    max_size=60,
)

_HEADER_BYTES, _SLOT_BYTES = 8, 4


def _recounted_free(bodies, page_size):
    """Free space recounted from the slot bodies (None = tombstone)."""
    used = sum(len(body) for body in bodies if body is not None)
    return page_size - _HEADER_BYTES - _SLOT_BYTES * len(bodies) - used


def _model_apply(bodies, op, page_size):
    """``op`` on the plain slot list; returns the exception the page must
    raise, or None."""
    free = _recounted_free(bodies, page_size)
    kind = op[0]
    if kind == "insert":
        record = op[1]
        if None in bodies:
            if free < len(record):
                return PageFullError
            bodies[bodies.index(None)] = record
        elif free < len(record) + _SLOT_BYTES:
            return PageFullError
        else:
            bodies.append(record)
        return None
    slot = op[1] % len(bodies)
    old = bodies[slot]
    if old is None:
        return StorageError
    if kind == "update":
        if free + len(old) < len(op[2]):
            return PageFullError
        bodies[slot] = op[2]
    else:
        bodies[slot] = None
    return None


class TestPageSpace:
    @settings(max_examples=RECORD_CODEC_EXAMPLES, deadline=None)
    @given(_PAGE_OPS, st.sampled_from([256, 1024]))
    def test_the_running_total_matches_a_recount(self, ops, page_size):
        page = SlottedPage.empty(page_size)
        bodies = []
        for op in ops:
            if op[0] == "parse":
                page = SlottedPage.from_bytes(page.to_bytes())
            elif op[0] != "insert" and not bodies:
                continue
            else:
                args = op[1:] if op[0] == "insert" else (op[1] % len(bodies),) + op[2:]
                expected = _model_apply(bodies, op, page_size)
                method = getattr(page, op[0])
                if expected is None:
                    method(*args)
                else:
                    with pytest.raises(expected):
                        method(*args)
            assert page._slots == bodies
            free = _recounted_free(bodies, page_size)
            if page._body_bytes is not None:
                assert page._body_bytes == sum(len(b) for b in bodies if b is not None)
            assert page.free_space == free
            for length in (0, free - _SLOT_BYTES, free - _SLOT_BYTES + 1, free):
                assert page.fits(b"x" * max(length, 0)) == (free >= max(length, 0) + _SLOT_BYTES)
