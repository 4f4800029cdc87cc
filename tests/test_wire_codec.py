"""The one-pass wire codec equals the reference codec byte for byte.

:func:`repro.server.protocol.encode_frame` / :func:`decode_payload` map
OIDs and sets inside the C JSON codec through hooks;
:func:`~repro.server.protocol.to_wire` / :func:`from_wire` are the same
mapping as explicit Python walks and serve as the oracle.  For random
nested values — None, bools, ints, floats (NaN and infinities included),
strings, lists, tuples, sets, dicts with str and int keys, OIDs anywhere
— the frame must equal the frame of ``json.dumps(to_wire(x))`` and the
decoded payload must equal ``from_wire(json.loads(...))``; a value with
an unencodable leaf must be a ``ProtocolError`` on both sides.

A stored state's row is encoded once and kept with the state: the
frame a response of shared states gets — a fetch batch, a values query,
a ``get`` — must equal the frame of its rows as plain dicts, both on the
encode that keeps the rows and on the one that reuses them; a row with
no wire form keeps nothing, and a copy carries no row.

``WIRE_CODEC_EXAMPLES`` sets the examples per property (CI's weekly job
runs 500).
"""

import json
import math
import os
import struct
from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core.obj import ObjectState
from repro.core.oid import OID
from repro.server import ProtocolError
from repro.server.protocol import decode_payload, encode_frame, from_wire, to_wire

WIRE_CODEC_EXAMPLES = int(os.environ.get("WIRE_CODEC_EXAMPLES", "60"))

_OIDS = st.builds(OID, st.integers(0, 2 ** 40), st.text(max_size=6))
_HASHABLE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2 ** 70), 2 ** 70),
    st.floats(),
    st.text(max_size=8),
    _OIDS,
)
#: Dict keys: str (never the marker key itself) and int.
_KEYS = st.one_of(st.text(max_size=6).filter(lambda key: key != "$oid"), st.integers(-999, 999))


def _dicts(values):
    # Keys 1 and "1" both render as "1": the reference walk keeps one of
    # them, JSON keeps both (and a decoder keeps the last).
    return st.dictionaries(_KEYS, values, max_size=4).filter(
        lambda d: len({str(key) for key in d}) == len(d)
    )


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.sets(_HASHABLE, max_size=3),
        st.frozensets(_HASHABLE, max_size=3),
        _dicts(children),
    )


_VALUES = st.recursive(_HASHABLE, _containers, max_leaves=16)

#: Leaves with no wire form.
_BAD = st.sampled_from([b"bytes", 1j, Decimal("1.5"), object(), range(2)])


def _with_bad_leaf(children):
    return st.one_of(
        st.tuples(_VALUES, children).map(list),
        st.tuples(_KEYS, children, _dicts(_VALUES)).map(lambda t: {**t[2], t[0]: t[1]}),
    )


_BAD_VALUES = st.recursive(_BAD, _with_bad_leaf, max_leaves=6)


#: Every kind a stored value can hold: None, bool, int, float, str,
#: OIDs with and without a class hint, and lists nesting them.
_STORED_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2 ** 63), 2 ** 63 - 1),
    st.floats(),
    st.text(max_size=8),
    st.builds(OID, st.integers(0, 2 ** 40)),
    _OIDS,
)
_STORED = st.recursive(_STORED_LEAVES, lambda kids: st.lists(kids, max_size=4), max_leaves=12)
_ATTRS = st.text(min_size=1, max_size=6)


def _states(values):
    return st.builds(
        ObjectState,
        st.builds(OID, st.integers(0, 2 ** 40), st.text(max_size=6)),
        st.text(min_size=1, max_size=6),
        st.dictionaries(_ATTRS, values, max_size=4),
    )


def _row(state):
    return {"oid": state.oid, "class": state.class_name, "values": state.values}


def _responses(states):
    """The three response shapes that carry states, and each one's image
    with the states as plain row dicts."""
    rows = [_row(state) for state in states]
    return [
        ({"id": 7, "ok": True, "result": {"rows": states, "done": False}},
         {"id": 7, "ok": True, "result": {"rows": rows, "done": False}}),
        ({"id": 8, "ok": True, "result": {"rows": states, "count": len(states)}},
         {"id": 8, "ok": True, "result": {"rows": rows, "count": len(rows)}}),
        ({"id": 9, "ok": True, "result": states[0]},
         {"id": 9, "ok": True, "result": rows[0]}),
    ]


def _reference_frame(payload):
    body = json.dumps(to_wire(payload), separators=(",", ":")).encode("utf-8")
    return struct.pack(">I", len(body)) + body


def _shape(value):
    """A comparable image of a decoded value: types kept, NaN == NaN."""
    if isinstance(value, OID):
        return ("oid", value.value, value.hint)
    if isinstance(value, dict):
        return ("dict", [(key, _shape(item)) for key, item in value.items()])
    if isinstance(value, list):
        return ("list", [_shape(item) for item in value])
    if isinstance(value, float) and math.isnan(value):
        return ("nan",)
    return (type(value).__name__, value)


class TestWireCodecMatchesReference:
    @given(value=_VALUES)
    @settings(max_examples=WIRE_CODEC_EXAMPLES, deadline=None)
    def test_frames_and_decoded_payloads_match(self, value):
        payload = {"id": 1, "ok": True, "result": value}
        frame = encode_frame(payload)
        assert frame == _reference_frame(payload)
        body = frame[4:]
        assert _shape(decode_payload(body)) == _shape(from_wire(json.loads(body)))

    @given(value=_BAD_VALUES)
    @settings(max_examples=WIRE_CODEC_EXAMPLES, deadline=None)
    def test_unencodable_values_are_protocol_errors_on_both_sides(self, value):
        payload = {"id": 1, "ok": True, "result": value}
        with pytest.raises(ProtocolError):
            to_wire(payload)
        with pytest.raises(ProtocolError):
            encode_frame(payload)


class TestKeptRowFrames:
    @given(states=st.lists(_states(_STORED), min_size=1, max_size=4))
    @settings(max_examples=WIRE_CODEC_EXAMPLES, deadline=None)
    def test_kept_row_frames_match_the_reference(self, states):
        for payload, plain in _responses(states):
            expected = _reference_frame(plain)
            assert encode_frame(payload) == expected  # fills the rows
            assert all(isinstance(state.wire_row, str) for state in states)
            assert encode_frame(payload) == expected  # reuses them
        for state in states:
            assert not hasattr(state.copy(), "wire_row")

    @given(value=_VALUES, states=st.lists(_states(_STORED), min_size=1, max_size=3))
    @settings(max_examples=WIRE_CODEC_EXAMPLES, deadline=None)
    def test_frames_without_states_match_and_states_elsewhere_are_refused(self, value, states):
        """Requests and errors are encoded whole; a state anywhere but a
        response's ``result`` or its result's ``rows`` is a ProtocolError."""
        for payload in (
            {"id": 3, "op": "query", "params": {"text": "x", "values": value}},
            {"id": 4, "ok": False, "error": {"code": "QUERY", "message": "x", "at": value}},
            {"id": 5, "ok": True, "result": {"items": value, "rows": [value]}},
        ):
            assert encode_frame(payload) == _reference_frame(payload)
        for payload in (
            {"id": 3, "op": "put", "params": {"state": states[0]}},
            {"id": 3, "op": "put", "params": states},
            {"id": 6, "ok": True, "result": {"state": states[0], "rows": []}},
            {"id": 6, "ok": True, "result": {"rows": [value] + states}},
            {"id": 6, "ok": True, "result": {"rows": states + [value]}},
            {"id": 6, "ok": True, "result": [states]},
        ):
            with pytest.raises(ProtocolError):
                encode_frame(payload)

    @given(state=_states(_STORED), attr=_ATTRS, blob=st.binary(max_size=4))
    @settings(max_examples=WIRE_CODEC_EXAMPLES, deadline=None)
    def test_a_row_with_no_wire_form_keeps_nothing(self, state, attr, blob):
        state.values[attr] = [blob] if len(blob) % 2 else blob
        for payload, _plain in _responses([state]):
            for _attempt in range(2):
                with pytest.raises(ProtocolError):
                    encode_frame(payload)
                assert not hasattr(state, "wire_row")
