"""Binary object serialization.

Encodes an :class:`~repro.core.obj.ObjectState` into a compact
tag-length-value byte string for storage in slotted pages, and decodes it
back.  The format is self-describing (every value carries a type tag), so
schema evolution never invalidates stored records — a record written under
an old class definition decodes fine and is coerced lazily (experiment
E12).

Record layout::

    u64  oid
    str  class_name        (u16 length + utf-8 bytes)
    u16  attribute count
    per attribute: str name, tagged value

Tagged values: ``N`` none, ``T``/``F`` bool, ``I`` signed int
(u8 length + big-endian two's complement), ``D`` float (8-byte IEEE),
``S`` string, ``B`` bytes, ``O`` OID (u64), ``L`` list (u32 count +
elements).

A record is exactly its bytes: the decoder rejects one that is cut
short or carries bytes after its last value.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Optional, Tuple

from ..core.obj import ObjectState
from ..core.oid import OID
from ..errors import StorageError

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")
#: A record's head: its OID and the length of its class name.
_HEAD = struct.Struct(">QH")
#: One ``O``-tagged element of a list: the tag byte, skipped, then a u64.
_OID_RUN = struct.Struct(">xQ")
_TAG_I, _TAG_L, _TAG_O, _TAG_S = b"ILOS"


#: Encoded class/attribute name -> the one ``str`` every decoded state
#: uses for it, so the object buffer (manager.py) holds each schema
#: name once rather than once per record.
_NAMES: Dict[bytes, str] = {}

#: The encode side's table: class/attribute name -> its length-prefixed
#: UTF-8 bytes, so :func:`encode_object` encodes each name once.
_ENCODED_NAMES: Dict[str, bytes] = {}


def _encoded_name(name: str) -> bytes:
    """``name`` as a record stores it, entered in the table."""
    raw = name.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise StorageError("string of %d bytes exceeds field limit" % len(raw))
    return _ENCODED_NAMES.setdefault(name, _U16.pack(len(raw)) + raw)


def _encode_value(out: bytearray, value: Any) -> None:
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, OID):
        out += b"O"
        out += _U64.pack(value.value)
    elif isinstance(value, int):
        out += b"I"
        length = max(1, (value.bit_length() + 8) // 8)
        if length > 255:
            raise StorageError("integer too large to serialize")
        out.append(length)
        out += value.to_bytes(length, "big", signed=True)
    elif isinstance(value, float):
        out += b"D"
        out += _F64.pack(value)
    elif isinstance(value, str):
        out += b"S"
        raw = value.encode("utf-8")
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, bytes):
        out += b"B"
        out += _U32.pack(len(value))
        out += value
    elif isinstance(value, list):
        out += b"L"
        out += _U32.pack(len(value))
        for element in value:
            _encode_value(out, element)
    else:
        raise StorageError(
            "value %r of type %s is not storable" % (value, type(value).__name__)
        )


def _past_end(data: bytes, pos: int) -> StorageError:
    return StorageError(
        "corrupt object record: a value at offset %d runs past its %d bytes"
        % (pos, len(data))
    )


def _decode_value(data: bytes, pos: int) -> Tuple[Any, int]:
    """One tagged value at ``pos``: the general (recursive) decoder the
    flat loop in :func:`decode_object` falls back to for rare tags."""
    tag = data[pos : pos + 1]
    pos += 1
    if tag == b"N":
        return None, pos
    if tag == b"T":
        return True, pos
    if tag == b"F":
        return False, pos
    if tag == b"O":
        (raw,) = _U64.unpack_from(data, pos)
        return OID(raw), pos + _U64.size
    if tag == b"I":
        end = pos + 1 + data[pos]
        if end > len(data):
            raise _past_end(data, pos - 1)
        return int.from_bytes(data[pos + 1 : end], "big", signed=True), end
    if tag == b"D":
        (raw_f,) = _F64.unpack_from(data, pos)
        return raw_f, pos + _F64.size
    if tag == b"S" or tag == b"B":
        (length,) = _U32.unpack_from(data, pos)
        start = pos + _U32.size
        end = start + length
        if end > len(data):
            raise _past_end(data, pos - 1)
        raw = data[start:end]
        return (raw.decode("utf-8") if tag == b"S" else bytes(raw)), end
    if tag == b"L":
        (count,) = _U32.unpack_from(data, pos)
        pos += _U32.size
        items = []
        for _ in range(count):
            item, pos = _decode_value(data, pos)
            items.append(item)
        return items, pos
    raise StorageError("unknown value tag %r at offset %d" % (tag, pos - 1))


def encode_object(state: ObjectState) -> bytes:
    """Serialize an object state to bytes."""
    encoded_names = _ENCODED_NAMES
    out = bytearray(_U64.pack(state.oid.value))
    out += encoded_names.get(state.class_name) or _encoded_name(state.class_name)
    values = state.values
    names = sorted(values)
    if len(names) > 0xFFFF:
        raise StorageError("too many attributes to serialize")
    out += _U16.pack(len(names))
    for name in names:
        out += encoded_names.get(name) or _encoded_name(name)
        _encode_value(out, values[name])
    return bytes(out)


#: Types whose values decode as themselves: the same value, the same type.
_SELF_DECODING = frozenset((type(None), bool, int, float, str, bytes))


def _decoded_value(value: Any) -> Any:
    kind = type(value)
    if kind in _SELF_DECODING:
        return value
    if kind is OID:
        return OID(value.value) if value.hint else value
    if kind is list:
        return [_decoded_value(element) for element in value]
    raise TypeError(kind)


def decoded_copy(state: ObjectState) -> Optional[ObjectState]:
    """What ``decode_object(encode_object(state))`` returns, built without
    the round trip: a fresh values dict in the record's (sorted) order,
    fresh lists, reference OIDs without hints and the state's OID hinted
    with its class.  None when a value would decode as another type (a
    subclass of a storable one): decode the encoding then."""
    source, values, plain = state.values, {}, _SELF_DECODING
    try:
        for name in sorted(source):
            value = source[name]
            values[name] = value if type(value) in plain else _decoded_value(value)
    except TypeError:
        return None
    oid = state.oid
    if oid.hint != state.class_name:
        oid = OID(oid.value, state.class_name)
    return ObjectState(oid, state.class_name, values)


def decode_object(data: bytes) -> ObjectState:
    """Deserialize bytes produced by :func:`encode_object`.

    One flat loop: attribute names come from the shared name table and
    the common tags — ``O``, ``I``, ``S`` and ``L`` lists of OIDs — decode
    inline; only the rest go through :func:`_decode_value`.  ``data``
    must be exactly one record: a value that runs past its end, or bytes
    left over after the last value, raise :class:`StorageError`.
    """
    names = _NAMES
    unpack_u16, unpack_u32, unpack_u64 = _U16.unpack_from, _U32.unpack_from, _U64.unpack_from
    size = len(data)
    try:
        oid_raw, length = _HEAD.unpack_from(data, 0)
        pos = _HEAD.size + length
        raw = data[_HEAD.size : pos]
        class_name = names.get(raw)
        if class_name is None:
            class_name = names.setdefault(raw, raw.decode("utf-8"))
        (count,) = unpack_u16(data, pos)
        pos += 2
        values = {}
        for _ in range(count):
            (length,) = unpack_u16(data, pos)
            start = pos + 2
            pos = start + length
            raw = data[start:pos]
            name = names.get(raw)
            if name is None:
                name = names.setdefault(raw, raw.decode("utf-8"))
            # A name cut short by the end of ``data`` leaves ``pos`` past
            # it, so reading the tag raises.
            tag = data[pos]
            if tag == _TAG_O:
                (raw_oid,) = unpack_u64(data, pos + 1)
                value = OID(raw_oid)
                pos += 9
            elif tag == _TAG_I:
                start = pos + 2
                pos = start + data[pos + 1]
                if pos > size:
                    raise _past_end(data, start - 2)
                value = int.from_bytes(data[start:pos], "big", signed=True)
            elif tag == _TAG_S:
                (length,) = unpack_u32(data, pos + 1)
                start = pos + 5
                pos = start + length
                if pos > size:
                    raise _past_end(data, start - 5)
                value = data[start:pos].decode("utf-8")
            else:
                value = None
                if tag == _TAG_L:
                    (length,) = unpack_u32(data, pos + 1)
                    start = pos + 5
                    end = start + 9 * length
                    # Every element an OID: each 9th byte is an ``O`` tag.
                    if end <= size and data[start:end:9] == b"O" * length:
                        value = [OID(oid) for (oid,) in _OID_RUN.iter_unpack(data[start:end])]
                        pos = end
                if value is None:
                    value, pos = _decode_value(data, pos)
            values[name] = value
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise StorageError("corrupt object record: %s" % exc) from exc
    if pos != size:
        raise StorageError(
            "corrupt object record: %d bytes left over after the last value"
            % (size - pos)
        )
    return ObjectState(OID(oid_raw, class_name), class_name, values)
