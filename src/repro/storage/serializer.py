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
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Tuple

from ..core.obj import ObjectState
from ..core.oid import OID
from ..errors import StorageError

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")


def _encode_str(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise StorageError("string of %d bytes exceeds field limit" % len(raw))
    out += _U16.pack(len(raw))
    out += raw


#: Encoded class/attribute name -> the one ``str`` every decoded state
#: uses for it, so the decoded-state memo (page.py) holds each schema
#: name once rather than once per record.
_NAMES: Dict[bytes, str] = {}


def _decode_str(data: bytes, pos: int) -> Tuple[str, int]:
    """A class or attribute name, from the shared name table."""
    (length,) = _U16.unpack_from(data, pos)
    pos += _U16.size
    end = pos + length
    raw = data[pos:end]
    name = _NAMES.get(raw)
    if name is None:
        name = _NAMES.setdefault(raw, raw.decode("utf-8"))
    return name, end


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


def _decode_value(data: bytes, pos: int) -> Tuple[Any, int]:
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
        length = data[pos]
        pos += 1
        return int.from_bytes(data[pos : pos + length], "big", signed=True), pos + length
    if tag == b"D":
        (raw_f,) = _F64.unpack_from(data, pos)
        return raw_f, pos + _F64.size
    if tag == b"S":
        (length,) = _U32.unpack_from(data, pos)
        pos += _U32.size
        return data[pos : pos + length].decode("utf-8"), pos + length
    if tag == b"B":
        (length,) = _U32.unpack_from(data, pos)
        pos += _U32.size
        return bytes(data[pos : pos + length]), pos + length
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
    out = bytearray()
    out += _U64.pack(state.oid.value)
    _encode_str(out, state.class_name)
    names = sorted(state.values)
    if len(names) > 0xFFFF:
        raise StorageError("too many attributes to serialize")
    out += _U16.pack(len(names))
    for name in names:
        _encode_str(out, name)
        _encode_value(out, state.values[name])
    return bytes(out)


def decode_object(data: bytes) -> ObjectState:
    """Deserialize bytes produced by :func:`encode_object`."""
    try:
        (oid_raw,) = _U64.unpack_from(data, 0)
        pos = _U64.size
        class_name, pos = _decode_str(data, pos)
        (count,) = _U16.unpack_from(data, pos)
        pos += _U16.size
        values = {}
        for _ in range(count):
            name, pos = _decode_str(data, pos)
            value, pos = _decode_value(data, pos)
            values[name] = value
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise StorageError("corrupt object record: %s" % exc) from exc
    return ObjectState(OID(oid_raw, class_name), class_name, values)
