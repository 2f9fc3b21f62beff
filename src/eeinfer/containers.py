"""Shared low-level layout for on-disk files.

Both binary formats (.eem models, .eekey keys) use the same envelope:
magic bytes, a u32 little-endian header length, a UTF-8 JSON header, then a
format-specific payload. Prompts, corpora and transcripts are JSON lines.
This module owns the envelope, whose header write_container stamps with the
format version that read_container requires, the line codec and the rule for
a line's token ids; payload and record semantics stay with the owning module.
"""
from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Callable, Iterable

from .errors import FormatError, VersionError

_HEADER_LEN_FMT = "<I"
FORMAT_VERSION = 1


def canonical_json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_container(path: str | Path, magic: bytes, header: dict, payload: bytes) -> None:
    header_bytes = canonical_json({**header, "format_version": FORMAT_VERSION}).encode("utf-8")
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack(_HEADER_LEN_FMT, len(header_bytes)))
        f.write(header_bytes)
        f.write(payload)


def read_container(path: str | Path, magic: bytes) -> tuple[dict, bytes, int]:
    """Parse the envelope, version included. Returns (header, payload, payload byte offset)."""
    data = Path(path).read_bytes()
    if len(data) < len(magic):
        raise FormatError("file shorter than magic", offset=len(data))
    if data[: len(magic)] != magic:
        raise FormatError(f"bad magic, expected {magic!r}", offset=0)
    if len(data) < len(magic) + 4:
        raise FormatError("file truncated inside header length field", offset=len(data))
    (header_len,) = struct.unpack_from(_HEADER_LEN_FMT, data, len(magic))
    header_start = len(magic) + 4
    header_end = header_start + header_len
    if header_end > len(data):
        raise FormatError("file truncated inside header", offset=len(data))
    try:
        header = json.loads(data[header_start:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"header is not valid JSON ({exc})", offset=header_start) from exc
    if not isinstance(header, dict):
        raise FormatError("header JSON is not an object", offset=header_start)
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionError(f"unsupported {magic.decode()} format version {version!r}")
    return header, data[header_end:], header_end


def jsonl_text(objects: Iterable[object]) -> str:
    """One JSON object per line, keys sorted; empty for no objects."""
    return "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in objects)


def write_jsonl(path: str | Path, objects: Iterable[object]) -> None:
    Path(path).write_text(jsonl_text(objects), encoding="utf-8")


def json_ids(value: object) -> tuple[int, ...]:
    """A JSON list of integer token ids, as a tuple. A float, string, boolean
    or list among them raises TypeError, which read_jsonl reports."""
    if not isinstance(value, list) or any(type(i) is not int for i in value):
        raise TypeError("token ids must be a JSON list of integers")
    return tuple(value)


def read_jsonl(path: str | Path, what: str, record: Callable[[object], object]) -> list:
    """``record`` of each non-blank line's JSON value. A line that is not
    JSON, or that ``record`` rejects with KeyError or TypeError, is a
    FormatError naming ``what`` and the line number."""
    records = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(record(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise FormatError(f"{what} line {lineno} is malformed: {exc}") from exc
    return records
