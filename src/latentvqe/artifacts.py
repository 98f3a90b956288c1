"""The artifact format shared by every JSON file the package writes.

One schema tag, one canonical encoding (sorted keys, no whitespace, so
reruns reproduce artifacts byte for byte) and one check on the way back in.
"""
from __future__ import annotations

import json

SCHEMA_VERSION = "latentvqe/1"


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def require_schema(doc, what: str) -> dict:
    """`doc` itself if it is a JSON object tagged SCHEMA_VERSION; ValueError otherwise."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} is not a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported {what} schema {doc.get('schema_version')!r}")
    return doc
