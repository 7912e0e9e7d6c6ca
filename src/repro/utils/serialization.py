"""JSON serialization of experiment results.

Results produced by the search and the analysis sweeps are plain dataclasses
containing floats, ints, strings and nested dataclasses.  This module
converts them into JSON-friendly dictionaries (and back for the subset of
types we need) so that benchmark runs can archive their raw series alongside
the textual report, and so the :mod:`repro.runtime` search cache can persist
solved sweep points across processes and sessions:

* :func:`to_jsonable` / :func:`dump_json` / :func:`load_json` — one-way
  archiving of any result dataclass;
* :func:`dataclass_from_jsonable` — type-hint-driven reconstruction of a
  dataclass tree from its :func:`to_jsonable` form (the cache's read path);
* :func:`canonical_fingerprint` — stable content hash of a jsonable object,
  used as the cache key.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import types
import typing
from pathlib import Path
from typing import Any, Tuple

#: ``X | None`` unions (PEP 604) have their own runtime origin on 3.10+.
_UNION_ORIGINS = (typing.Union, getattr(types, "UnionType", typing.Union))


def to_jsonable(obj: Any) -> Any:
    """Recursively convert dataclasses / tuples / numpy scalars to JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if hasattr(obj, "item") and callable(obj.item) and not isinstance(obj, (str, bytes)):
        try:
            return obj.item()
        except Exception:  # pragma: no cover - non-scalar array-likes fall through
            pass
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


def dump_json(obj: Any, path: str | Path, *, indent: int = 2) -> Path:
    """Serialize ``obj`` to ``path`` as JSON and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_jsonable(obj), indent=indent, sort_keys=True))
    return path


def load_json(path: str | Path) -> Any:
    """Load a JSON file produced by :func:`dump_json`."""
    return json.loads(Path(path).read_text())


def _shape_matches(annotation: Any, value: Any) -> bool:
    """True when a JSON ``value`` structurally fits ``annotation``.

    Used to disambiguate union members: JSON only distinguishes objects,
    arrays, strings, numbers and booleans, so that is the granularity the
    check works at.
    """
    origin = typing.get_origin(annotation)
    if origin in (list, tuple) or annotation in (list, tuple):
        return isinstance(value, (list, tuple))
    if origin is dict or annotation is dict:
        return isinstance(value, dict)
    if dataclasses.is_dataclass(annotation) and isinstance(annotation, type):
        return isinstance(value, dict)
    if annotation is bool:
        return isinstance(value, bool)
    if annotation is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if annotation is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if annotation is str:
        return isinstance(value, str)
    return False


def _convert(annotation: Any, value: Any) -> Any:
    """Coerce ``value`` (a JSON type) into the shape ``annotation`` describes."""
    if value is None:
        return None
    origin = typing.get_origin(annotation)
    if origin in _UNION_ORIGINS:
        candidates = [a for a in typing.get_args(annotation) if a is not type(None)]
        if not candidates:
            return value
        # Both typing.Union[...] and PEP 604 ``X | Y`` unions land here; pick
        # the member whose JSON shape matches the value (e.g. a list for the
        # ``str | Tuple[str, ...]`` strategy field), falling back to the
        # first member for scalars that fit several.
        for candidate in candidates:
            if _shape_matches(candidate, value):
                return _convert(candidate, value)
        return _convert(candidates[0], value)
    if origin in (list, tuple) or annotation in (list, tuple):
        args = typing.get_args(annotation)
        if origin is list or annotation is list:
            item_type = args[0] if args else Any
            return [_convert(item_type, v) for v in value]
        if len(args) == 2 and args[1] is Ellipsis:  # Tuple[X, ...]
            return tuple(_convert(args[0], v) for v in value)
        if args:  # fixed-arity tuple
            return tuple(_convert(a, v) for a, v in zip(args, value))
        return tuple(value)
    if origin is dict:
        args = typing.get_args(annotation)
        value_type = args[1] if len(args) == 2 else Any
        return {k: _convert(value_type, v) for k, v in value.items()}
    if dataclasses.is_dataclass(annotation) and isinstance(annotation, type):
        return dataclass_from_jsonable(annotation, value)
    return value


def dataclass_from_jsonable(cls: type, data: Any) -> Any:
    """Rebuild a dataclass instance from its :func:`to_jsonable` dictionary.

    Nested dataclasses, ``Optional``/``List``/``Tuple``/``Dict`` fields and
    plain JSON scalars are handled recursively, driven by the class's type
    hints.  Fields absent from ``data`` fall back to the dataclass defaults.
    Non-init fields are ignored (they are recomputed by ``__post_init__``).
    """
    if data is None:
        return None
    if not (dataclasses.is_dataclass(cls) and isinstance(cls, type)):
        raise TypeError(f"{cls!r} is not a dataclass type")
    kwargs = {
        name: _convert(hint, data[name]) for name, hint in _init_fields(cls) if name in data
    }
    return cls(**kwargs)


@functools.lru_cache(maxsize=None)
def _init_fields(cls: type) -> Tuple[Tuple[str, Any], ...]:
    """``(name, type hint)`` of every init field of dataclass ``cls``.

    Resolving the hints (``typing.get_type_hints`` evaluates every string
    annotation) costs far more than building an instance, so it runs once
    per class, not once per rebuilt instance.
    """
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints.get(f.name, Any)) for f in dataclasses.fields(cls) if f.init)


def canonical_fingerprint(obj: Any) -> str:
    """SHA-256 hex digest of ``obj``'s canonical (sorted-key) JSON form.

    Any change to any field of the object — model hyper-parameters, system
    rates, search-space knobs, modeling options — yields a different digest,
    which is exactly the invalidation rule the search cache needs.
    """
    payload = json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
