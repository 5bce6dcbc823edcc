"""The durable-store layer every on-disk format shares.

Witness traces, checkpoints, result-cache entries, synced peer
objects, service results and metrics files all go through these
helpers, so each idiom exists once:

* :func:`write_atomic` -- replace a file in one step;
* :func:`read_json` -- parse a file, raising the caller's error;
* :func:`check_stamp` -- validate a ``{"format", "version"}`` stamp;
* :func:`require` -- read one typed field, naming it when it is bad;
* :func:`content_digest` -- the SHA-256 content address of a JSON value.

The validators take the caller's error class, so a bad trace raises
``TraceFormatError`` and a bad checkpoint ``CheckpointError`` without
any re-wrapping.  The module imports only the standard library and
:mod:`repro.errors`, so every store can use it without import cycles.

**Crash model.**  Process death, not power loss: a reader sees either
the old file or the new one, never a torn mix, and no ``fsync`` is
issued.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import secrets
from typing import Any, Dict, Type, Union

from .errors import ReproError


def write_atomic(path: Union[str, pathlib.Path], text: str) -> pathlib.Path:
    """Replace ``path`` with ``text`` (UTF-8); returns the path.

    The text goes to a fresh temp file beside the target, which
    :func:`os.replace` then renames onto it.  Each call gets its own
    temp name (random, created with ``O_EXCL`` as ``mkstemp`` does), so
    concurrent writers of one path never share a temp file.  Unlike
    ``mkstemp`` the file is created with mode ``0o666`` less the
    umask, the mode a plain write gives it.  The name is hidden and
    ends in ``.tmp``, so no store's suffix scan (``*.trace.json``,
    ``*.result.json``, ``*.ckpt.json``) ever lists it.  On failure the
    temp file is removed, the previous file is left as it was, and the
    error propagates.  Missing parent directories are created.
    """
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f".{target.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return target


def check_stamp(
    data: Any,
    fmt: str,
    version: int,
    error: Type[ReproError],
    what: str,
    where: str = "",
    noun: str = "file",
) -> Dict[str, Any]:
    """Validate the ``{"format": fmt, "version": version}`` stamp.

    Returns ``data`` (known to be a dict).  ``what`` names the format
    in messages ("trace", "event-log", ...), ``noun`` the kind of
    document ("file", "log", "body", ...), and ``where`` prefixes
    them with a location such as ``path:line``.
    """
    lead = f"{where}: " if where else ""
    if not isinstance(data, dict):
        raise error(f"{lead}{what} must be a JSON object, got {type(data).__name__}")
    found = data.get("format")
    if found != fmt:
        raise error(f"{lead}not a {fmt} {noun} (format={found!r})")
    found = data.get("version")
    if found != version or isinstance(found, bool):
        raise error(
            f"{lead}unsupported {what} version {found!r} (this build reads {version})"
        )
    return data


def require(
    data: Any,
    key: str,
    kind: type,
    where: str,
    error: Type[ReproError],
    optional: bool = False,
) -> Any:
    """``data[key]``, checked to be a ``kind`` (a bool is never an int).

    With ``optional`` a missing key or a null reads as ``None``.
    Violations raise ``error`` naming ``where`` and the key.
    """
    value = data.get(key) if isinstance(data, dict) else None
    if value is None and optional:
        return None
    if not isinstance(data, dict) or key not in data:
        raise error(f"{where}: missing required key {key!r}")
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        null = " or null" if optional else ""
        raise error(
            f"{where}: key {key!r} must be {kind.__name__}{null}, "
            f"got {type(value).__name__}"
        )
    return value


def read_json(path: Union[str, pathlib.Path], error: Type[ReproError], what: str) -> Any:
    """Parse the JSON file at ``path``; an unreadable or malformed file
    raises ``error`` ("cannot read <what> <path>: ...")."""
    try:
        return json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def content_digest(obj: Any) -> str:
    """SHA-256 hex digest of ``obj`` as sorted-key JSON.

    The one content address behind cache keys, job identities, trace
    filenames and program fingerprints; callers truncate as they need.
    """
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()
