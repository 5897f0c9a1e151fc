"""File helpers shared by telemetry writers and campaign checkpoints.

Two disciplines, one per artifact shape:

* **Whole-file artifacts** (metrics, store entries) go through
  :func:`atomic_write_text`: write-to-temp-then-rename, so a reader that
  opens the file while it is being replaced sees either the previous
  complete artifact or the new complete artifact, never a torn file.
  The temp file comes from :func:`tempfile.mkstemp` *in the target
  directory* (rename is only atomic within one filesystem), with a
  unique name per writer.  A fixed ``<name>.tmp`` path would let two
  processes writing the same artifact open each other's temp file and
  interleave — the reader would then see a torn rename.
* **Growing artifacts** (campaign checkpoints, traces) are
  :class:`JsonlSegment` files: a header line written through
  :func:`atomic_write_text`, then one appended JSON line per record.
  An append costs one record, never the whole history.  A crash can
  only tear the final line; :meth:`JsonlSegment.reopen` drops that
  line and truncates the file back to the last newline.

``atomic_write_text(..., fsync=True)`` additionally forces the data to
stable storage before the rename; it is off by default, and segments
never fsync.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Tuple, Union

from repro.errors import CheckpointError


def atomic_write_text(
    path: Union[str, Path], text: str, *, fsync: bool = False
) -> Path:
    """Write ``text`` to ``path`` atomically (unique temp file + rename).

    Safe against concurrent writers of the same target: each call writes
    its own ``mkstemp`` file, so the last rename wins and readers always
    see one writer's complete output.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(target.parent), prefix=f"{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target


def write_json_atomic(
    path: Union[str, Path], payload: Any, *, fsync: bool = False
) -> Path:
    """Serialize ``payload`` as stable, indented JSON and write atomically."""
    return atomic_write_text(
        path,
        json.dumps(payload, indent=1, sort_keys=True) + "\n",
        fsync=fsync,
    )


def jsonl_line(record: Mapping[str, Any]) -> str:
    """The one serialization of a segment record: sorted keys, one line."""
    return json.dumps(record, sort_keys=True) + "\n"


class JsonlSegment:
    """Append-only JSON Lines file: one header line, then one record per line.

    :meth:`create` starts a segment (replacing any file at ``path``);
    :meth:`reopen` resumes one written under the same header and returns
    its complete records.  Each :meth:`append` writes only the records it
    is given, so a segment of *n* records costs O(*n*) bytes written in
    total.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    @classmethod
    def create(
        cls, path: Union[str, Path], header: Mapping[str, Any]
    ) -> "JsonlSegment":
        """Start a new segment holding just ``header``."""
        atomic_write_text(path, jsonl_line(header))
        return cls(path)

    @classmethod
    def reopen(
        cls, path: Union[str, Path], header: Mapping[str, Any]
    ) -> Tuple["JsonlSegment", List[Dict[str, Any]]]:
        """Resume the segment at ``path``; returns it and its records.

        * A missing file, or one torn inside its header line (a prefix of
          the expected header), starts a fresh segment with no records.
        * A torn final record line (no trailing newline) is dropped, and
          the file is truncated back to the last newline before any
          further append.
        * Anything else that is not this header followed by JSON-object
          lines — a header mismatch, a corrupt complete line — raises
          :class:`~repro.errors.CheckpointError`.
        """
        target = Path(path)
        try:
            data = target.read_bytes()
        except FileNotFoundError:
            return cls.create(target, header), []
        except OSError as exc:
            raise CheckpointError(f"unreadable checkpoint {target}: {exc}") from exc
        complete, newline, torn = data.rpartition(b"\n")
        if not newline:
            if jsonl_line(header).encode().startswith(data):
                return cls.create(target, header), []
            raise CheckpointError(
                f"unreadable checkpoint {target}: no header line "
                f"(not an append-only checkpoint segment)"
            )
        lines: List[Any] = []
        for lineno, line in enumerate(complete.split(b"\n"), start=1):
            try:
                lines.append(json.loads(line))
            except ValueError as exc:
                raise CheckpointError(
                    f"unreadable checkpoint {target}:{lineno}: {exc}"
                ) from exc
        if lines[0] != header:
            raise CheckpointError(
                f"checkpoint {target} belongs to a different campaign: "
                f"saved header {lines[0]!r} != expected {dict(header)!r}"
            )
        records = lines[1:]
        if not all(isinstance(record, dict) for record in records):
            raise CheckpointError(
                f"malformed checkpoint {target}: a record is not an object"
            )
        if torn:
            with target.open("r+b") as handle:
                handle.truncate(len(complete) + 1)
        return cls(target), records

    def append(self, records: Iterable[Mapping[str, Any]]) -> None:
        """Append ``records``, one line each, in one write."""
        text = "".join(jsonl_line(record) for record in records)
        if text:
            with self.path.open("a") as handle:
                handle.write(text)
