"""Artifacts written whole or not at all.

`replacing(path)` hands out a text file under a temporary name beside path
and moves it over path with os.replace once the with-block completes, so a
reader of path sees the old file or the whole new one, never a part.  The
CSV and JSON writers of `polynomials` and `cli` all go through it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


@contextmanager
def replacing(path: str | Path) -> Iterator[IO[str]]:
    """A new text file opened for writing beside path, moved over path when
    the block completes.  On any error, the interrupt included, the
    temporary file is removed and path is left as it was.  The file is
    created as open(path, "w") creates one, under the process umask."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
