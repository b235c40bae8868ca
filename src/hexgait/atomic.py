"""Atomic artifact writes: a temp file in the target directory, then a rename."""
from __future__ import annotations

import os


def write_atomic(path, text) -> None:
    """Replace `path` with `text`, one str or an iterable of str chunks,
    in one rename.

    The temp file is created with mode 0o666 and the umask trims it, so
    every artifact gets the mode a plain open() would give it.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tmp-{os.getpid()}-{os.urandom(4).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
