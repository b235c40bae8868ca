"""Text files: atomic writes and the line reader."""
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


def text_lines(fh, start: int = 1):
    """Yields (line number from `start`, text) of each line of binary file
    `fh`, or of a list of byte lines, whose text is not empty: the line less
    its LF or CRLF, its comment from `#` on, and spaces and tabs around the rest."""
    for lineno, line in enumerate(fh, start):
        line = line.removesuffix(b"\n").removesuffix(b"\r")
        if text := line.split(b"#", 1)[0].strip(b" \t"):
            yield lineno, text


def quoted(text: bytes) -> str:
    """A line's text for a message: its first 80 bytes as ascii() quotes
    their Latin-1, then `...` if it is longer."""
    return ascii(text[:80].decode("latin-1")) + ("..." if len(text) > 80 else "")
