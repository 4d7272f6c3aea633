"""Shared exception types, and the one reader of user input files."""

from __future__ import annotations

from pathlib import Path


class DataError(ValueError):
    """An input file or record violates the corpus contracts.

    The CLI maps this (and plain I/O failures) to exit status 2, as
    opposed to usage errors (status 1) and internal bugs.
    """


def read_utf8(path: str | Path) -> str:
    """The text of ``path`` as text-mode reading gives it, newlines translated.

    Bytes that are not UTF-8 are a :class:`DataError` naming the offset.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path}: not UTF-8 (byte 0x{data[exc.start]:02x} at offset "
            f"{exc.start}); every input file must be UTF-8"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")
