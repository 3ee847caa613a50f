"""Bounds-checked reading of a binary file, shared by the scene and checkpoint loaders."""

from __future__ import annotations

import struct


class Reader:
    """Reads a file's bytes front to back. A read past the end, or text that is not
    UTF-8, raises `error`, the format's own exception class. Slices are memoryviews
    of the data, so an array payload is not copied before the caller converts it."""

    def __init__(self, data: bytes, error: type[Exception]):
        self.view = memoryview(data)
        self.error = error
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if n > len(self.view) - self.pos:
            raise self.error(f"truncated file: {n} bytes needed at byte {self.pos}")
        self.pos += n
        return self.view[self.pos - n : self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int) -> str:
        try:
            return self.take(n).tobytes().decode()
        except UnicodeDecodeError as exc:
            raise self.error(f"text at byte {self.pos - n} is not UTF-8") from exc

    def header(self, magic: bytes, version: int):
        """Check the magic bytes and the u16 format version that follows them."""
        if self.view[: len(magic)] != magic:
            raise self.error("bad magic")
        self.pos = len(magic)
        (found,) = self.unpack("<H")
        if found != version:
            raise self.error(f"unsupported version {found}")

    def rest(self) -> memoryview:
        return self.take(len(self.view) - self.pos)
