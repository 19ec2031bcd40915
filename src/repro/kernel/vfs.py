"""In-memory filesystem of the simulated kernel."""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.errors import KernelError
from repro.kernel.uapi import (
    EBADF,
    EEXIST,
    EISDIR,
    ENOENT,
    O_APPEND,
    O_CREAT,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
)


class Inode:
    """Base class of filesystem objects."""

    kind = "file"

    def __init__(self, name: str) -> None:
        self.name = name

    def size(self) -> int:
        return 0

    def read_at(self, offset: int, size: int) -> bytes:
        raise NotImplementedError

    def write_at(self, offset: int, data: bytes) -> int:
        raise NotImplementedError


class RegularFile(Inode):
    """A plain file backed by a bytearray."""

    def __init__(self, name: str, data: bytes = b"") -> None:
        super().__init__(name)
        self.data = bytearray(data)

    def size(self) -> int:
        return len(self.data)

    def read_at(self, offset: int, size: int) -> bytes:
        return bytes(self.data[offset:offset + size])

    def write_at(self, offset: int, data: bytes) -> int:
        end = offset + len(data)
        if end > len(self.data):
            self.data.extend(b"\0" * (end - len(self.data)))
        self.data[offset:end] = data
        return len(data)


class Directory(Inode):
    kind = "dir"

    def read_at(self, offset: int, size: int) -> bytes:
        raise KernelError("read from directory")

    def write_at(self, offset: int, data: bytes) -> int:
        raise KernelError("write to directory")


class DevNull(Inode):
    """Reads return EOF; writes are discarded — the paper's favourite."""

    kind = "chardev"

    def read_at(self, offset: int, size: int) -> bytes:
        return b""

    def write_at(self, offset: int, data: bytes) -> int:
        return len(data)


class DevZero(Inode):
    kind = "chardev"

    def read_at(self, offset: int, size: int) -> bytes:
        return b"\0" * size

    def write_at(self, offset: int, data: bytes) -> int:
        return len(data)


class DevURandom(Inode):
    """Deterministic entropy: seeded per machine, stable across runs."""

    kind = "chardev"

    def __init__(self, name: str, seed: int = 0) -> None:
        super().__init__(name)
        self._rng = random.Random(seed)

    def read_at(self, offset: int, size: int) -> bytes:
        return bytes(self._rng.getrandbits(8) for _ in range(size))

    def write_at(self, offset: int, data: bytes) -> int:
        return len(data)


class Filesystem:
    """A flat-path in-memory filesystem (one per machine)."""

    def __init__(self, urandom_seed: int = 0) -> None:
        self._nodes: Dict[str, Inode] = {}
        self.mkdir("/")
        self.mkdir("/dev")
        self.mkdir("/tmp")
        self.mkdir("/var")
        self.mkdir("/var/www")
        self._nodes["/dev/null"] = DevNull("/dev/null")
        self._nodes["/dev/zero"] = DevZero("/dev/zero")
        self._nodes["/dev/urandom"] = DevURandom("/dev/urandom",
                                                 seed=urandom_seed)

    # -- namespace ------------------------------------------------------

    @staticmethod
    def _norm(path: str) -> str:
        if not path.startswith("/"):
            path = "/" + path
        while "//" in path:
            path = path.replace("//", "/")
        return path.rstrip("/") or "/"

    def lookup(self, path: str) -> Optional[Inode]:
        return self._nodes.get(self._norm(path))

    def mkdir(self, path: str) -> Directory:
        path = self._norm(path)
        node = Directory(path)
        self._nodes[path] = node
        return node

    def create(self, path: str, data: bytes = b"") -> RegularFile:
        path = self._norm(path)
        node = RegularFile(path, data)
        self._nodes[path] = node
        return node

    # -- open-file plumbing ----------------------------------------------

    def open(self, path: str, flags: int) -> "FileDesc | int":
        """Returns a FileDesc or a negative errno."""
        path = self._norm(path)
        node = self._nodes.get(path)
        if node is None:
            if not flags & O_CREAT:
                return -ENOENT
            node = self.create(path)
        elif flags & O_CREAT and flags & 0o200000:  # O_EXCL analogue
            return -EEXIST
        if node.kind == "dir" and flags & (O_WRONLY | O_RDWR):
            return -EISDIR
        if flags & O_TRUNC and isinstance(node, RegularFile):
            node.data.clear()
        return FileDesc(node, flags)


class FileDescription:
    """Base of everything a descriptor can point at.

    Duplicated descriptors (``dup``, fd transfer over a data channel)
    share one description object, so offsets and socket state are shared
    exactly as in Linux.
    """

    kind = "file"

    def __init__(self) -> None:
        self.refcount = 1
        self.cloexec = False

    def incref(self) -> "FileDescription":
        self.refcount += 1
        return self

    def decref(self) -> None:
        self.refcount -= 1
        if self.refcount == 0:
            self.on_last_close()

    def on_last_close(self) -> None:
        """Subclass hook for releasing underlying resources."""

    # epoll interface
    def poll_mask(self) -> int:
        return 0


class FileDesc(FileDescription):
    """An open regular file / device / directory."""

    def __init__(self, inode: Inode, flags: int) -> None:
        super().__init__()
        self.inode = inode
        self.flags = flags
        self.offset = 0

    def can_read(self) -> bool:
        return (self.flags & 0o3) in (O_RDONLY, O_RDWR)

    def can_write(self) -> bool:
        return (self.flags & 0o3) in (O_WRONLY, O_RDWR)

    def read(self, size: int) -> bytes:
        if not self.can_read():
            return b""
        data = self.inode.read_at(self.offset, size)
        self.offset += len(data)
        return data

    def write(self, data: bytes) -> int:
        if not self.can_write():
            return -EBADF
        if self.flags & O_APPEND:
            self.offset = self.inode.size()
        written = self.inode.write_at(self.offset, data)
        self.offset += written
        return written

    def poll_mask(self) -> int:
        from repro.kernel.uapi import EPOLLIN, EPOLLOUT

        return EPOLLIN | EPOLLOUT  # regular files are always ready
