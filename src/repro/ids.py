"""The process-wide id allocators.

Every simulated id that is not owned by one object — inode numbers,
image, mount, namespace, container and SIF ids, registry token serials,
signing key serials and k8s uids — is drawn from a field of :data:`ids`
(``next(ids.inode)``).  Artifact digests and entity names are pure
functions of these draws, so the allocator positions are part of the
world state :class:`repro.shard.WorldState` captures and installs.
Keeping every allocator on one holder is what lets it do that without a
list of sites; a test fails on a module-level ``itertools.count``
anywhere else.

Per-instance counters (apiserver resource versions, Slurm job ids,
kernel pids, ``Environment`` sequence numbers) are born with their owner
inside each run and need no capture.
"""

import itertools


class Ids:
    """One ``itertools.count`` per id kind, each starting at 1."""

    __slots__ = ("inode", "image", "mount", "ns", "container", "sif", "token",
                 "key", "uid")

    def __init__(self) -> None:
        self.install(dict.fromkeys(self.__slots__, 1))

    def positions(self) -> dict[str, int]:
        """The next value of every allocator, read without consuming it."""
        out = {}
        for name in self.__slots__:
            out[name] = value = next(getattr(self, name))
            setattr(self, name, itertools.count(value))
        return out

    def install(self, positions: dict[str, int]) -> None:
        """Restart every allocator at ``positions[name]``."""
        for name in self.__slots__:
            setattr(self, name, itertools.count(positions[name]))


#: the allocators every id site draws from (never rebound)
ids = Ids()
