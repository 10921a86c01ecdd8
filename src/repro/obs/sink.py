"""The state exchange every process-wide sink shares."""


class Sink:
    """Mixin for a process-wide sink: a ``__slots__`` class whose
    constructor builds it blank and disabled."""

    __slots__ = ()

    def swap(self, state: dict | None = None) -> dict:
        """Exchange this sink's complete state for ``state`` — or for a
        blank, disabled one — and return the old state.

        The object keeps its identity (many modules alias it); only its
        fields move.  The state covers every slot, ``enabled`` included,
        so a field added later is saved and restored with the rest.
        """
        old = {name: getattr(self, name) for name in self.__slots__}
        self.__init__()
        for name, value in (state or {}).items():
            setattr(self, name, value)
        return old
