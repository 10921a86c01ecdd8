"""Reference implementations the optimized engines are held equal to:
the straightforward, pre-optimization form of each hot path.  Production
never selects them; tests and the speedup benchmarks install one for a
``with`` block by rebinding the module-level name production looks up."""

import contextlib


@contextlib.contextmanager
def rebound(*bindings):
    """Set ``(module, name, value)`` attributes for the ``with`` block."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in bindings]
    for module, name, value in bindings:
        setattr(module, name, value)
    try:
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)
