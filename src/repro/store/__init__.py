"""``repro.store`` — the mmap-able zero-copy index/graph store.

Layered so that importing the package stays cheap and cycle-free:

* :mod:`repro.store.format` (binary container) and
  :mod:`repro.store.compress` (varint/delta codecs) depend on numpy and
  the stdlib only and load eagerly, so the engine and the serve layer can
  import :class:`FormatError` without pulling in the index packages.
* :mod:`repro.store.index_store` and :mod:`repro.store.cache` pull in
  the index packages; they load lazily through module ``__getattr__`` on
  first attribute access.
"""

from __future__ import annotations

from .format import (
    ALIGNMENT,
    FORMAT_VERSION,
    MAGIC,
    FormatError,
    Section,
    Store,
    is_store_file,
    write_store,
)

__all__ = [
    "ALIGNMENT",
    "FORMAT_VERSION",
    "MAGIC",
    "FormatError",
    "Section",
    "Store",
    "is_store_file",
    "write_store",
    # lazy (module __getattr__):
    "save_index",
    "open_index",
    "save_graph",
    "open_graph",
    "STORE_SUFFIX",
    "IndexStore",
]

_LAZY = {
    "save_index": "index_store",
    "open_index": "index_store",
    "save_graph": "index_store",
    "open_graph": "index_store",
    "STORE_SUFFIX": "index_store",
    "IndexStore": "cache",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
