"""Persistent artifact store — prepare once *per dataset*, not per
process (ROADMAP: warm-start serving).

* :mod:`repro.store.store` — :func:`save_dataset` / :func:`load_dataset`
  over a versioned store directory (manifest + mmap'd numpy buffers +
  compact binary), :func:`config_hash`, :func:`describe_store`,
  :class:`StoreError`.
* :mod:`repro.store.codec` — the sectioned binary record format
  (:func:`write_record` / :func:`read_record`, :class:`CodecError`).

The usual entry points are :meth:`repro.TransitService.save` and
:meth:`repro.TransitService.load`; see ``docs/API.md`` ("Persistence
and warm starts").
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.store.codec": ("CodecError", "read_record", "write_record"),
        "repro.store.store": (
            "FORMAT_VERSION",
            "StoreError",
            "config_hash",
            "describe_store",
            "load_dataset",
            "prepare_config_hash",
            "save_dataset",
        ),
    },
)

__all__ = [
    "FORMAT_VERSION",
    "StoreError",
    "CodecError",
    "config_hash",
    "prepare_config_hash",
    "describe_store",
    "load_dataset",
    "save_dataset",
    "read_record",
    "write_record",
]
