"""The baseline the paper's Table 1 compares SPCS against (§5.1).

* :mod:`repro.baselines.label_correcting` — the label-correcting
  profile search (LC): propagates whole travel-time functions, loses
  the label-setting property, serves as Table 1's comparator.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.baselines.label_correcting": (
            "LabelCorrectingResult",
            "label_correcting_profile",
        ),
    },
)

__all__ = [
    "LabelCorrectingResult",
    "label_correcting_profile",
]
