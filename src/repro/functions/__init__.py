"""Piecewise-linear travel-time functions (paper §2) and profile algebra.

Travel-time functions in public transportation networks are piecewise
linear of a special form: each is represented by a set of
*connection points* ``(τ_f, w_f)`` with

    f(τ) = Δ(τ, τ_f) + w_f   for the point minimizing Δ(τ, τ_f).

This package provides the edge travel-time functions, profile functions
(``dist(S, T, ·)``), the connection-reduction dominance scan of §3.1,
and the pointwise algebra the label-correcting baseline uses.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.functions.piecewise": ("INF_TIME", "TravelTimeFunction"),
        "repro.functions.reduction": (
            "reduce_connection_points",
            "reduction_mask",
        ),
        "repro.functions.algebra": ("Profile",),
    },
)

__all__ = [
    "INF_TIME",
    "TravelTimeFunction",
    "reduce_connection_points",
    "reduction_mask",
    "Profile",
]
