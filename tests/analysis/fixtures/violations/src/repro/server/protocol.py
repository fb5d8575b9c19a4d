"""Seeded WIRE-PARITY violation: the encoder grew a field the client
decoder never learned to read."""

_PROFILE_FIELDS = {"v", "source", "num_threads", "targets"}


def encode_profile(result) -> dict:
    return {
        "v": 1,
        "kind": "profile",
        "source": result.source,
        "profiles": result.profiles,
        "stats": result.stats,  # WIRE-PARITY: decoder ignores this
    }
