"""WIRE-PARITY near-miss: encoder and decoder agree exactly, modulo
the declared envelope keys (``v``/``kind``)."""

_PROFILE_FIELDS = {"v", "source", "num_threads", "targets"}


def encode_profile(result) -> dict:
    return {
        "v": 1,
        "kind": "profile",
        "source": result.source,
        "profiles": result.profiles,
        "stats": result.stats,
    }
