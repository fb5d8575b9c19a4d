"""Decoder half of the WIRE-PARITY near-miss: reads exactly what the
encoder produces (envelope keys are the lint config's business)."""


def decode_profile(payload: dict) -> dict:
    return {
        "source": payload["source"],
        "profiles": payload["profiles"],
        "stats": payload.get("stats"),
    }
