"""Client decoder half of the seeded WIRE-PARITY violation."""


def decode_profile(payload: dict) -> dict:
    return {
        "source": payload["source"],
        "profiles": payload["profiles"],
    }
