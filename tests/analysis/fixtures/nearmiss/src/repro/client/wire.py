"""WIRE-PARITY request near-miss: a renderer that produces a strict
*subset* of the allowed fields is fine (optional fields may be
omitted)."""


def profile_body(source: int, num_threads: int) -> dict:
    return {
        "source": source,
        "num_threads": num_threads,
    }
