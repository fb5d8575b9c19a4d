"""Seeded WIRE-PARITY request violation: the renderer sends a field
the server's allowed-field set would reject with a 400."""


def profile_body(source: int, num_threads: int, targets: list, via: int) -> dict:
    return {
        "source": source,
        "num_threads": num_threads,
        "targets": targets,
        "via": via,  # WIRE-PARITY: not in _PROFILE_FIELDS
    }
