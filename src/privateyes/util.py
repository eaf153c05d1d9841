"""Seed derivation shared by every randomized component.

All randomness in a run is derived from one master seed plus string labels,
so two runs with the same configuration are bit-identical.
"""

from __future__ import annotations

import hashlib


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a master seed and a label path."""
    return derive_seeds(parts[:-1], parts[-1:])[0]


def derive_seeds(parts: tuple, last) -> list:
    """[derive_seed(*parts, x) for x in last], with the shared prefix built once."""
    head = "".join(f"{p}/" for p in parts).encode("utf-8")
    return [int.from_bytes(hashlib.sha256(head + str(x).encode("utf-8")).digest()[:8], "little")
            for x in last]
