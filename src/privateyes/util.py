"""Seed derivation shared by every randomized component.

All randomness in a run is derived from one master seed plus string labels,
so two runs with the same configuration are bit-identical.
"""

from __future__ import annotations

import hashlib


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a master seed and a label path."""
    text = "/".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")

