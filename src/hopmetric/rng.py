"""Deterministic named PRNG substreams from a single 64-bit seed."""
from __future__ import annotations

import hashlib
import random

from .graph_core import as_integer


def substream(seed: int, name: str) -> random.Random:
    """Independent replayable stream keyed by (seed, name); a seed that is
    not an integer is an error that names it."""
    if type(seed) is not int:
        seed = as_integer(seed, "seed")
    digest = hashlib.sha256(f"{seed & 0xFFFFFFFFFFFFFFFF}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))
