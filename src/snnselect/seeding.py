"""Hash-derived seeds and the counter-based (Philox) generator they key.

Every random stream (simulated draws, bootstrap resamples) is keyed by a seed
hashed from its coordinates, so no stream depends on scheduling or on another.
"""
from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "generator"]


def derive_seed(base_seed: int, label: str, rep: int) -> int:
    """64-bit replication seed from a SHA-256 mix; never sequential reuse."""
    digest = hashlib.sha256(f"{base_seed}|{label}|{rep}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed & 0xFFFFFFFFFFFFFFFF)))
