"""Independent checks on compiled SEO text.

The interpreter here applies every instruction as a Kronecker product of 2x2
factors and control projectors, one factor per bit, straight from the SEO
file format.  It shares no code with the package's own simulator
(``csdc.seo``), so agreement between the two is evidence that both are right.
It reads SEO text rather than ``Program`` objects, because the text format is
the one interface that refactors of the instruction model must keep.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

I2 = np.eye(2, dtype=complex)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _apply_factor(block: np.ndarray, bit: int, m: np.ndarray) -> np.ndarray:
    """(I ⊗ m ⊗ I) @ block, with m acting on ``bit`` (bit 0 least significant)."""
    rows, cols = block.shape
    v = block.reshape(rows >> (bit + 1), 2, (1 << bit) * cols)
    return np.matmul(m, v).reshape(rows, cols)


def _single(kind: str, angle: float) -> np.ndarray:
    rad = np.radians(angle)
    if kind == "ROTY":  # exp(i rad sigma_y)
        return np.array([[np.cos(rad), np.sin(rad)], [-np.sin(rad), np.cos(rad)]],
                        dtype=complex)
    return np.diag([np.exp(1j * rad), np.exp(-1j * rad)])  # ROTZ


def apply_line(line: str, block: np.ndarray) -> np.ndarray:
    """Apply one SEO line to the columns of ``block`` (rows index the state).

    A controlled gate is I + (⊗ control projectors) ⊗ (V - I) on the target,
    and each Kronecker factor is applied to the block on its own bit.
    """
    tok = line.split()
    kind = tok[0]
    if kind in ("ROTY", "ROTZ"):
        return _apply_factor(block, int(tok[1]), _single(kind, float(tok[2])))
    if kind == "SIGX":
        return _apply_factor(block, int(tok[1]), SIGMA_X)
    if kind == "PHAS":
        return np.exp(1j * np.radians(float(tok[1]))) * block
    pairs = tok[1:-1]
    term = block
    for i in range(0, len(pairs), 2):
        term = _apply_factor(term, int(pairs[i]), P1 if pairs[i + 1] == "T" else P0)
    if kind == "CNOT":
        return block + _apply_factor(term, int(tok[-1]), SIGMA_X - I2)
    if kind == "CPHA":
        return block + (np.exp(1j * np.radians(float(tok[-1]))) - 1) * term
    raise ValueError(f"unknown SEO keyword {kind!r}")


def apply_text(text: str, block: np.ndarray) -> np.ndarray:
    """Apply an SEO program to the columns of ``block``: first line acts first."""
    out = np.array(block, dtype=complex)
    for line in text.splitlines():
        if line.strip():
            out = apply_line(line, out)
    return out


def gate_stats(text: str) -> tuple[Counter, int]:
    """Per-kind instruction counts and the count touching exactly two bits."""
    kinds: Counter = Counter()
    two = 0
    for line in text.splitlines():
        tok = line.split()
        if not tok:
            continue
        kinds[tok[0]] += 1
        if tok[0] == "CNOT":
            bits = (len(tok) - 2) // 2 + 1
        elif tok[0] == "CPHA":
            bits = (len(tok) - 2) // 2
        else:
            bits = 1 if tok[0] in ("ROTY", "ROTZ", "SIGX") else 0
        two += bits == 2
    return kinds, two


def cpha_angles(text: str) -> list[float]:
    return sorted(float(line.split()[-1]) for line in text.splitlines()
                  if line.startswith("CPHA"))
