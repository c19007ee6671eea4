"""Bit-string combinatorics: Gray codes, Walsh-Hadamard transforms and bit
permutations.

Bit positions increase from right to left: bit 0 is the least significant bit
of a state index.  A :class:`BitPermutation` relabels bit *positions*; the
induced permutation of the 2**nb state indices is materialized lazily via
:func:`state_permutation` / :func:`permute_states`.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .matrices import as_matrix


@functools.cache
def gray_codes(n: int) -> np.ndarray:
    """:func:`gray_sequence` as a read-only int64 array, built once per n."""
    if n < 0:
        raise ValueError("gray_sequence requires n >= 0")
    i = np.arange(1 << n)
    g = i ^ (i >> 1)
    out = np.zeros_like(g)
    for b in range(n):
        out |= ((g >> b) & 1) << (n - 1 - b)
    out.flags.writeable = False
    return out


def gray_sequence(n: int) -> list[int]:
    """Lazy ordering of the n-bit strings: consecutive entries differ in one bit.

    The sequence starts at 0 and, for n >= 1, ends on a string with a single
    nonzero bit, so a rotation ladder built over it closes with exactly one
    c-not; over 0 bits it is [0].  It is the reflected binary code read
    through a bit reversal.
    """
    return gray_codes(n).tolist()


def hadamard_transform(v) -> np.ndarray:
    """Apply the 2**n Sylvester-Hadamard matrix to v with the butterfly recursion.

    O(n 2**n), one array pass per bit; exact integer arithmetic when the input
    is an integer array.  Applying it twice scales the input by 2**n.
    """
    a = np.asarray(v)
    if a.ndim != 1:
        raise ValueError("hadamard_transform expects a 1-D vector")
    n = a.shape[0]
    if n == 0 or n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    out = a.astype(np.int64) if np.issubdtype(a.dtype, np.integer) else a.copy()
    h = 1
    while h < n:
        pairs = out.reshape(-1, 2, h)   # pairs[:, 0] and pairs[:, 1] are h apart
        x = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        pairs[:, 1] = x - pairs[:, 1]
        h *= 2
    return out


def sylvester_hadamard(nb: int) -> np.ndarray:
    """The 2**nb Sylvester-Hadamard matrix: entry (a, b) = (-1)**(a.b)."""
    if nb < 1:
        raise ValueError("sylvester_hadamard requires nb >= 1")
    idx = np.arange(1 << nb)
    dots = popcount(idx[:, None] & idx[None, :])
    return np.where(dots & 1, -1.0, 1.0).astype(np.complex128)


# Set bits of every byte value.
_BYTE_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


def popcount(a) -> np.ndarray:
    """Number of set bits, elementwise, for non-negative integer arrays (int64).

    One table lookup per byte, stopping once no bits are left.
    """
    shape = np.shape(a)
    x = np.array(a, dtype=np.uint64).reshape(-1)  # a copy: shifted in place below
    byte = x & np.uint64(0xFF)
    count = _BYTE_POPCOUNT[byte]
    x >>= np.uint64(8)
    while np.any(x):
        np.bitwise_and(x, np.uint64(0xFF), out=byte)
        count += _BYTE_POPCOUNT[byte]
        x >>= np.uint64(8)
    return count.astype(np.int64).reshape(shape)


@dataclass(frozen=True)
class BitPermutation:
    """A bijection on bit positions {0..nb-1}; mapping[b] is where bit b goes."""

    nb: int
    mapping: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.mapping) != list(range(self.nb)):
            raise ValueError(f"mapping {self.mapping} is not a bijection on 0..{self.nb - 1}")

    @classmethod
    def identity(cls, nb: int) -> "BitPermutation":
        return cls(nb, tuple(range(nb)))

    @classmethod
    def transposition(cls, nb: int, alpha: int, beta: int) -> "BitPermutation":
        m = list(range(nb))
        m[alpha], m[beta] = m[beta], m[alpha]
        return cls(nb, tuple(m))

    def __call__(self, bit: int) -> int:
        return self.mapping[bit]

    def inverse(self) -> "BitPermutation":
        inv = [0] * self.nb
        for b, dest in enumerate(self.mapping):
            inv[dest] = b
        return BitPermutation(self.nb, tuple(inv))

    def is_identity(self) -> bool:
        return all(self.mapping[b] == b for b in range(self.nb))

    def permute_index(self, state: int) -> int:
        """Move each bit of a state index to its destination position."""
        out = 0
        for b in range(self.nb):
            if state >> b & 1:
                out |= 1 << self.mapping[b]
        return out


def bit_reversal_permutation(nb: int) -> BitPermutation:
    """Bit position b goes to nb-1-b."""
    if nb < 1:
        raise ValueError("bit_reversal_permutation requires nb >= 1")
    return BitPermutation(nb, tuple(nb - 1 - b for b in range(nb)))


def state_permutation(p: BitPermutation) -> np.ndarray:
    """The 2**nb 0/1 matrix G with G|s> = |p(s)>."""
    n = 1 << p.nb
    targets = np.array([p.permute_index(s) for s in range(n)])
    out = np.zeros((n, n), dtype=np.complex128)
    out[targets, np.arange(n)] = 1.0
    return out


def apply_bit_permutation(p: BitPermutation, m) -> np.ndarray:
    """Conjugate a 2**nb matrix by the state permutation induced by p: G m G†.

    Equivalent to relabeling every tensor factor's bit position through p, so
    a gate acting on bit b turns into the same gate acting on p(b).
    """
    a = as_matrix(m)
    n = 1 << p.nb
    if a.shape != (n, n):
        raise ValueError(f"matrix shape {a.shape} does not match nb={p.nb}")
    targets = np.array([p.permute_index(s) for s in range(n)])
    out = np.empty_like(a)
    out[np.ix_(targets, targets)] = a
    return out


def basis_change_matrix(kind: str, nb: int) -> np.ndarray:
    """Basis-change matrices between products of projectors and two other bases
    of the diagonal-matrix space.

    ``projector-to-sigma-z``: expresses n̄/n products over products of {1, σz};
    equals the Sylvester-Hadamard matrix divided by 2**nb, with inverse H_nb.
    ``projector-to-number``: expresses n̄/n products over products of {1, n};
    entry (a, b) = (-1)**popcount(a XOR b) if a&b == a else 0, with inverse the
    nb-fold tensor power of [[1, 1], [0, 1]].
    """
    if nb < 1:
        raise ValueError("basis_change_matrix requires nb >= 1")
    if kind == "projector-to-sigma-z":
        return sylvester_hadamard(nb) / (1 << nb)
    if kind == "projector-to-number":
        idx = np.arange(1 << nb)
        a, b = idx[:, None], idx[None, :]
        subset = (a & b) == a
        signs = np.where(popcount(a ^ b) & 1, -1.0, 1.0)
        return np.where(subset, signs, 0.0).astype(np.complex128)
    raise ValueError(f"unknown basis change kind: {kind!r}")
