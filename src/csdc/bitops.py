"""Bit-string combinatorics: Gray codes, subset transforms and bit permutations.

Bit positions increase from right to left: bit 0 is the least significant bit
of a state index.  A :class:`BitPermutation` relabels bit *positions*; its
:meth:`~BitPermutation.move_bits` moves the bits of every entry of an
integer array, one array pass per bit.  On the 2**nb state indices that is
the induced permutation :meth:`~BitPermutation.state_map`, which
:func:`apply_bit_permutation` indexes with; on a program's control masks
and values it is :func:`~csdc.seo.rename_bits`.

The three subset transforms over the 2**k bit strings, Walsh-Hadamard, zeta
(subset sums) and Möbius (its inverse), are Kronecker powers of a 2x2 factor,
and :func:`kron_transform` applies all of them: emission, the simulator and
the dense :func:`sylvester_hadamard` and :func:`basis_change_matrix` go
through it.  :func:`hadamard_transform` keeps a butterfly as the exact
reference, and nothing on the compile or verify path calls it.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .matrices import as_matrix


@functools.cache
def gray_codes(n: int) -> np.ndarray:
    """:func:`gray_sequence` as a read-only int64 array, built once per n."""
    if n < 0:
        raise ValueError("gray_codes requires n >= 0")
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


# Each transform is a Kronecker power of one of these 2x2 factors, applied as
# one small matrix product per chunk of up to _CHUNK_BITS bits: at the sizes
# transformed that is several times faster than a butterfly pass per bit.
_FACTORS = {"walsh": [[1.0, 1.0], [1.0, -1.0]],
            "zeta": [[1.0, 1.0], [0.0, 1.0]],     # row m, column d: m subset of d
            "mobius": [[1.0, -1.0], [0.0, 1.0]]}  # the inverse of zeta
_CHUNK_BITS = 6


@functools.cache
def _kron_power(name: str, c: int) -> np.ndarray:
    out = np.ones((1, 1))
    for _ in range(c):
        out = np.kron(out, _FACTORS[name])
    out.flags.writeable = False
    return out


def kron_transform(a, name: str) -> np.ndarray:
    """a @ factor**(⊗k) along the last axis of a, of length 2**k, for the
    factor ``name``:

      walsh   (-1)**|m & d|: the Walsh-Hadamard transform;
      zeta    1 if m is a subset of d: the subset sums;
      mobius  (-1)**|d - m| if m is a subset of d: the inverse of zeta.

    One small matrix product per chunk of bits: each product acts on the
    lowest bits, and the transpose after it rotates them to the top.  A new
    array, except for length 1, which is returned as it is.
    """
    a = np.asarray(a)
    lead, n = a.shape[:-1], a.shape[-1]
    k = n.bit_length() - 1
    while k > 0:
        c = min(_CHUNK_BITS, k)
        a = (a.reshape(lead + (n >> c, 1 << c)) @ _kron_power(name, c)).swapaxes(-1, -2)
        k -= c
    return a.reshape(lead + (n,))


def hadamard_transform(v) -> np.ndarray:
    """Apply the 2**n Sylvester-Hadamard matrix to v with the butterfly recursion.

    O(n 2**n), one array pass per bit; exact integer arithmetic when the input
    is an integer array.  Applying it twice scales the input by 2**n.  This is
    the exact reference for :func:`kron_transform`'s ``walsh``, which every
    compile and verify path uses instead.
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
    return kron_transform(np.eye(1 << nb), "walsh").astype(np.complex128)


def popcount(a) -> np.ndarray:
    """Number of set bits, elementwise, for non-negative integer arrays (int64)."""
    return np.bitwise_count(a).astype(np.int64)


@dataclass(frozen=True)
class BitPermutation:
    """A bijection on bit positions {0..nb-1}; mapping[b] is where bit b goes.
    Any integer sequence is stored as a tuple of ints, so the value hashes."""

    nb: int
    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = tuple(operator.index(b) for b in self.mapping)
        if sorted(mapping) != list(range(self.nb)):
            raise ValueError(f"mapping {mapping} is not a bijection on 0..{self.nb - 1}")
        object.__setattr__(self, "mapping", mapping)

    def __call__(self, bit: int) -> int:
        return self.mapping[bit]

    def inverse(self) -> "BitPermutation":
        inv = [0] * self.nb
        for b, dest in enumerate(self.mapping):
            inv[dest] = b
        return BitPermutation(self.nb, tuple(inv))

    def move_bits(self, x) -> np.ndarray:
        """The integer array x with each bit b of every entry moved to
        mapping[b], one array pass per bit; bits from nb up are dropped."""
        x = np.asarray(x, dtype=np.int64)
        out = np.zeros_like(x)
        for b, dest in enumerate(self.mapping):
            out |= (x >> b & 1) << dest
        return out

    def state_map(self) -> np.ndarray:
        """Entry s is the state index s with each bit b moved to mapping[b]."""
        return self.move_bits(np.arange(1 << self.nb))


def bit_reversal_permutation(nb: int) -> BitPermutation:
    """Bit position b goes to nb-1-b."""
    if nb < 1:
        raise ValueError("bit_reversal_permutation requires nb >= 1")
    return BitPermutation(nb, tuple(nb - 1 - b for b in range(nb)))


def apply_bit_permutation(p: BitPermutation, m) -> np.ndarray:
    """Conjugate a 2**nb matrix by the state permutation induced by p: G m G†.

    Equivalent to relabeling every tensor factor's bit position through p, so
    a gate acting on bit b turns into the same gate acting on p(b).
    """
    a = as_matrix(m)
    n = 1 << p.nb
    if a.shape != (n, n):
        raise ValueError(f"matrix shape {a.shape} does not match nb={p.nb}")
    targets = p.state_map()
    out = np.empty_like(a)
    out[np.ix_(targets, targets)] = a
    return out


def basis_change_matrix(kind: str, nb: int) -> np.ndarray:
    """Basis-change matrices between products of projectors and two other bases
    of the diagonal-matrix space.

    ``projector-to-sigma-z``: expresses n̄/n products over products of {1, σz};
    equals the Sylvester-Hadamard matrix divided by 2**nb, with inverse H_nb.
    ``projector-to-number``: expresses n̄/n products over products of {1, n};
    entry (a, b) = (-1)**popcount(a XOR b) if a&b == a else 0, the Möbius
    factor's Kronecker power, with inverse the nb-fold tensor power of
    [[1, 1], [0, 1]] (zeta's).
    """
    if nb < 1:
        raise ValueError("basis_change_matrix requires nb >= 1")
    if kind == "projector-to-sigma-z":
        return sylvester_hadamard(nb) / (1 << nb)
    if kind == "projector-to-number":
        return kron_transform(np.eye(1 << nb), "mobius").astype(np.complex128)
    raise ValueError(f"unknown basis change kind: {kind!r}")
