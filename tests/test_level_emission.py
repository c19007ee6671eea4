"""Level-by-level emission against the node-by-node emission it replaced.

``program_for_tree`` emits each tree level in one pass and puts the
instructions in application order with one sort by key.  The oracle below
is the node-by-node path it replaced, kept here as a test: a recursive walk
of the tree (right subtree, node, left subtree), one ``decompose_central``
per central joined by ``concat``, and, for a program bound for
``expand_controls``, the phase carry that emits each ROTZ multiplexor and
each diagonal as soon as it decides it.  Both must give the same SEO text.
"""
import itertools

import numpy as np
import pytest

from csdc import (CompileOptions, assemble, build_tree, direct_sum, expand_controls,
                  hadamard_input, pad_to_power_of_two, serialize)
from csdc.bitops import bit_reversal_permutation, state_permutation
from csdc.central import (cheaper_mode, decompose_central, decompose_diagonal,
                          diagonal_central, diagonal_costs, multiplexors, real_d_central,
                          split_on_bit)
from csdc.compiler import program_for_tree
from csdc.reference import dft_matrix
from csdc.seo import PRUNE_TOL, ROTZ, concat

from conftest import random_unitary


def walk(node):
    """The centrals of a tree in application order, by recursion."""
    out = walk(node.right) if node.right else []
    out.append(node.central)
    return out + (walk(node.left) if node.left else [])


def complex_d_pieces(c):
    """A complex D central as (right phases, real core, left phases) in
    application order, each diagonal as 2**nb phases."""
    nb, f = c.nb, c.factors
    rot = nb - c.level
    states = np.arange(1 << nb)
    blk, hi, j = states >> (rot + 1), (states >> rot) & 1, states & ((1 << rot) - 1)
    core = real_d_central(nb, c.level, f.thetas.reshape(-1))
    return f.omega[blk, j] + hi * f.omega_r[blk, j], core, hi * f.omega_l[blk, j]


def one_by_one(c, extract_phases):
    """The program of one central; a complex D one as its three pieces."""
    if c.variant != "complexD":
        return decompose_central(c, extract_phases)
    right, core, left = complex_d_pieces(c)
    return concat(decompose_central(diagonal_central(c.nb, right), extract_phases),
                  decompose_central(core, extract_phases),
                  decompose_central(diagonal_central(c.nb, left), extract_phases))


def carried(centrals, extract_phases, branches=None):
    """The programs of ``centrals`` for a program bound for expand_controls,
    one pending phase vector carried through their cores, each piece
    emitted on its own as soon as it is decided; the branch taken at each
    core is added to ``branches``."""
    branches = set() if branches is None else branches
    nb = centrals[0].nb
    pending = np.zeros(1 << nb)
    out = []
    for c in centrals:
        if c.variant == "diagonal":
            pending = pending + c.phases
            continue
        right = left = 0.0
        if c.variant == "complexD":
            right, c, left = complex_d_pieces(c)
        pending = pending + right
        alpha, beta = split_on_bit(pending, nb - c.level)
        if np.abs(beta).max() <= PRUNE_TOL:
            branches.add("carry")
        else:
            costs = diagonal_costs(pending)
            branches.add("split" if costs[0] < costs[1] else "flush")
            if costs[0] < costs[1]:
                out.append(multiplexors(nb, c.level, ROTZ, beta[None])[0])
                pending = alpha
            else:
                out.append(decompose_diagonal(diagonal_central(nb, pending),
                                              cheaper_mode(costs, extract_phases)))
                pending = np.zeros(1 << nb)
        out.append(decompose_central(c, extract_phases))
        pending = pending + left
    mode = cheaper_mode(diagonal_costs(pending), extract_phases)
    return out + [decompose_diagonal(diagonal_central(nb, pending), mode)]


def node_by_node(root, opts):
    centrals = walk(root)
    if not opts.expand_controls:
        return concat(*(one_by_one(c, opts.extract_phases) for c in centrals))
    return expand_controls(concat(*carried(centrals, opts.extract_phases)))


def _corpus():
    rng = np.random.default_rng(20261019)
    out = {f"haar-n{nb}": random_unitary(rng, 1 << nb) for nb in range(1, 8)}
    for nb in range(2, 7):
        out[f"hadamard-n{nb}"] = hadamard_input(nb)
        out[f"qft-n{nb}"] = state_permutation(bit_reversal_permutation(nb)) @ dft_matrix(nb)
        out[f"dft-n{nb}"] = dft_matrix(nb)
    for nb in range(3, 6):
        n = 1 << nb
        out[f"uxi-n{nb}"] = np.kron(random_unitary(rng, 4), np.eye(n // 4))
        out[f"ixu-n{nb}"] = np.kron(np.eye(n // 4), random_unitary(rng, 4))
        out[f"permutation-n{nb}"] = np.eye(n)[:, rng.permutation(n)]
        out[f"diagonal-n{nb}"] = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, n)))
        out[f"controlled-u-n{nb}"] = direct_sum([np.eye(n // 2), random_unitary(rng, n // 2)])
    for dim in (3, 5, 24):
        out[f"dim{dim}"] = pad_to_power_of_two(random_unitary(rng, dim))[0]
    return out


CORPUS = _corpus()
OPTIONS = [CompileOptions(lighten=lighten, extract_phases=phases, expand_controls=expand)
           for lighten, phases, expand in itertools.product((True, False), repeat=3)]


def payload(c):
    """A central's variant, level and parameters, comparable with ==."""
    arrays = (c.angles, c.phases) if c.factors is None else (
        c.factors.omega, c.factors.omega_l, c.factors.omega_r, c.factors.thetas)
    return c.variant, c.level, [a.tolist() for a in arrays if a is not None]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_same_text_as_node_by_node(name):
    for opts in OPTIONS:
        root = build_tree(CORPUS[name], opts)
        assert serialize(program_for_tree(root, opts)) == serialize(node_by_node(root, opts)), opts
        # the order of the keys is the order of the child links
        assert [payload(c) for c in assemble(root)] == [payload(c) for c in walk(root)]


def test_corpus_reaches_every_central_and_carry_branch():
    """Real D, complex D and diagonal centrals all occur in the corpus, and
    the carry takes each of its branches."""
    kinds, branches = set(), set()
    for u in (u for u in CORPUS.values() if len(u) <= 16):
        for opts in OPTIONS[::2]:
            centrals = walk(build_tree(u, opts))
            kinds |= {c.variant for c in centrals}
            carried(centrals, opts.extract_phases, branches)
    assert kinds == {"realD", "complexD", "diagonal"}
    assert branches == {"carry", "split", "flush"}
