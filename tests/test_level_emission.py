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

from csdc import (CompileOptions, assemble, build_tree, decompose_central, direct_sum,
                  expand_controls, hadamard_input, pad_to_power_of_two, serialize)
from csdc.bitops import bit_reversal_permutation, state_permutation
from csdc.central import (_default_mode, cheaper_mode, decompose_diagonals, diagonal_costs,
                          multiplexors, split_on_bit)
from csdc.compiler import program_for_tree
from csdc.reference import dft_matrix
from csdc.seo import PRUNE_TOL, ROTY, ROTZ, concat

from conftest import random_unitary


def walk(node):
    """The nodes of a tree in application order, by recursion."""
    out = walk(node.right) if node.right else []
    out.append(node)
    return out + (walk(node.left) if node.left else [])


def variant(node):
    """What a node's level row holds: a diagonal, a complex or a real D."""
    lv = node.levels[node.level - 1]
    return ("diagonal" if lv.phases is not None
            else "complexD" if lv.phased[node.index] else "realD")


def complex_d_pieces(node):
    """A complex D node as (right phases, program of its real core, left
    phases) in application order, each diagonal as 2**nb phases."""
    nb, level, lv = node.nb, node.level, node.levels[node.level - 1]
    f = lv.factors.map(lambda x: x[node.index].reshape(1 << (level - 1), -1))
    rot = nb - level
    states = np.arange(1 << nb)
    blk, hi, j = states >> (rot + 1), (states >> rot) & 1, states & ((1 << rot) - 1)
    core = multiplexors(nb, level, ROTY, f.thetas.reshape(1, -1))[0]
    return f.omega[blk, j] + hi * f.omega_r[blk, j], core, hi * f.omega_l[blk, j]


def one_by_one(node, extract_phases):
    """The program of one central; a complex D one as its three pieces."""
    if variant(node) != "complexD":
        return decompose_central(node, extract_phases)
    right, core, left = complex_d_pieces(node)
    mode = _default_mode(extract_phases)
    return concat(decompose_diagonals(right[None], mode)[0], core,
                  decompose_diagonals(left[None], mode)[0])


def carried(nodes, extract_phases, branches=None):
    """The programs of the centrals of ``nodes`` for a program bound for
    expand_controls, one pending phase vector carried through their cores,
    each piece emitted on its own as soon as it is decided; the branch taken
    at each core is added to ``branches``."""
    branches = set() if branches is None else branches
    nb = nodes[0].nb
    pending = np.zeros(1 << nb)
    out = []
    for node in nodes:
        kind = variant(node)
        if kind == "diagonal":
            pending = pending + node.levels[node.level - 1].phases[node.index]
            continue
        right = left = 0.0
        if kind == "complexD":
            right, core, left = complex_d_pieces(node)
        else:
            core = decompose_central(node, extract_phases)
        pending = pending + right
        alpha, beta = split_on_bit(pending, nb - node.level)
        if np.abs(beta).max() <= PRUNE_TOL:
            branches.add("carry")
        else:
            costs = diagonal_costs(pending)
            branches.add("split" if costs[0] < costs[1] else "flush")
            if costs[0] < costs[1]:
                out.append(multiplexors(nb, node.level, ROTZ, beta[None])[0])
                pending = alpha
            else:
                out.append(decompose_diagonals(pending[None],
                                               cheaper_mode(costs, extract_phases))[0])
                pending = np.zeros(1 << nb)
        out.append(core)
        pending = pending + left
    mode = cheaper_mode(diagonal_costs(pending), extract_phases)
    return out + [decompose_diagonals(pending[None], mode)[0]]


def node_by_node(root, opts):
    nodes = walk(root)
    if not opts.expand_controls:
        return concat(*(one_by_one(node, opts.extract_phases) for node in nodes))
    return expand_controls(concat(*carried(nodes, opts.extract_phases)))


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


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_same_text_as_node_by_node(name):
    for opts in OPTIONS:
        root = build_tree(CORPUS[name], opts)
        assert serialize(program_for_tree(root, opts)) == serialize(node_by_node(root, opts)), opts
        # the order of the keys is the order of the child links
        assert [(n.level, n.index) for n in assemble(root)] == \
            [(n.level, n.index) for n in walk(root)]


def test_corpus_reaches_every_central_and_carry_branch():
    """Real D, complex D and diagonal centrals all occur in the corpus, and
    the carry takes each of its branches."""
    kinds, branches = set(), set()
    for u in (u for u in CORPUS.values() if len(u) <= 16):
        for opts in OPTIONS[::2]:
            nodes = walk(build_tree(u, opts))
            kinds |= {variant(node) for node in nodes}
            carried(nodes, opts.extract_phases, branches)
    assert kinds == {"realD", "complexD", "diagonal"}
    assert branches == {"carry", "split", "flush"}
