"""The reference's generic ops and graph engine against central differences.

The generic ops (``add``, ``mul``, ``div``, ``reshape``, ``sum_``,
``concat``, ``gather_rows``) and the engine that sweeps their closures
left the library for ``tests/reference.py``, where the op-composed
oracles are built on them; they keep the checks they had in the gradient
battery: one case per op, broadcasting and fan-out included, and seeded
random chains of them, because op-by-op checks miss bugs in how
gradients accumulate through shared nodes.
"""

import numpy as np
import pytest

from modcap.gradcheck import check_case
from modcap.tensor import FLOAT64, Rng
from reference import Node, concat, gather_rows, node_objective, reshape, sum_


def _t(rng: Rng, shape, low=-1.0, high=1.0) -> np.ndarray:
    return rng.uniform_array(shape, low, high, dtype=FLOAT64)


def op_cases(seed: int):
    """(name, objective, input) triples: one per generic op."""
    rng = Rng(seed).derive(71)
    bias = Node(_t(rng, (3,)), dtype=FLOAT64)
    idx_rows, idx_swap = np.array([2, 0, 1]), np.array([1, 0])
    cases = [
        ("add_broadcast", lambda x: (x + bias).sum(), (2, 3)),
        ("mul_broadcast", lambda x: (x * bias).sum(), (2, 3)),
        ("div", lambda x: (x / Node(np.full((2, 3), 2.5), dtype=FLOAT64)).sum(), (2, 3)),
        ("reshape", lambda x: (x.reshape(6) * Node(np.arange(6.0), dtype=FLOAT64)).sum(),
         (2, 3)),
        ("sum_axis", lambda x: (sum_(x, axis=0) * bias).sum(), (4, 3)),
        ("sum_keepdims", lambda x: sum_(x, axis=1, keepdims=True).sum(), (4, 3)),
        ("concat", lambda x: concat([x, x * 2.0], axis=-1).sum(), (2, 3)),
        ("gather_rows", lambda x: (gather_rows(x, idx_rows) * bias).sum(), (4, 3)),
        ("fanout_gather", lambda x: (x * x + gather_rows(x, idx_swap) * x).sum(), (2, 3)),
    ]
    return [(name, node_objective(f), _t(rng, shape)) for name, f, shape in cases]


def _weights(rng: Rng, shape) -> Node:
    return Node(rng.uniform_array(shape, -0.7, 0.7, dtype=FLOAT64), dtype=FLOAT64)


# every op preserves the (3, 4) shape, so chains compose in any order
CHAIN_OPS = (
    ("leaky", lambda x, rng: x * Node(np.where(x.data >= 0, 1.0, 0.05))),
    ("permute", lambda x, rng: gather_rows(x, [2, 0, 1])),
    ("square", lambda x, rng: x * x),
    ("ratio", lambda x, rng: x / (x * x + 1.0)),
    ("colsum", lambda x, rng: x + sum_(x, axis=0, keepdims=True)),
    ("cross", lambda x, rng: x * gather_rows(x, [1, 2, 0])),
    ("bias", lambda x, rng: x + _weights(rng, (4,))),
    ("scale", lambda x, rng: x * _weights(rng, (4,))),
    ("interleave", lambda x, rng: gather_rows(concat([x, x * x], axis=0), [0, 4, 2])),
    ("pairs", lambda x, rng: reshape(reshape(x, (6, 2)) * _weights(rng, (2,)), (3, 4))),
)


def chain_cases(seed: int, count: int = 25):
    """Seeded random chains of 3 to 6 ops over a (3, 4) input."""
    chains = Rng(seed).derive(5000)
    cases = []
    for i in range(count):
        rng = chains.derive(2 * i)
        picked = [CHAIN_OPS[rng.randint(len(CHAIN_OPS))] for _ in range(3 + rng.randint(4))]
        weight_seed = chains.derive(2 * i + 1).get_state()[0]

        def chain(x, picked=picked, weight_seed=weight_seed):
            r = Rng(weight_seed)        # fresh per call, so chain is pure
            y = x
            for _, fn in picked:
                y = fn(y, r)
            return (y * y).sum()

        label = "-".join(name for name, _ in picked)
        cases.append((f"chain{i:02d}[{label}]", node_objective(chain), _t(rng, (3, 4))))
    return cases


@pytest.mark.parametrize("seed", [0, 1])
def test_every_generic_op_matches_central_differences(seed):
    results = [check_case("ops", name, f, x) for name, f, x in op_cases(seed)]
    assert len(results) == 9
    assert [r.name for r in results if not r.ok] == []


@pytest.mark.parametrize("seed", [0, 3])
def test_random_op_chains_match_central_differences(seed):
    results = [check_case("chains", name, f, x) for name, f, x in chain_cases(seed)]
    assert len(results) == 25
    assert [(r.name, r.error) for r in results if not r.ok] == []


def test_a_wrong_op_gradient_fails_its_case(monkeypatch):
    # a 1% error in the gather's backward fails the cases that gather
    import reference
    real = reference._accum

    def off(node, g):
        real(node, g * 1.01 if g.shape == (4, 3) else g)

    monkeypatch.setattr(reference, "_accum", off)
    failed = {name for name, f, x in op_cases(0) if not check_case("ops", name, f, x).ok}
    assert {"gather_rows", "sum_axis", "sum_keepdims"} <= failed
