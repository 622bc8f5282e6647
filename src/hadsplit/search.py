"""Exact maximum clique via branch and bound with greedy coloring."""

from __future__ import annotations

import numpy as np

__all__ = ["max_clique"]


def _bitmasks(rows: np.ndarray) -> list[int]:
    """Per-vertex neighbor bitmasks for max_clique from a boolean matrix:
    bit j of mask i is set where rows[i, j] holds."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def max_clique(neighbors: list[int]) -> tuple[int, list[int]]:
    """Maximum clique of a graph given as per-vertex neighbor bitmasks.

    Returns (size, sorted vertex list). Exact; intended for graphs with at
    most a few hundred vertices.
    """
    n = len(neighbors)
    if n == 0:
        return 0, []
    for v, mask in enumerate(neighbors):
        if mask >> n:
            raise ValueError("neighbor mask out of range")
        if (mask >> v) & 1:
            raise ValueError("self-loop")

    best_size = 0
    best: list[int] = []

    def color_order(cand: int) -> list[tuple[int, int]]:
        # greedy coloring; returns (vertex, color) with colors nondecreasing
        order = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= avail - 1
                bit = 1 << v
                order.append((v, color))
                rest &= ~bit
                avail &= ~neighbors[v]
        return order

    def expand(cand: int, current: list[int]) -> None:
        nonlocal best_size, best
        order = color_order(cand)
        for v, color in reversed(order):
            if len(current) + color <= best_size:
                return
            current.append(v)
            nxt = cand & neighbors[v]
            if nxt:
                expand(nxt, current)
            elif len(current) > best_size:
                best_size = len(current)
                best = sorted(current)
            current.pop()
            cand &= ~(1 << v)

    expand((1 << n) - 1, [])
    return best_size, best
