import pytest

from hadsplit.search import max_clique


def _neighbors(n, edges):
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def test_empty_graph():
    size, members = max_clique(_neighbors(4, []))
    assert size == 1 and len(members) == 1


def test_masks_are_checked():
    with pytest.raises(ValueError, match="neighbor mask out of range"):
        max_clique([0b100, 0])
    with pytest.raises(ValueError, match="self-loop"):
        max_clique([0b10, 0b11])


def test_no_vertices():
    size, members = max_clique([])
    assert size == 0 and members == []


def test_triangle_with_pendant():
    size, members = max_clique(_neighbors(4, [(0, 1), (1, 2), (0, 2), (2, 3)]))
    assert size == 3
    assert sorted(members) == [0, 1, 2]


def test_five_cycle():
    size, _ = max_clique(_neighbors(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]))
    assert size == 2


@pytest.mark.parametrize("n", [2, 4, 6])
def test_complete_graph(n):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    size, members = max_clique(_neighbors(n, edges))
    assert size == n
    assert sorted(members) == list(range(n))


def test_bipartite():
    # K_{3,3} has clique number 2
    edges = [(i, 3 + j) for i in range(3) for j in range(3)]
    size, _ = max_clique(_neighbors(6, edges))
    assert size == 2


def test_members_form_clique():
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)]
    masks = _neighbors(6, edges)
    size, members = max_clique(masks)
    assert size == 4
    for u in members:
        for v in members:
            if u != v:
                assert masks[u] >> v & 1
