"""Shared fixtures and hypothesis strategies for the test suite."""

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from ormaps.core import Map, from_rotations, parse

# one verdict line per acceptance criterion, echoed after the run so they
# survive output capture (filled in by tests/test_acceptance.py)
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

TETRA_TEXT = """vertices: 4
1: 2 3 4
2: 1 4 3
3: 1 2 4
4: 1 3 2
"""


def make_cube() -> Map:
    # top ring 0-3 viewed clockwise from above, vertex i+4 under vertex i
    rots = []
    for i in range(4):
        rots.append([(i + 1) % 4, (i - 1) % 4, i + 4])
    for i in range(4):
        rots.append([4 + (i + 1) % 4, i, 4 + (i - 1) % 4])
    return from_rotations(rots)


@pytest.fixture(scope="session")
def tetrahedron() -> Map:
    return parse(TETRA_TEXT)


@pytest.fixture(scope="session")
def cube() -> Map:
    return make_cube()


@pytest.fixture(scope="session")
def k2() -> Map:
    return parse("vertices: 2\n1: 2\n2: 1\n")


def torus_grid(p: int, q: int) -> Map:
    """The 6-regular triangulation T(p, q) of the torus on a p x q grid."""
    steps = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    return from_rotations(
        [
            [(i + di) % p * q + (j + dj) % q for di, dj in steps]
            for i in range(p)
            for j in range(q)
        ]
    )


def relabel_darts(m: Map, perm: list[int]) -> Map:
    """Apply a dart permutation: dart d becomes perm[d]."""
    D = m.dart_count
    vertex_of = [0] * D
    nxt = [0] * D
    rev = [0] * D
    for d in range(D):
        vertex_of[perm[d]] = m.vertex_of[d]
        nxt[perm[d]] = perm[m.next_in_rotation[d]]
        rev[perm[d]] = perm[m.reverse[d]]
    return Map(tuple(vertex_of), tuple(nxt), tuple(rev))


@st.composite
def connected_simple_maps(draw, min_vertices=2, max_vertices=6, max_extra_edges=5):
    """Random rotation systems of random connected simple graphs."""
    n = draw(st.integers(min_vertices, max_vertices))
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges.add((u, v))
    pool = sorted(
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    )
    if pool and max_extra_edges:
        extra = draw(
            st.lists(
                st.sampled_from(pool),
                max_size=min(len(pool), max_extra_edges),
                unique=True,
            )
        )
        edges.update(extra)
    nbrs = {v: [] for v in range(n)}
    for u, v in sorted(edges):
        nbrs[u].append(v)
        nbrs[v].append(u)
    rot_lists = [list(draw(st.permutations(nbrs[v]))) for v in range(n)]
    return from_rotations(rot_lists)


def rotation_system(pairing, sigma) -> Map | None:
    """The map with rotation successor ``sigma`` whose reverse pairs
    ``pairing[0]`` with ``pairing[1]``, ``pairing[2]`` with ``pairing[3]``
    and so on; None when it is disconnected.  Vertices are the cycles of
    ``sigma``, so loops and parallel edges occur."""
    D = len(sigma)
    alpha = [0] * D
    for a, b in zip(pairing[::2], pairing[1::2]):
        alpha[a], alpha[b] = b, a
    vertex_of = [-1] * D
    count = 0
    for d in range(D):
        if vertex_of[d] < 0:
            e = d
            while vertex_of[e] < 0:
                vertex_of[e] = count
                e = sigma[e]
            count += 1
    seen = {0}
    stack = [0]
    while stack:
        d = stack.pop()
        for e in (sigma[d], alpha[d]):
            if e not in seen:
                seen.add(e)
                stack.append(e)
    if len(seen) < D:
        return None
    return Map(tuple(vertex_of), tuple(sigma), tuple(alpha))


@st.composite
def connected_maps(draw, max_edges=9):
    """Random connected rotation systems: a random fixed-point-free reverse
    and a rotation with random cycles; disconnected draws are rejected."""
    darts = range(2 * draw(st.integers(1, max_edges)))
    m = rotation_system(draw(st.permutations(darts)), draw(st.permutations(darts)))
    assume(m is not None)
    return m


@st.composite
def dart_permutations_of(draw, m: Map):
    return list(draw(st.permutations(range(m.dart_count))))
