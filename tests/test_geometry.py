import hashlib
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from ksets.cell600 import (
    _orthogonality,
    _ray,
    _sign,
    build_600cell,
    format_vectors,
    inner_product,
    verify_assignment,
    _vertices_600cell,
)
from ksets.coloring import is_ks
from ksets.mmp import parse_mmp, serialize_mmp, validate_mmp

PHI = (1 + 5**0.5) / 2


@given(st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_sign_matches_float(p, q):
    f = (p + q * PHI) / 2
    if abs(f) > 1e-9:
        assert _sign(p, q) == (1 if f > 0 else -1)
    if (p, q) == (0, 0):
        assert _sign(p, q) == 0


def test_ray_canonicalizes_antipodes():
    zero = (0, 0)
    r1 = _ray(((2, 0), zero, zero, zero))
    r2 = _ray(((-2, 0), zero, zero, zero))
    assert r1 == r2 == ((2, 0), zero, zero, zero)
    with pytest.raises(ValueError):
        _ray((zero, zero, zero, zero))
    with pytest.raises(ValueError):
        _ray(((2, 0), zero))


def test_vertex_counts():
    verts = _vertices_600cell()
    assert len(verts) == 120
    assert len(set(verts)) == 120


def test_construction_counts(cell600):
    assert len(cell600.rays) == 60
    assert len(cell600.bases) == 75
    membership = [0] * 60
    for b in cell600.bases:
        assert len(set(b)) == 4
        for v in b:
            membership[v] += 1
    assert set(membership) == {5}


def test_bases_exactly_orthogonal(cell600):
    for b in cell600.bases:
        for i in range(4):
            for j in range(i + 1, 4):
                ip = inner_product(cell600.rays[b[i]], cell600.rays[b[j]])
                assert ip == (0, 0)


def test_no_floating_point(cell600):
    for r in cell600.rays:
        assert len(r) == 4
        for c in r:
            assert len(c) == 2 and all(type(x) is int for x in c)


def test_known_orthogonal_pair():
    # (tau, 0, -1, -kappa)/2 and (0, 1, 0, 0)
    u = _ray(((0, 1), (0, 0), (-1, 0), (1, -1)))
    v = _ray(((0, 0), (2, 0), (0, 0), (0, 0)))
    assert inner_product(u, v) == (0, 0)
    assert inner_product(u, u) == (4, 0)


def test_hypergraph_is_valid_and_ks(h75):
    assert h75.signature == "60-75"
    assert validate_mmp(h75) == []
    assert is_ks(h75)
    assert parse_mmp(serialize_mmp(h75)).edges == h75.edges


def test_verify_assignment_full(cell600, h75):
    assignment = dict(enumerate(cell600.rays))
    assert verify_assignment(h75, assignment) == []


def test_verify_assignment_perturbation_is_local(cell600, h75):
    assignment = dict(enumerate(cell600.rays))
    # replace ray 0 with (1, tau, kappa, 3), orthogonal to nothing it needs
    assignment[0] = _ray(((2, 0), (0, 2), (-2, 2), (6, 0)))
    violations = verify_assignment(h75, assignment)
    assert violations
    touched = {ei for ei, e in enumerate(h75.edges) if 0 in e}
    assert {v.edge for v in violations} <= touched
    for v in violations:
        assert 0 in (v.u, v.v)
        assert v.value == inner_product(assignment[v.u], assignment[v.v])
        assert v.value != (0, 0)


def test_verify_assignment_missing_vertex(h75, cell600):
    partial = dict(enumerate(cell600.rays))
    del partial[3]
    with pytest.raises(ValueError):
        verify_assignment(h75, partial)


def _doubled_pair(text):
    # "a+bt" -> (2a, 2b); the parts carry their own signs
    a, b = text.removesuffix("t").split("+")
    doubled = (2 * Fraction(a), 2 * Fraction(b))
    assert all(x.denominator == 1 for x in doubled)
    return tuple(int(x) for x in doubled)


def test_vector_file_round_trip(cell600):
    text = format_vectors(cell600.rays)
    back = tuple(
        tuple(_doubled_pair(c) for c in line.split())
        for line in text.splitlines()
    )
    assert back == cell600.rays
    assert format_vectors(back) == text


def test_build_is_deterministic(cell600):
    again = build_600cell()
    assert again.rays == cell600.rays
    assert again.bases == cell600.bases


def test_integer_orthogonality_matches_the_golden_field(cell600):
    # independent oracle: the rays as floats, (p + q*phi)/2 per component
    vectors = [[(p + q * PHI) / 2 for p, q in r] for r in cell600.rays]
    for x in vectors:
        assert abs(sum(c * c for c in x) - 1) < 1e-12
    in_bases = {p for b in cell600.bases for p in combinations(b, 2)}
    assert len(in_bases) == 450
    orth = _orthogonality(list(cell600.rays))
    for i, j in combinations(range(60), 2):
        dot = abs(sum(a * b for a, b in zip(vectors[i], vectors[j])))
        if (i, j) in in_bases:
            assert dot < 1e-9
        else:
            assert dot >= 0.3
        assert bool(orth[i] >> j & 1) == ((i, j) in in_bases)
        assert bool(orth[j] >> i & 1) == ((i, j) in in_bases)
    assert all(not m >> i & 1 for i, m in enumerate(orth))


def test_outputs_are_pinned(cell600, h75):
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    assert digest(format_vectors(cell600.rays)) == (
        "4f10ce0809d74825e489a6e8c63bd7905ff8de32815a32cac20ad24d43cd2761"
    )
    assert digest(serialize_mmp(h75)) == (
        "d8baf55a6a469de292ba002b6169d39a33aae4274e6ce67309685ac06433e4bb"
    )

