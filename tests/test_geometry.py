import hashlib
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from ksets import cell600 as cell600_module
from ksets.cell600 import (
    ConstructionError,
    _orthogonality,
    build_600cell,
    format_vectors,
    parse_vectors,
    verify_assignment,
    _vertices_600cell,
)
from ksets.coloring import is_ks
from ksets.golden import (
    KAPPA,
    ONE,
    TAU,
    ZERO,
    GoldenNumber,
    Ray,
    golden,
    inner_product,
)
from ksets.mmp import parse_mmp, serialize_mmp, validate_mmp


def test_golden_identities():
    assert TAU * TAU == TAU + ONE
    assert TAU * KAPPA == ONE
    assert TAU - KAPPA == ONE
    assert (TAU + KAPPA) * (TAU - KAPPA) == TAU * TAU - KAPPA * KAPPA


rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=16
)


@given(rationals, rationals)
def test_sign_matches_float(a, b):
    g = GoldenNumber(a, b)
    f = float(g)
    if abs(f) > 1e-9:
        assert g.sign() == (1 if f > 0 else -1)
    if g.is_zero():
        assert g.sign() == 0


@given(rationals, rationals, rationals, rationals)
def test_ordering_consistent_with_float(a, b, c, d):
    x, y = GoldenNumber(a, b), GoldenNumber(c, d)
    if abs(float(x) - float(y)) > 1e-9:
        assert (x < y) == (float(x) < float(y))


@given(rationals, rationals)
def test_golden_str_parse_round_trip(a, b):
    g = GoldenNumber(a, b)
    assert GoldenNumber.parse(str(g)) == g


def test_ray_canonicalizes_antipodes():
    r1 = Ray.of(ONE, ZERO, ZERO, ZERO)
    r2 = Ray.of(-ONE, ZERO, ZERO, ZERO)
    assert r1 == r2
    with pytest.raises(ValueError):
        Ray.of(ZERO, ZERO, ZERO, ZERO)
    with pytest.raises(ValueError):
        Ray.of(ONE, ZERO)


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
                assert ip.is_zero()


def test_no_floating_point(cell600):
    for r in cell600.rays:
        for c in r.components:
            assert isinstance(c.a, Fraction) and isinstance(c.b, Fraction)


def test_known_orthogonal_pair():
    half = Fraction(1, 2)
    u = Ray.of(TAU.scale(half), ZERO, ONE.scale(-half), KAPPA.scale(-half))
    v = Ray.of(ZERO, ONE, ZERO, ZERO)
    assert inner_product(u, v).is_zero()
    assert not inner_product(u, u).is_zero()


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
    # replace ray 0 with something orthogonal to nothing it needs
    assignment[0] = Ray.of(ONE, TAU, KAPPA, golden(3))
    violations = verify_assignment(h75, assignment)
    assert violations
    touched = {ei for ei, e in enumerate(h75.edges) if 0 in e}
    assert {v.edge for v in violations} <= touched
    for v in violations:
        assert 0 in (v.u, v.v)


def test_verify_assignment_missing_vertex(h75, cell600):
    partial = dict(enumerate(cell600.rays))
    del partial[3]
    with pytest.raises(ValueError):
        verify_assignment(h75, partial)


def test_vector_file_round_trip(cell600):
    text = format_vectors(cell600.rays)
    back = parse_vectors(text)
    assert tuple(back) == cell600.rays
    assert format_vectors(back) == text
    with pytest.raises(ValueError):
        parse_vectors("1+0t 0+0t\n")


def test_build_is_deterministic(cell600):
    again = build_600cell()
    assert again.rays == cell600.rays
    assert again.bases == cell600.bases


def test_integer_orthogonality_matches_the_golden_field(cell600):
    orth = _orthogonality(list(cell600.rays))
    pairs = set()
    for i, j in combinations(range(60), 2):
        u, v = cell600.rays[i], cell600.rays[j]
        orthogonal = bool(orth[i] >> j & 1)
        assert orthogonal == inner_product(u, v).is_zero()
        assert orthogonal == bool(orth[j] >> i & 1)
        if orthogonal:
            pairs.add((i, j))
    assert len(pairs) == 450
    in_bases = {p for b in cell600.bases for p in combinations(b, 2)}
    assert pairs == in_bases
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


def test_component_outside_half_integers_is_refused(monkeypatch):
    third = Fraction(1, 3)
    verts = [tuple(c.scale(third) for c in v) for v in _vertices_600cell()]
    monkeypatch.setattr(cell600_module, "_vertices_600cell", lambda: verts)
    # every count still holds; only the doubled coordinates are not integers
    with pytest.raises(ConstructionError) as err:
        build_600cell()
    assert str(err.value) == "component -1/6+1/6t is not in Z[tau]/2"
