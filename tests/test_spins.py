import itertools
import re

import numpy as np
import pytest

from holoising import spins
from holoising.graph import build_graph
from holoising.spins import (
    SectorEnumerationError,
    SectorFamily,
    Spin,
    SpinSector,
    enumerate_sectors,
    intertwiner_dim,
    sector_dims,
)


# ---------------------------------------------------------------------------
# brute-force oracle: count zero eigenvalues of total J^2 on the product space
# ---------------------------------------------------------------------------

def _spin_matrices(twice):
    j = twice / 2.0
    m = np.arange(j, -j - 1.0, -1.0)
    jz = np.diag(m)
    # <j, m+1 | J+ | j, m> = sqrt(j(j+1) - m(m+1))
    raised = np.sqrt(j * (j + 1.0) - m[1:] * (m[1:] + 1.0))
    jp = np.diag(raised, k=1)
    return jz, jp


def brute_force_invariant_count(twices):
    dims = [t + 1 for t in twices]
    total = int(np.prod(dims))
    Jz = np.zeros((total, total))
    Jp = np.zeros((total, total))
    for site, t in enumerate(twices):
        jz, jp = _spin_matrices(t)
        ops = [np.eye(d) for d in dims]
        ops[site] = jz
        term = ops[0]
        for op in ops[1:]:
            term = np.kron(term, op)
        Jz += term
        ops[site] = jp
        term = ops[0]
        for op in ops[1:]:
            term = np.kron(term, op)
        Jp += term
    # J^2 = J- J+ + Jz^2 + Jz, with J- = (J+)^T for these real matrices
    J2 = Jp.T @ Jp + Jz @ Jz + Jz
    evals = np.linalg.eigvalsh(J2)
    return int(np.sum(evals < 0.25))


def test_link_dim():
    assert Spin.parse(0).dim == 1
    assert Spin.parse("1/2").dim == 2
    for n in (3, 7, 10):
        assert Spin.parse(f"{n - 1}/2").dim == n


def test_spin_parsing():
    assert Spin.parse("3/2").twice == 3
    assert Spin.parse(1).twice == 2
    assert Spin.parse(0.5).twice == 1
    with pytest.raises(ValueError):
        Spin.parse(0.3)
    with pytest.raises(ValueError):
        Spin(-1)


def test_spin_takes_an_integer_twice_j():
    """`Spin` takes the doubled spin as an integer: a bool or a float is
    refused with a pointer to `Spin.parse`, and an integral numpy scalar is
    stored as a Python int."""
    for bad in (1.5, 2.0, True, np.bool_(True), "3"):
        with pytest.raises(TypeError, match=r"Spin\.parse takes j"):
            Spin(bad)
    spin = Spin(np.int64(3))
    assert type(spin.twice) is int and spin == Spin(3) and str(spin) == "3/2"


def test_spin_parse_names_what_it_could_not_read():
    for bad in ("abc", True, "1/0", None):
        with pytest.raises(ValueError, match=f"cannot read {re.escape(repr(bad))} as a spin j"):
            Spin.parse(bad)


def test_intertwiner_dim_basics():
    half = Spin(1)
    one = Spin(2)
    assert intertwiner_dim((half, half)) == 1
    assert intertwiner_dim((half, one)) == 0
    assert intertwiner_dim((half, half, half, half)) == 2


def test_intertwiner_triple_is_triangle_rule():
    spins = [Spin(t) for t in range(0, 5)]
    for a, b, c in itertools.product(spins, repeat=3):
        dim = intertwiner_dim((a, b, c))
        triangle = abs(a.twice - b.twice) <= c.twice <= a.twice + b.twice
        parity = (a.twice + b.twice + c.twice) % 2 == 0
        assert dim == (1 if (triangle and parity) else 0)


def test_intertwiner_permutation_invariance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        tup = tuple(Spin(int(t)) for t in rng.integers(0, 5, size=4))
        perm = tuple(tup[i] for i in rng.permutation(4))
        assert intertwiner_dim(tup) == intertwiner_dim(perm)


def test_intertwiner_dim_against_brute_force():
    # all tuples (up to permutation) with product of dims <= 200
    max_twice = 5
    checked = 0
    for r in range(2, 6):
        for tup in itertools.combinations_with_replacement(range(max_twice + 1), r):
            dims = np.prod([t + 1 for t in tup])
            if dims > 200:
                continue
            expected = brute_force_invariant_count(tup)
            assert intertwiner_dim(tuple(Spin(t) for t in tup)) == expected, tup
            checked += 1
    assert checked > 50


def test_pair_product_dimension_counting():
    # prod d_i = sum over u of (2u+1) * mult(u) for two-spin products
    for ta, tb in itertools.product(range(6), repeat=2):
        total = 0
        for tu in range(abs(ta - tb), ta + tb + 1, 2):
            # mult of u in a x b is 1 inside the triangle range
            total += tu + 1
        assert total == (ta + 1) * (tb + 1)


def _family_graph():
    g = build_graph(
        {
            "vertices": [{"id": "x", "valence": 4}, {"id": "y", "valence": 4}],
            "links": [{"id": "e0", "ends": [["x", 0], ["y", 0]]}]
            + [{"id": f"bx{p}", "end": ["x", p]} for p in range(1, 4)]
            + [{"id": f"by{p}", "end": ["y", p]} for p in range(1, 4)],
        }
    )
    return g


def test_family_amplitude_refuses_unknown_links():
    """`g` is 1 on a boundary link, the link's weight on an internal one
    and 0 for a spin that link does not allow; a link id the family does
    not hold is refused with the family's links named."""
    g = _family_graph()
    fam = SectorFamily.build(g, "1/2", 1, allowed={"e0": ["1/2", "1"]}, weights={"e0": {"1/2": 0.6, "1": 0.8j}})
    assert fam.g("bx1", Spin(1)) == 1.0 + 0.0j
    assert fam.g("e0", Spin(1)) == 0.6 + 0.0j
    assert fam.g("e0", Spin(2)) == 0.8j
    assert fam.g("e0", Spin(3)) == 0.0
    with pytest.raises(ValueError) as err:
        fam.g("zz", Spin(1))
    assert str(err.value) == "unknown link 'zz': the family's links are (e0, bx1, bx2, bx3, by1, by2, by3)"


def test_enumerate_sectors_lexicographic():
    g = build_graph(
        {
            "vertices": [{"id": "x", "valence": 3}],
            "links": [{"id": f"b{p}", "end": ["x", p]} for p in range(3)],
        }
    )
    fam = SectorFamily.build(g, "1/2", 1)
    sectors = list(enumerate_sectors(fam, g))
    assert len(sectors) == 8
    keys = [tuple(t for _, t in s.assignment) for s in sectors]
    assert keys == sorted(keys)
    assert len(set(s.key() for s in sectors)) == 8


def test_enumerate_sectors_guard(monkeypatch):
    g = _family_graph()
    fam = SectorFamily.build(g, 0, 10)
    monkeypatch.setattr(spins, "SECTOR_LIMIT", 100)
    with pytest.raises(SectorEnumerationError):
        list(enumerate_sectors(fam, g))


def test_enumerate_with_boundary_filter():
    g = _family_graph()
    fam = SectorFamily.build(g, "1/2", 1)
    boundary = {lid: "1/2" for lid in g.boundary_ids()}
    sectors = list(enumerate_sectors(fam, g, boundary_filter=boundary))
    assert len(sectors) == 2  # only the internal link varies
    for s in sectors:
        assert all(t == 1 for t in s.twice_of(g.boundary_ids()))


def test_sector_dims_single_vertex():
    g = build_graph(
        {
            "vertices": [{"id": "x", "valence": 4}],
            "links": [{"id": f"b{p}", "end": ["x", p]} for p in range(4)],
        }
    )
    fam = SectorFamily.build(g, "1/2", "1/2")
    sec = SpinSector.make(g, {lid: "1/2" for lid in g.boundary_ids()})
    dims = sector_dims(sec, g, fam)
    assert dims.d_output == 16
    assert dims.d_input == 2
    assert dims.d_total == 32
    assert dims.dim_sector == 32
    assert dims.bulk_intertwiner_product == 2


def test_sector_dims_boundary_fixed_sum():
    # D_I(E) equals a direct sum over bulk assignments
    g = _family_graph()
    fam = SectorFamily.build(g, "1/2", "3/2")
    boundary = {lid: "1/2" for lid in g.boundary_ids()}
    sectors = list(enumerate_sectors(fam, g, boundary_filter=boundary))
    direct = 0
    for s in sectors:
        prod = 1
        for x in g.vertices:
            prod *= intertwiner_dim(s.vertex_spins(x))
        direct += prod
    dims = sector_dims(sectors[0], g, fam)
    assert dims.d_input == direct
    assert direct > 0


def test_weights_normalized_by_default():
    g = _family_graph()
    fam = SectorFamily.build(g, "1/2", "3/2")
    fam.validate(g)
    total = sum(abs(v) ** 2 for v in fam.weights["e0"].values())
    assert abs(total - 1.0) < 1e-12


def test_weight_lookup_boundary_is_unit():
    g = _family_graph()
    fam = SectorFamily.build(g, "1/2", "3/2")
    assert fam.g("bx1", Spin(1)) == 1.0
    assert fam.g("e0", Spin(1)) != 0.0

