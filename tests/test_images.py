"""Term images from JW's coefficient tables and from bit lookups against the
general Pauli product chain, kind by kind and row by row."""

from itertools import permutations

import numpy as np
import pytest

from fermap import fermion
from fermap.fermion import ClassifiedTerms, Kind, blocked_modes
from fermap.jw import (
    _coefficient_table,
    _even_y,
    _ladders,
    _rank_code,
    _register_tables,
    jw_transform_terms,
)
from fermap.pauli import _popcount
from fermap.superfast import (
    _DOUBLE_B_SUBSETS,
    add_parity_ancilla,
    ose_transform_terms,
    pair_partition,
)
from test_pauli import outer_by_product
from test_superfast import complete_graphs


def z_rows(z, c):
    return np.zeros_like(z), z, np.broadcast_to(np.asarray(c, dtype=complex), z.shape[:2])


def number(z_words, j):
    z = z_words.take(j, axis=0)
    return z_rows(np.stack([np.zeros_like(z), z], axis=1), (0.5, -0.5))


def jw_plus_adjoint(tables, *modes):
    """Every row of a_{m_0}^ ... a_{m_2h-1} + h.c., one ladder product at a time."""
    rows = _ladders(modes[0], True, tables)
    for r, m in enumerate(modes[1:], 1):
        rows = outer_by_product(rows, _ladders(m, r < len(modes) // 2, tables))
    x, z, c = rows
    return x, z, c + c.conj()


def ose_hop(g, i, j):
    b = z_rows(g.vertex.take(np.stack([j, i], axis=1), axis=0), (-0.5j, 0.5j))
    return outer_by_product(g.a(i, j)[0], b)


def ose_double(g, idx):
    first, second, pair_sign = pair_partition(idx, blocked_modes(g.num_vertices)[1])
    aa = outer_by_product(g.a(*first.T)[0], g.a(*second.T)[0])
    subsets, signs = zip(*_DOUBLE_B_SUBSETS)
    b = g.vertex.take(idx, axis=0)
    z = np.stack([np.bitwise_xor.reduce(b[:, list(sub)], axis=1) for sub in subsets], axis=1)
    return outer_by_product(aa, z_rows(z, np.outer(pair_sign / 8.0, signs)))


def reference_rows(kind, idx, coefficients, z_words, hop, double):
    """The rows ``map_terms`` merges for one kind: the images, scaled by the
    coefficients, without the rows that are exactly 0."""
    cols = idx.T
    if kind is Kind.NUMBER:
        rows = number(z_words, cols[0])
    elif kind is Kind.COULOMB_EXCHANGE:
        rows = outer_by_product(number(z_words, cols[0]), number(z_words, cols[1]))
    elif kind is Kind.EXCITATION:
        rows = hop(cols[0], cols[1])
    elif kind is Kind.NUMBER_EXCITATION:
        rows = outer_by_product(hop(cols[0], cols[2]), number(z_words, cols[1]))
    else:
        rows = double(idx)
    x, z, c = rows
    c = (c * coefficients[:, None]).ravel()
    kept = c != 0
    return x.reshape(len(c), -1)[kept], z.reshape(len(c), -1)[kept], c[kept]


def merged_input(monkeypatch, transform):
    """The rows ``map_terms`` hands to the merge when ``transform`` runs."""
    seen, simplify = [], fermion.simplify

    def spy(s, eps):
        seen.append(s)
        return simplify(s, eps)

    monkeypatch.setattr(fermion, "simplify", spy)
    transform()
    return seen[0]


ARITY = {
    Kind.NUMBER: 1,
    Kind.COULOMB_EXCHANGE: 2,
    Kind.EXCITATION: 2,
    Kind.NUMBER_EXCITATION: 3,
    Kind.DOUBLE_EXCITATION: 4,
}


def random_terms(kind, modes, seed, n=60):
    """n rows of distinct modes, drawn from ``modes`` in every order."""
    rng = np.random.default_rng(seed)
    idx = np.stack([rng.choice(modes, ARITY[kind], replace=False) for _ in range(n)])
    return ClassifiedTerms({kind: (idx, rng.normal(size=n))})


def assert_rows_equal(got, expected):
    for g, e in zip((got.x, got.z, got.coefficients), expected):
        assert g.shape == e.shape and np.array_equal(g, e)


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("num_modes", [12, 130])  # one word, three words
def test_jw_images_equal_the_product_chain(monkeypatch, kind, num_modes):
    terms = random_terms(kind, num_modes, seed=num_modes)
    got = merged_input(monkeypatch, lambda: jw_transform_terms(terms, num_modes))
    tables = _register_tables(num_modes)
    expected = reference_rows(
        kind,
        *terms.by_kind[kind],
        tables[0],
        lambda i, k: jw_plus_adjoint(tables, i, k),
        lambda idx: jw_plus_adjoint(tables, *idx.T),
    )
    assert_rows_equal(got, expected)


SUPERFAST_GRAPHS = {
    "K8": complete_graphs(8, 1),  # 28 edge qubits, one word
    "K12": complete_graphs(12, 1),  # 66 edge qubits, two words
    "K12+ancilla": add_parity_ancilla(complete_graphs(12, 1), 3),
}


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("name", list(SUPERFAST_GRAPHS))
def test_superfast_images_equal_the_product_chain(monkeypatch, kind, name):
    g = SUPERFAST_GRAPHS[name]
    # the ancilla vertex takes part in no term; every other pair is an edge
    terms = random_terms(kind, g.num_vertices - (name == "K12+ancilla"), seed=len(name))
    got = merged_input(monkeypatch, lambda: ose_transform_terms(terms, g))
    expected = reference_rows(
        kind,
        *terms.by_kind[kind],
        g.vertex,
        lambda i, j: ose_hop(g, i, j),
        lambda idx: ose_double(g, idx),
    )
    assert_rows_equal(got, expected)


@pytest.mark.parametrize("num_factors", [2, 4])
def test_jw_coefficient_table_equals_the_product_chain(num_factors):
    # every ordering of the modes 0..num_factors-1, each at its rank code
    orders = np.array(list(permutations(range(num_factors))))
    c = jw_plus_adjoint(_register_tables(num_factors), *orders.T)[2]
    even = _even_y(num_factors) @ (1 << np.arange(num_factors)[::-1])
    table = _coefficient_table(num_factors)
    expected = np.zeros_like(table)
    expected[_rank_code(orders.T)] = c[:, even]
    assert table.tobytes() == expected.tobytes()


@pytest.mark.parametrize("num_factors", [2, 4])
def test_jw_rows_with_odd_y_vanish_for_every_mode_order(num_factors):
    # JW emits only the rows whose strings carry an even number of Y: in all
    # 2 orderings of a hop's modes and all 24 of a double's, the others are 0
    modes = np.array([1, 4, 6, 70])[:num_factors]  # gaps between them, and a second word
    orders = np.array(list(permutations(modes)))
    x, z, c = jw_plus_adjoint(_register_tables(72), *orders.T)
    odd = _popcount(x & z) % 2 == 1
    assert (odd.sum(axis=1) == 2 ** (num_factors - 1)).all()
    assert (c[odd] == 0).all() and (c[~odd] != 0).all()


@pytest.mark.parametrize(
    "kind, row",
    [
        (Kind.EXCITATION, [2, 2]),
        (Kind.NUMBER_EXCITATION, [1, 0, 1]),
        (Kind.DOUBLE_EXCITATION, [0, 2, 1, 0]),
        (Kind.DOUBLE_EXCITATION, [1, 3, 3, 0]),
    ],
)
def test_a_repeated_mode_raises(kind, row):
    # the images read their phases as if each mode had its own qubit or edge
    terms = ClassifiedTerms({kind: (np.array([row]), np.array([0.5]))})
    with pytest.raises(ValueError, match="repeats a mode"):
        jw_transform_terms(terms, 4)
    with pytest.raises(ValueError, match="repeats a mode"):
        ose_transform_terms(terms, complete_graphs(4, 1))
