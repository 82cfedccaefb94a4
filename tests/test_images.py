"""Term images from JW's coefficient tables and from bit lookups against the
general Pauli product chain, kind by kind, through the mapped operator: its
rows against a word-exact reference merge of the product chain's rows, on
random terms, on every ordering of a double excitation's modes and on
graphs whose small components make rows of different terms meet."""

from itertools import permutations

import numpy as np
import pytest

from fermap import fermion
from fermap.bench import run_cell
from fermap.fermion import ClassifiedTerms, Kind, blocked_modes
from fermap.jw import (
    _coefficient_table,
    _even_y,
    _ladders,
    _rank_code,
    _register_tables,
    jw_transform_terms,
)
from fermap.pauli import NonHermitianError, _popcount
from fermap.superfast import (
    _DOUBLE_B_SUBSETS,
    InteractionGraph,
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
    """The rows of one kind's images through the product chain, scaled by
    the coefficients, without the rows that are exactly 0."""
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


def sorted_rows(x, z, c):
    """The words and coefficients of rows, sorted by their words."""
    order = np.lexsort(np.concatenate([x, z], axis=1).T)
    return x[order], z[order], c[order]


def reference_merge(x, z, c, eps=1e-12):
    """The like-term merge of rows, word-exact: a dictionary sums each
    string's coefficients left to right, the sums that are 0 or below eps
    in magnitude are cut, and the rows come sorted by their words."""
    sums = {}
    for words, value in zip(np.concatenate([x, z], axis=1), c.tolist()):
        sums[words.tobytes()] = sums.get(words.tobytes(), 0) + value
    kept = {key: v for key, v in sums.items() if (abs(v) >= eps if eps else v != 0)}
    words = np.frombuffer(b"".join(kept), dtype=x.dtype).reshape(len(kept), 2 * x.shape[1])
    n = x.shape[1]
    return sorted_rows(words[:, :n], words[:, n:], np.array(list(kept.values()), dtype=complex))


def assert_merged_equal(operator, x, z, c, eps=1e-12):
    """The operator has the strings of the merged product-chain rows, and
    coefficients equal to theirs within the error bound of summing in
    another order: a sum of n terms in any order is within (n - 1) u
    sum|terms| of the exact sum (u the unit roundoff), so two orders differ
    by at most twice that, taken here over all of the kind's rows."""
    got = sorted_rows(operator.x, operator.z, operator.coefficients)
    expected = reference_merge(x, z, c, eps)
    for g, e in zip(got[:2], expected[:2]):
        assert g.shape == e.shape and np.array_equal(g, e)
    bound = len(c) * np.finfo(float).eps * np.abs(c).sum()  # 2 (n - 1) u <= n eps
    assert np.abs(got[2] - expected[2]).max(initial=0.0) <= bound


def assert_doubles_equal(operator, x, z, c, eps=1e-12):
    """The operator's rows, sorted, are bitwise (words and coefficient bytes)
    the merged product-chain rows: each string's rows summed in term order,
    also where two slots of one support give one string."""
    got = sorted_rows(operator.x, operator.z, operator.coefficients)
    for g, e in zip(got, reference_merge(x, z, c, eps)):
        assert g.shape == e.shape and g.tobytes() == e.tobytes()


def assert_images_equal(operator, expected, kind, eps=1e-12):
    """A double excitation's strings are summed in term order, as the
    reference merge sums the product chain's rows: bitwise.  The other
    kinds fold parts of their terms before their rows are summed
    (``map_terms``), so their sums may differ by rounding."""
    if kind is Kind.DOUBLE_EXCITATION:
        assert_doubles_equal(operator, *expected, eps)
    else:
        assert_merged_equal(operator, *expected, eps)


def rows_per_support(s):
    """The number of rows of ``s`` on each X support."""
    return np.unique(s.x, axis=0, return_counts=True)[1]


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("num_modes", [12, 130])  # one word, three words
def test_jw_images_equal_the_product_chain(kind, num_modes):
    terms = random_terms(kind, num_modes, seed=num_modes)
    tables = _register_tables(num_modes)
    expected = reference_rows(
        kind,
        *terms.by_kind[kind],
        tables[0],
        lambda i, k: jw_plus_adjoint(tables, i, k),
        lambda idx: jw_plus_adjoint(tables, *idx.T),
    )
    assert_images_equal(jw_transform_terms(terms, num_modes), expected, kind)


SUPERFAST_GRAPHS = {
    "K8": complete_graphs(8, 1),  # 28 edge qubits, one word
    "K12": complete_graphs(12, 1),  # 66 edge qubits, two words
    "K12+ancilla": add_parity_ancilla(complete_graphs(12, 1), 3),
}


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("name", list(SUPERFAST_GRAPHS))
def test_superfast_images_equal_the_product_chain(kind, name):
    g = SUPERFAST_GRAPHS[name]
    # the ancilla vertex takes part in no term; every other pair is an edge
    terms = random_terms(kind, g.num_vertices - (name == "K12+ancilla"), seed=len(name))
    expected = reference_rows(
        kind,
        *terms.by_kind[kind],
        g.vertex,
        lambda i, j: ose_hop(g, i, j),
        lambda idx: ose_double(g, idx),
    )
    assert_images_equal(ose_transform_terms(terms, g), expected, kind)


def double_terms(modes, seed):
    """Every ordering of four modes as a double excitation, each with its own g."""
    idx = np.array(list(permutations(modes)))
    g = np.random.default_rng(seed).normal(size=len(idx))
    return ClassifiedTerms({Kind.DOUBLE_EXCITATION: (idx, g)})


@pytest.mark.parametrize("modes", [(0, 1, 2, 3), (1, 2, 5, 6)])  # one spin; two spins, crossings
def test_jw_every_ordering_of_four_modes_folds_into_one_support(modes):
    terms = double_terms(modes, seed=sum(modes))
    merged = jw_transform_terms(terms, 8)
    assert rows_per_support(merged).tolist() == [len(merged)] and len(merged) <= 8
    tables = _register_tables(8)
    expected = reference_rows(
        Kind.DOUBLE_EXCITATION, *terms.by_kind[Kind.DOUBLE_EXCITATION], tables[0], None,
        lambda idx: jw_plus_adjoint(tables, *idx.T),
    )
    assert_images_equal(merged, expected, Kind.DOUBLE_EXCITATION)


@pytest.mark.parametrize("modes", [(0, 1, 2, 3), (1, 2, 5, 6)])
@pytest.mark.parametrize("name", ["K8", "K8+ancilla"])
def test_superfast_every_ordering_of_four_modes_folds_per_support(modes, name):
    # the orderings pair the modes in up to three ways, one edge pair each;
    # the ancilla's edge moves the qubits of the edges sorted after it
    g = complete_graphs(8, 1) if name == "K8" else add_parity_ancilla(complete_graphs(8, 1), 2)
    terms = double_terms(modes, seed=sum(modes))
    merged = ose_transform_terms(terms, g)
    assert rows_per_support(merged).max() <= 8
    expected = reference_rows(
        Kind.DOUBLE_EXCITATION, *terms.by_kind[Kind.DOUBLE_EXCITATION], g.vertex, None,
        lambda idx: ose_double(g, idx),
    )
    assert_images_equal(merged, expected, Kind.DOUBLE_EXCITATION)


@pytest.mark.parametrize(
    "g, strings",
    [
        # two single-edge spin sectors: B_p B_q = 1 on each edge, so the 8
        # subsets give 2 strings, on which each term's image cancels
        (complete_graphs(2, 2), 2),
        # two K4 sectors: a one-spin term's four vertices are a whole sector,
        # whose B product is 1, so each subset and its complement give one string
        (complete_graphs(4, 2), 4),
        # the same with the parity ancilla on the other sector, which moves its edges' qubits
        (add_parity_ancilla(complete_graphs(4, 2), 4), 4),
    ],
    ids=["single-edge sectors", "K4 sectors", "K4 sectors+ancilla"],
)
def test_superfast_subsets_that_give_one_string_merge_exactly(g, strings):
    # every ordering of the modes 0-3 whose pairs are edges of the graph
    idx = np.array(list(permutations(range(4))))
    first, second, _ = pair_partition(idx, blocked_modes(g.num_vertices)[1])
    idx = idx[(g.lookup[tuple(first.T)] >= 0) & (g.lookup[tuple(second.T)] >= 0)]
    g_values = np.random.default_rng(4).normal(size=len(idx))
    terms = ClassifiedTerms({Kind.DOUBLE_EXCITATION: (idx, g_values)})
    merged = ose_transform_terms(terms, g, eps=0.0)
    x, z, c = reference_rows(
        Kind.DOUBLE_EXCITATION, idx, g_values, g.vertex, None, lambda i: ose_double(g, i)
    )
    # the product chain gives each support's 8 slots `strings` strings, and
    # the operator sums each string's rows once, in term order
    distinct = np.unique(np.concatenate([x, z], axis=1), axis=0)
    assert len(distinct) == strings * len(np.unique(x, axis=0))
    assert rows_per_support(merged).max(initial=0) <= strings
    assert_doubles_equal(merged, x, z, c, 0.0)


def graph_terms(g, modes, seed):
    """Every term ``g`` can map on the vertices below ``modes``: each
    number and Coulomb term, an excitation per edge, its number excitations
    with every other vertex, and each double excitation (i < j, l < k) whose
    pairs are edges.  Every g is a multiple of 1/8, so the rows sum exactly
    in any order."""
    edges = [[p, q] for p, q in g.edges.tolist() if q < modes]
    doubles = [
        (i, j, k, l)
        for i, j, k, l in permutations(range(modes), 4)
        if i < j and l < k and (i, j, k, l) < (l, k, j, i)
    ]
    first, second, _ = pair_partition(np.array(doubles), blocked_modes(g.num_vertices)[1])
    doubles = np.array(doubles)[(g.lookup[tuple(first.T)] >= 0) & (g.lookup[tuple(second.T)] >= 0)]
    rows = {
        Kind.NUMBER: [[v] for v in range(modes)],
        Kind.COULOMB_EXCHANGE: [[p, q] for q in range(modes) for p in range(q)],
        Kind.EXCITATION: edges,
        Kind.NUMBER_EXCITATION: [[p, j, q] for p, q in edges for j in range(modes) if p != j != q],
        Kind.DOUBLE_EXCITATION: doubles,
    }
    rng = np.random.default_rng(seed)
    by_kind = {}
    for kind, idx in rows.items():
        g = rng.choice([-1, 1], len(idx)) * rng.integers(1, 17, len(idx)) / 8
        by_kind[kind] = np.array(idx).reshape(-1, ARITY[kind]), g
    return ClassifiedTerms(by_kind)


@pytest.mark.parametrize(
    "g, modes",
    [
        # lone vertices: B_v = 1, so each Z_v row meets the identity
        (InteractionGraph(4, [(0, 2)]), 4),
        # single edges: B_p = B_q, so a hop's two rows meet, and the Z rows of its ends
        (complete_graphs(2, 2), 4),
        # triangles: B_a B_b = B_c, so a hop's row meets n_j hop rows and Z rows meet Z_i Z_j rows
        (complete_graphs(3, 2), 6),
        # K4 sectors: B_a B_b = B_c B_d, and every vertex word is the XOR of the other three
        (complete_graphs(4, 2), 8),
        # K5 sectors: no product of at most four vertex words is another's
        (complete_graphs(5, 2), 10),
        # single edges, one with the parity ancilla, which no term flips: a 3-vertex component
        (add_parity_ancilla(complete_graphs(2, 2), 2), 4),
    ],
    ids=["1 vertex", "2 vertices", "3 vertices", "4 vertices", "5 vertices", "ancilla"],
)
def test_superfast_components_merge_rows_that_give_one_string(g, modes):
    # the rows of every kind together, against the word-exact merge of the
    # product chain's rows: the same strings and coefficient bytes
    terms = graph_terms(g, modes, seed=modes)
    rows = [
        reference_rows(
            kind, idx, c, g.vertex, lambda i, j: ose_hop(g, i, j), lambda i: ose_double(g, i)
        )
        for kind, (idx, c) in terms.by_kind.items()
    ]
    x, z, c = (np.concatenate(part) for part in zip(*rows))
    assert len(np.unique(np.concatenate([x, z], axis=1), axis=0)) < len(c)
    assert_doubles_equal(ose_transform_terms(terms, g, eps=0.0), x, z, c, 0.0)


@pytest.mark.parametrize(
    "cell, rows, weights",
    [((2, 4, 1.00), 14_913, (456_736, 1_790_560)), ((3, 4, 3.00), 100_897, (938_464, 4_901_376))],
    ids=["d2-s4-a1.00", "d3-s4-a3.00"],
)
def test_dense_cells_key_every_row_but_the_doubles_by_its_flips(monkeypatch, cell, rows, weights):
    # d2 side-4 a1.00 has 23 682 double excitations, whose 8 rows each are
    # keyed by their support and slot; every other kind's rows, 14 913 of
    # them, are keyed by their X support's mode pair and their flips
    seen, codes = [], fermion._flip_codes

    def spy(flips, small):
        seen.append(len(flips))
        return codes(flips, small)

    monkeypatch.setattr(fermion, "_flip_codes", spy)
    row = run_cell(*cell)
    assert seen == [rows, rows]
    assert (row.jw_total_weight, row.bksf_total_weight) == weights


@pytest.mark.parametrize(
    "kind, row",
    [
        (Kind.NUMBER, [1]),
        (Kind.COULOMB_EXCHANGE, [0, 2]),
        (Kind.EXCITATION, [1, 3]),
        (Kind.NUMBER_EXCITATION, [0, 2, 3]),
        (Kind.DOUBLE_EXCITATION, [0, 1, 2, 3]),
    ],
)
def test_an_imaginary_folded_coefficient_raises(kind, row):
    # the folded parts are summed as complex numbers, so an imaginary share
    # reaches the merged identity, Z_j or hop string, or a double
    # excitation's string, which bypasses the merge, and fails the check
    terms = ClassifiedTerms({kind: (np.array([row]), np.array([0.5j]))})
    with pytest.raises(NonHermitianError):
        jw_transform_terms(terms, 4)
    with pytest.raises(NonHermitianError):
        ose_transform_terms(terms, complete_graphs(4, 1))


def test_a_tight_orbital_lattice_hands_the_merge_its_merged_rows(monkeypatch):
    # d3 side-4 a8.75 is almost all Coulomb terms: once n_j = (1 - Z_j)/2 is
    # folded, each encoding keys one row per merged term
    seen, codes = [], fermion._flip_codes

    def spy(flips, small):
        seen.append(len(flips))
        return codes(flips, small)

    monkeypatch.setattr(fermion, "_flip_codes", spy)
    row = run_cell(3, 4, 8.75)
    assert seen == [8833, 8833]
    assert row.jw_report.term_count == row.bksf_report.term_count == 8833


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
    if num_factors == 2:  # the constant that ``jw._hops`` returns
        assert (table == 0.5).all()


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
        (Kind.COULOMB_EXCHANGE, [3, 3]),
        (Kind.NUMBER_EXCITATION, [1, 1, 2]),
    ],
)
def test_a_repeated_mode_raises(kind, row):
    # the images read their phases as if each mode had its own qubit or
    # edge, and the merge keys read each flipped mode as a distinct word
    terms = ClassifiedTerms({kind: (np.array([row]), np.array([0.5]))})
    with pytest.raises(ValueError, match="repeats a mode"):
        jw_transform_terms(terms, 4)
    with pytest.raises(ValueError, match="repeats a mode"):
        ose_transform_terms(terms, complete_graphs(4, 1))


@pytest.mark.parametrize("encoding", ["jw", "ose"])
def test_double_excitation_sums_are_cut_by_the_merge_eps_rule(encoding):
    # the strings of g (a_i^ a_j^ a_k a_l + h.c.) on distinct supports carry
    # +/- g/8, exactly for these g, and bypass the merge, so the fold itself
    # keeps |c| >= eps, or c != 0 at eps 0 (a NaN or infinite eps raises:
    # test_an_eps_outside_zero_to_infinity_raises, on double excitations only)
    def transform(rows, g, eps):
        terms = ClassifiedTerms({Kind.DOUBLE_EXCITATION: (np.array(rows), np.array(g))})
        if encoding == "jw":
            return jw_transform_terms(terms, 8, eps=eps)
        return ose_transform_terms(terms, complete_graphs(4, 2), eps=eps)

    eps = 2.0**-20
    at = transform([[0, 4, 5, 1]], [8 * eps], eps)
    assert len(at) == 8 and (np.abs(at.coefficients) == eps).all()
    assert len(transform([[0, 4, 5, 1]], [8 * np.nextafter(eps, 0)], eps)) == 0
    least = np.nextafter(0.0, 1.0)
    rows = [[0, 4, 5, 1], [0, 4, 5, 1], [2, 6, 7, 3]]
    at_zero = transform(rows, [0.5, -0.5, 8 * least], 0.0)  # the first support cancels exactly
    assert len(at_zero) == 8 and (np.abs(at_zero.coefficients) == least).all()


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0])
def test_an_eps_outside_zero_to_infinity_raises(eps):
    # a NaN or infinite eps dropped every term, and |imag| > NaN is never true
    terms = random_terms(Kind.DOUBLE_EXCITATION, 4, seed=0)
    with pytest.raises(ValueError, match="eps must be non-negative and finite"):
        jw_transform_terms(terms, 4, eps=eps)
    with pytest.raises(ValueError, match="eps must be non-negative and finite"):
        ose_transform_terms(terms, complete_graphs(4, 1), eps=eps)
