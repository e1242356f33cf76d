"""Group arithmetic, duality, transversals and the Fourier transform."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaborop import (
    Automorphism,
    DualElement,
    FiniteAbelianGroup,
    GroupElement,
    GroupMismatchError,
    MatrixSignal,
    MeasurePair,
    SignalSpace,
    Subgroup,
    annihilator,
    character_value,
    fourier,
    intersection,
    inverse_fourier,
    modulate,
    translate,
    transversal,
)
from helpers import (
    oracle_annihilator,
    oracle_automorphism_images,
    oracle_character,
    oracle_fourier,
    oracle_norm_sq,
    oracle_span,
    oracle_transversal,
    random_signal,
)

_GROUPS = [(12,), (16,), (9,), (4, 6), (2, 2, 2)]


def test_character_trivial():
    g = FiniteAbelianGroup((12,))
    zero = g.dual_zero()
    for x in g.elements():
        assert character_value(zero, x) == 1.0


def test_character_z4_quarter_turn():
    g = FiniteAbelianGroup((4,))
    val = character_value(g.dual_element([1]), g.element([1]))
    assert abs(val - 1j) < 1e-12


def test_character_z16_wraps_to_one():
    g = FiniteAbelianGroup((16,))
    val = character_value(g.dual_element([8]), g.element([2]))
    assert abs(val - oracle_character((16,), (8,), (2,))) < 1e-12
    assert abs(val - 1.0) < 1e-12


def test_character_unit_modulus(rng):
    g = FiniteAbelianGroup((5, 9))
    for _ in range(50):
        gamma = g.dual_element([int(rng.integers(0, 5)), int(rng.integers(0, 9))])
        x = g.element([int(rng.integers(0, 5)), int(rng.integers(0, 9))])
        v = character_value(gamma, x)
        assert abs(abs(v) - 1.0) < 1e-12
        assert abs(v - oracle_character(g.factors, gamma.coords, x.coords)) < 1e-12


def test_character_group_mismatch():
    g1 = FiniteAbelianGroup((4,))
    g2 = FiniteAbelianGroup((8,))
    with pytest.raises(GroupMismatchError):
        character_value(g2.dual_element([1]), g1.element([1]))
    with pytest.raises(GroupMismatchError):
        character_value(g1.element([1]), g1.element([1]))


def test_annihilator_extremes():
    g = FiniteAbelianGroup((12,))
    full = Subgroup.full(g)
    assert [e.coords for e in annihilator(full)] == [(0,)]
    triv = Subgroup.trivial(g)
    assert len(annihilator(triv)) == 12


def test_annihilator_z16_brute_force():
    g = FiniteAbelianGroup((16,))
    lat = Subgroup(g, [g.element([2])])
    ann = annihilator(lat)
    # oracle: all characters trivial on the lattice, found by direct search
    expected = []
    for gamma in g.dual_elements():
        if all(
            abs(oracle_character((16,), gamma.coords, x.coords) - 1.0) < 1e-12
            for x in lat
        ):
            expected.append(gamma.coords)
    assert [e.coords for e in ann] == sorted(expected)
    assert [e.coords for e in ann] == [(0,), (8,)]


def _all_cyclic_subgroups(g):
    seen = set()
    out = []
    for e in g.elements():
        sub = Subgroup(g, [e])
        if sub not in seen:
            seen.add(sub)
            out.append(sub)
    return out


@pytest.mark.parametrize("factors", [(12,), (16,), (2, 4), (6,), (2, 2, 2)])
def test_annihilator_order_product_exhaustive(factors):
    g = FiniteAbelianGroup(factors)
    for sub in _all_cyclic_subgroups(g):
        ann = annihilator(sub)
        assert len(sub) * len(ann) == g.order


@pytest.mark.parametrize("factors", [(12,), (2, 4), (9,)])
def test_double_annihilator_identity(factors):
    g = FiniteAbelianGroup(factors)
    for sub in _all_cyclic_subgroups(g):
        back = annihilator(annihilator(sub))
        assert [e.coords for e in back] == [e.coords for e in sub]


def test_transversal_extremes():
    g = FiniteAbelianGroup((16,))
    assert [e.coords for e in transversal(Subgroup.full(g, dual=True))] == [(0,)]
    triv = Subgroup.trivial(g, dual=True)
    assert [e.coords for e in transversal(triv)] == [(i,) for i in range(16)]


def test_transversal_z16_eight():
    g = FiniteAbelianGroup((16,))
    sub = Subgroup(g, [g.dual_element([8])])
    assert [e.coords for e in transversal(sub)] == [(i,) for i in range(8)]


@pytest.mark.parametrize("factors,gen", [((16,), [4]), ((12,), [3]), ((2, 4), [1, 2])])
def test_transversal_partitions(factors, gen):
    g = FiniteAbelianGroup(factors)
    sub = Subgroup(g, [g.dual_element(gen)])
    reps = transversal(sub)
    covered = set()
    for v in reps:
        for w in sub:
            e = v + w
            assert e not in covered
            covered.add(e)
    assert len(covered) == g.order


def test_fourier_constant_is_point_mass():
    g = FiniteAbelianGroup((8,))
    space = SignalSpace(g, 1, MeasurePair.torus_like(g))
    f = MatrixSignal(space, np.ones((8, 1, 1)))
    fhat = fourier(f)
    assert abs(fhat.values[0, 0, 0] - 1.0) < 1e-12
    assert np.abs(fhat.values[1:]).max() < 1e-12


def test_fourier_flat_spectrum_spike_roundtrip():
    g = FiniteAbelianGroup((8,))
    space = SignalSpace(g, 1, MeasurePair.torus_like(g))
    hat = MatrixSignal(space, np.ones((8, 1, 1)), dual=True)
    phi = inverse_fourier(hat)
    # all spectral mass collapses onto the origin
    assert abs(phi.values[0, 0, 0] - 8.0) < 1e-12
    assert np.abs(phi.values[1:]).max() < 1e-12
    back = fourier(phi)
    assert np.abs(back.values - hat.values).max() < 1e-10


def test_fourier_roundtrip_and_plancherel_random(rng):
    g = FiniteAbelianGroup((6,))
    space = SignalSpace(g, 2, MeasurePair.torus_like(g))
    for _ in range(100):
        f = random_signal(space, rng)
        fhat = fourier(f)
        assert np.abs(fhat.values - oracle_fourier(f)).max() < 1e-10
        back = inverse_fourier(fhat)
        assert np.abs(back.values - f.values).max() < 1e-10
        assert abs(oracle_norm_sq(f) - oracle_norm_sq(fhat)) < 1e-10


def test_fourier_shift_identities(rng):
    g = FiniteAbelianGroup((12,))
    space = SignalSpace(g, 2, MeasurePair.torus_like(g))
    for _ in range(20):
        f = random_signal(space, rng)
        a = g.element([int(rng.integers(0, 12))])
        eta = g.dual_element([int(rng.integers(0, 12))])
        lhs = fourier(translate(f, a))
        for gamma in g.dual_elements():
            expected = np.conj(character_value(gamma, a)) * fourier(f).values[gamma.index]
            assert np.abs(lhs.values[gamma.index] - expected).max() < 1e-10
        assert np.abs(
            fourier(modulate(f, eta)).values - translate(fourier(f), eta).values
        ).max() < 1e-10


def test_transforms_and_shifts_stay_small_at_4096():
    # no |G| x |G| table: each operation holds O(|G|) memory (the signal
    # itself is 64 KB here, a character table would be 268 MB)
    import tracemalloc

    g = FiniteAbelianGroup((4096,))
    space = SignalSpace(g, 1, MeasurePair.torus_like(g))
    f = MatrixSignal(space, np.arange(4096.0).reshape(4096, 1, 1))
    tracemalloc.start()
    try:
        fhat = fourier(f)
        inverse_fourier(fhat)
        translate(f, g.element([5]))
        modulate(f, g.dual_element([7]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_automorphism_identity_and_unit():
    from gaborop import apply_automorphism

    g = FiniteAbelianGroup((8,))
    ident = Automorphism.identity(g)
    x = g.element([5])
    assert ident(x) == x
    triple = Automorphism(g, [3])
    assert triple(x).coords == (7,)  # 15 mod 8
    assert apply_automorphism(triple, x) == triple(x)


def test_identity_automorphism_takes_no_image_test(monkeypatch):
    # the identity is bijective on any factors: no |G|-sized image test, which
    # every other matrix still takes; the identity matrix is built directly
    # too, since Automorphism.identity may hand out a shared object
    import gaborop.groups as groups

    calls = []
    positions = groups._positions
    monkeypatch.setattr(groups, "_positions", lambda *a: calls.append(a) or positions(*a))
    g = FiniteAbelianGroup((4, 6))
    for dual in (False, True):
        for ident in (Automorphism.identity(g, dual=dual),
                      Automorphism(g, np.eye(2, dtype=np.int64), dual=dual)):
            assert ident.dual == dual and np.array_equal(ident.matrix, np.eye(2))
            coords = np.array([[3, 5], [1, 2]])
            assert np.array_equal(ident.apply(coords), coords)
    assert not calls
    Automorphism(g, [[3, 0], [0, 1]])
    assert len(calls) == 1
    with pytest.raises(ValueError):
        Automorphism(g, [[2, 0], [0, 1]])


def test_automorphism_bijective_z9():
    g = FiniteAbelianGroup((9,))
    double = Automorphism(g, [2])
    image = {double(x) for x in g.elements()}
    assert len(image) == 9


def test_automorphism_rejects_non_unit():
    g = FiniteAbelianGroup((8,))
    with pytest.raises(ValueError):
        Automorphism(g, [2])


def test_automorphism_homomorphism_property(rng):
    g = FiniteAbelianGroup((2, 4))
    auto = Automorphism(g, [[1, 0], [2, 1]])
    for _ in range(30):
        x = g.element([int(rng.integers(0, 2)), int(rng.integers(0, 4))])
        y = g.element([int(rng.integers(0, 2)), int(rng.integers(0, 4))])
        assert auto(x + y) == auto(x) + auto(y)


def test_automorphism_rejects_ill_defined_matrix():
    g = FiniteAbelianGroup((2, 4))
    Automorphism(g, [[1, 1], [0, 1]])  # Z4 -> Z2 coupling is fine
    with pytest.raises(ValueError):
        Automorphism(g, [[1, 0], [1, 1]])  # Z2 -> Z4 entry 1 is not a homomorphism


def test_automorphism_keeps_a_frozen_copy_of_its_matrix():
    # on Z8, [3] -> [2] would map 1 and 5 both to 2: neither the caller's
    # array nor .matrix can turn an accepted map into that one
    g = FiniteAbelianGroup((8,))
    given = np.array([[3]])
    auto = Automorphism(g, given)
    given[0, 0] = 2
    assert not auto.matrix.flags.writeable
    with pytest.raises(ValueError):
        auto.matrix[0, 0] = 2
    assert [auto(x).coords for x in g.elements()] == [((3 * k) % 8,) for k in range(8)]


def test_automorphism_equality_is_by_value():
    g = FiniteAbelianGroup((4, 6))
    a, b = Automorphism(g, [[3, 0], [0, 1]]), Automorphism(g, np.array([3, 1]))
    assert a == b and hash(a) == hash(b)
    assert a != Automorphism(g, [[1, 0], [0, 5]])
    assert a != Automorphism(g, [[3, 0], [0, 1]], dual=True)
    assert Automorphism.identity(g) == Automorphism(g, [1, 1])
    assert Automorphism(FiniteAbelianGroup((8,)), [3]) != Automorphism(
        FiniteAbelianGroup((16,)), [3])
    assert len({a, b, Automorphism.identity(g)}) == 2
    # a map compares by its residues: entry (i, j) acts mod N_i
    z16 = FiniteAbelianGroup((16,))
    c, d = Automorphism(z16, [3]), Automorphism(z16, [19])
    assert c == d and hash(c) == hash(d)


def test_subgroup_closure_is_shared_by_value():
    # generators equal mod the factors close once, into one read-only array
    g = FiniteAbelianGroup((4, 6))
    a, b = Subgroup(g, [g.element([1, 2])]), Subgroup(g, [g.element([5, 8])])
    assert a.least is b.least and not a.least.flags.writeable
    assert a == b and Subgroup(g, [g.element([2, 2])]).least is not a.least


def test_measure_pair_validation():
    g = FiniteAbelianGroup((8,))
    MeasurePair.torus_like(g)
    MeasurePair.counting(g)
    with pytest.raises(ValueError):
        MeasurePair(1.0, 1.0, g.order)
    with pytest.raises(ValueError):
        MeasurePair(-0.125, 1.0, g.order)


def test_subgroup_structure():
    g = FiniteAbelianGroup((12,))
    sub = Subgroup(g, [g.element([4])])
    assert [e.coords for e in sub] == [(0,), (4,), (8,)]
    assert g.element([8]) in sub
    assert g.element([2]) not in sub
    assert 12 % len(sub) == 0


@st.composite
def _generated_subgroups(draw):
    factors = draw(st.sampled_from(_GROUPS))
    group = FiniteAbelianGroup(factors)
    dual = draw(st.booleans())
    gens = draw(st.lists(st.tuples(*(st.integers(-2 * n, 2 * n) for n in factors)),
                         max_size=4))
    if gens and draw(st.booleans()):  # a redundant generator: a combination of two others
        a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        k = draw(st.integers(-3, 3))
        gens.append(tuple(x + k * y for x, y in zip(a, b)))
    make = group.dual_element if dual else group.element
    return group, dual, [make(c) for c in gens]


@settings(max_examples=200)
@given(_generated_subgroups())
def test_subgroup_annihilator_transversal_match_loop_oracles(case):
    group, dual, gens = case
    sub = Subgroup(group, gens, dual=dual)
    members = oracle_span(group, gens, dual)
    assert [e.coords for e in sub] == members
    assert sub.coords.tolist() == [list(c) for c in members]
    assert all(type(e) is (DualElement if dual else GroupElement) for e in sub)
    assert [e.coords for e in transversal(sub)] == oracle_transversal(group, list(sub), dual)
    ann = annihilator(sub)
    assert ann.dual != dual
    assert [e.coords for e in ann] == oracle_annihilator(group, members)
    assert len(ann.generators) <= math.log2(group.order)
    assert annihilator(ann) == sub and hash(annihilator(ann)) == hash(sub)


_AUTOMORPHISMS = {(8,): [[1], [3], [5], [7]], (12,): [[1], [5], [7], [11]],
                  (4, 6): [[[1, 0], [0, 1]], [[3, 0], [0, 1]], [[1, 0], [0, 5]],
                           [[1, 2], [3, 1]], [[3, 2], [3, 5]]]}


@st.composite
def _moved_subgroup_pairs(draw):
    """Two subgroups on one side of Z8, Z12 or Z4 x Z6, each generated by
    images under an automorphism."""
    factors = draw(st.sampled_from(sorted(_AUTOMORPHISMS)))
    group = FiniteAbelianGroup(factors)
    dual = draw(st.booleans())
    make = group.dual_element if dual else group.element
    pair = []
    for _ in range(2):
        auto = Automorphism(group, draw(st.sampled_from(_AUTOMORPHISMS[factors])), dual=dual)
        gens = draw(st.lists(st.tuples(*(st.integers(0, n - 1) for n in factors)), max_size=3))
        pair.append([auto(make(c)) for c in gens])
    return group, dual, pair


@settings(max_examples=200)
@given(_moved_subgroup_pairs())
@example((FiniteAbelianGroup((4, 6)), False,  # Z2 x Z2 = <(2, 0), (0, 3)>, not cyclic
          [[GroupElement(FiniteAbelianGroup((4, 6)), (2, 0)),
            GroupElement(FiniteAbelianGroup((4, 6)), (0, 1))],
           [GroupElement(FiniteAbelianGroup((4, 6)), (2, 3)),
            GroupElement(FiniteAbelianGroup((4, 6)), (0, 3))]]))
def test_intersection_and_characters_match_loop_oracles(case):
    # the intersection is the members common to both spans, and the character
    # table of a subgroup holds each of its |H| characters once, as values at
    # its members in canonical order, row i labelled by the i-th least member
    # of the cosets of the annihilator
    from itertools import product

    from gaborop.groups import _cosets, _subgroup_characters

    group, dual, (gens_a, gens_b) = case
    a, b = Subgroup(group, gens_a, dual=dual), Subgroup(group, gens_b, dual=dual)
    common = sorted(set(oracle_span(group, gens_a, dual)) & set(oracle_span(group, gens_b, dual)))
    both = intersection(a, b)
    assert both.dual == dual and [e.coords for e in both] == common
    assert both == intersection(b, a) and len(both.generators) <= math.log2(group.order)
    table = _subgroup_characters(both)
    other = group.element if dual else group.dual_element
    labels = oracle_transversal(group, [other(c) for c in oracle_annihilator(group, common)],
                                not dual)
    want = [[oracle_character(group.factors, gamma, x) for x in common] for gamma in labels]
    assert np.allclose(table, want, rtol=0.0, atol=1e-12)
    # distinct characters: the table is |H| times a unitary
    assert np.allclose(table @ table.conj().T, len(both) * np.eye(len(both)), rtol=0.0, atol=1e-9)
    # the cosets of a, each listed as the cosets of the intersection it holds:
    # t + h over h in canonical order, t the least member of its coset
    make = group.dual_element if dual else group.element
    points = list(map(make, product(*(range(n) for n in group.factors))))
    plain = _cosets(a)
    nested = _cosets(a, both).reshape(len(plain), -1, len(both))
    assert [sorted(row) for row in nested.reshape(len(plain), -1).tolist()] == plain.tolist()
    for row in nested.reshape(-1, len(both)).tolist():
        t = points[row[0]]
        assert [points[x] for x in row] == [t + h for h in both]
        assert t == min(points[x] for x in row)


def test_intersection_rejects_mixed_sides():
    g = FiniteAbelianGroup((12,))
    with pytest.raises(GroupMismatchError):
        intersection(Subgroup.full(g), Subgroup.full(g, dual=True))


@st.composite
def _integer_matrices(draw):
    factors = draw(st.sampled_from(_GROUPS))
    rank = len(factors)
    matrix = []
    for i in range(rank):
        row = []
        for j in range(rank):
            k = draw(st.integers(-9, 9))
            # a multiple of N_i / gcd(N_i, N_j) keeps the entry well defined
            aligned = draw(st.booleans())
            row.append(k * (factors[i] // math.gcd(factors[i], factors[j])) if aligned else k)
        matrix.append(row)
    return FiniteAbelianGroup(factors), matrix


@settings(max_examples=300)
@given(_integer_matrices())
@example((FiniteAbelianGroup((4, 6)), [[1, 2], [3, 1]]))
@example((FiniteAbelianGroup((4, 6)), [[3, 2], [3, 5]]))
@example((FiniteAbelianGroup((12,)), [[9]]))
def test_automorphism_acceptance_matches_enumeration(case):
    group, matrix = case
    images = oracle_automorphism_images(group, matrix)
    if images is None:
        with pytest.raises(ValueError):
            Automorphism(group, matrix)
        return
    auto = Automorphism(group, matrix)
    assert [auto(x).coords for x in group.elements()] == images
    coords = np.array([x.coords for x in group.elements()]).reshape(-1, 1, group.rank)
    assert auto.apply(coords).reshape(-1, group.rank).tolist() == [list(c) for c in images]


@pytest.mark.parametrize("factors,element,matrix", [
    ((4096,), [64], [5]),
    ((64, 64), [1, 0], [[1, 1], [0, 1]]),
])
def test_subgroup_machinery_stays_small_at_4096(factors, element, matrix):
    # closure, annihilator and transversal work on |G|-sized arrays, never on
    # |span| x |orbit| temporaries; automorphisms are checked on one image array
    import tracemalloc

    g = FiniteAbelianGroup(factors)
    gen = g.element(element)
    redundant = [gen + gen, gen, -gen, gen + gen + gen]
    tracemalloc.start()
    try:
        subgroups = [Subgroup.full(g), Subgroup.trivial(g), Subgroup(g, [gen]),
                     Subgroup(g, redundant)]
        for sub in subgroups:
            annihilator(sub)
            transversal(sub)
        Automorphism(g, matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(sub) for sub in subgroups] == [4096, 1, 64, 64]
    assert peak < 8 * 2**20
