"""Group arithmetic, duality, transversals and the Fourier transform."""

import numpy as np
import pytest

from gaborop import (
    Automorphism,
    FiniteAbelianGroup,
    GroupMismatchError,
    MatrixSignal,
    MeasurePair,
    SignalSpace,
    Subgroup,
    annihilator,
    character_value,
    fourier,
    inverse_fourier,
    modulate,
    translate,
    transversal,
)
from helpers import oracle_character, oracle_fourier, oracle_norm_sq, random_signal


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
        if sub._member_set not in seen:
            seen.add(sub._member_set)
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
