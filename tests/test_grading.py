"""Grading groups and commutation factors."""

import itertools
import random
from fractions import Fraction

import pytest

from rhocalc.cyclo import Cyclo
from rhocalc.errors import ConstraintViolation
from rhocalc.grading import (GroupSpec, super_factor, torus_factor,
                             trivial_factor, validate_factor)

from conftest import chevalley_context, torus8_context, torus_context


def test_group_spec_validation():
    with pytest.raises(ConstraintViolation):
        GroupSpec(-1)
    with pytest.raises(ConstraintViolation):
        GroupSpec(0, (1,))
    g = GroupSpec(1, (2, 4))
    assert g.ngens == 3
    assert g.describe() == "Z * Z/2 * Z/4"


def test_degree_canonical_residues():
    g = GroupSpec(1, (3,))
    d = g.degree(-2, 5)
    assert d.parts == (-2, 2)
    assert (d + d).parts == (-4, 1)
    assert (-d).parts == (2, 1)
    assert (d - d).is_zero()


def test_super_factor_is_valid_and_evaluates():
    fac = super_factor()
    one = fac.group.degree(1)
    assert fac.rho(one, one) == Cyclo.rational(-1)
    assert fac.parity(one) == "odd"
    assert fac.rho(fac.group.zero(), one) == Cyclo.one()


def test_trivial_factor_on_z():
    fac = trivial_factor()
    d = fac.group.degree(5)
    assert fac.rho(d, d) == Cyclo.one()
    assert fac.parity(d) == "even"


def test_torsion_consistency_rejects_z3_half():
    # on Z/3 the only factor is trivial; a half-phase is inconsistent
    with pytest.raises(ConstraintViolation) as err:
        validate_factor(GroupSpec(0, (3,)), [[Fraction(1, 2)]])
    assert err.value.which in ("torsion", "diagonal")


def test_antisymmetry_violation():
    with pytest.raises(ConstraintViolation) as err:
        validate_factor(GroupSpec(2), [[0, Fraction(1, 4)],
                                       [Fraction(1, 4), 0]])
    assert err.value.which == "antisymmetry"


def test_torus_phase_value():
    # oracle: the phase of rho(e1, e2) is exactly theta12
    fac = torus_factor([[0, Fraction(1, 4)], [-Fraction(1, 4), 0]])
    e1, e2 = fac.group.generator(0), fac.group.generator(1)
    assert fac.phase(e1, e2) == Fraction(1, 4)
    assert fac.rho(e1, e2) == Cyclo.root_of_unity(4)
    assert fac.rho(e2, e1) == Cyclo.root_of_unity(4).inverse()
    assert fac.parity(e1) == "even"
    assert fac.parity(fac.group.degree(3, -5)) == "even"


def test_extend_prime_values():
    # trivial factor on Z gains a sign-carrying generator
    fac = trivial_factor()
    pf = fac.extend_prime()
    d = pf.group.degree(1, 0)
    assert pf.rho(d, d) == Cyclo.rational(-1)
    # the super factor's parity-shifted generators become even
    sf = super_factor()
    spf = sf.extend_prime()
    s = spf.group.degree(1, 1)
    assert spf.rho(s, s) == Cyclo.one()


def test_extend_prime_twice():
    # iterating the sign extension literally: the two added generators are
    # independent, so mixed (1,0)/(0,1) sign slots contribute nothing
    rng = random.Random(3)
    fac = torus_factor([[0, Fraction(1, 8)], [-Fraction(1, 8), 0]])
    pp = fac.extend_prime().extend_prime()
    for _ in range(10):
        i = fac.group.degree(rng.randint(-2, 2), rng.randint(-2, 2))
        j = fac.group.degree(rng.randint(-2, 2), rng.randint(-2, 2))
        lhs = pp.rho(pp.group.degree(1, 0, *i.parts), pp.group.degree(0, 1, *j.parts))
        assert lhs == fac.rho(i, j)
        both = pp.rho(pp.group.degree(1, 1, *i.parts), pp.group.degree(1, 1, *j.parts))
        assert both == fac.rho(i, j)  # (-1)^(1*1) twice cancels


FACTORIES = [
    ("super", super_factor, 1),
    ("trivial", lambda: trivial_factor(GroupSpec(2)), 2),
    ("torus", lambda: torus_factor([[0, Fraction(1, 4)], [-Fraction(1, 4), 0]]), 2),
]


@pytest.mark.parametrize("label,factory,ngens", FACTORIES)
def test_factor_axioms_fuzz(label, factory, ngens):
    fac = factory()
    g = fac.group
    rng = random.Random(f"test_factor_axioms_fuzz/{label}")

    def rand_degree():
        return g.degree(*[rng.randint(-3, 3) for _ in range(g.ngens)])

    one = Cyclo.one()
    for _ in range(200):
        i, j, k = rand_degree(), rand_degree(), rand_degree()
        assert fac.rho(i, j) * fac.rho(j, i) == one
        assert fac.rho(i + j, k) == fac.rho(i, k) * fac.rho(j, k)
        assert fac.rho(i, j + k) == fac.rho(i, j) * fac.rho(i, k)
        rii = fac.rho(i, i)
        assert rii == one or rii == Cyclo.rational(-1)
        assert fac.rho(g.zero(), i) == one
        # parity is multiplicative
        assert fac.rho(i + j, i + j) == (fac.rho(i, i) * fac.rho(j, j)
                                         * fac.rho(i, j) * fac.rho(j, i))


@pytest.mark.parametrize("label,factory", [(lab, fac) for lab, fac, _ in FACTORIES] + [
    ("torus8", lambda: torus8_context().factor),
    ("torus8''", lambda: torus8_context().factor.extend_prime().extend_prime())])
def test_integer_phase_is_the_fraction_bilinear_sum(label, factory):
    fac = factory()
    g, n = fac.group, fac.conductor
    rng = random.Random(label)
    for _ in range(300):
        i = g.degree(*[rng.randint(-5, 5) for _ in range(g.ngens)])
        j = g.degree(*[rng.randint(-5, 5) for _ in range(g.ngens)])
        want = sum((ia * jb * fac.phases[a][b]
                    for a, ia in enumerate(i.parts)
                    for b, jb in enumerate(j.parts)), Fraction(0)) % 1
        k = fac.phase_k(i, j)
        assert 0 <= k < n and Fraction(k, n) == want
        assert fac.phase(i, j) == want


@pytest.mark.parametrize("label,factory", [
    ("super", super_factor),
    ("torus4", lambda: torus_context().factor),
    ("torus8", lambda: torus8_context().factor),
    ("chevalley", lambda: chevalley_context()[0].factor),
    ("torus8'", lambda: torus8_context().factor.extend_prime())])
def test_root_table_matches_a_fresh_root(label, factory):
    # every degree pair with free parts in -2..2: the cached root is
    # exp(2 pi i phase) built afresh, in value and in stored conductor
    fac = factory()
    g = fac.group
    span = [range(-2, 3)] * g.free_rank + [range(n) for n in g.torsion_orders]
    degrees = [g.degree(*parts) for parts in itertools.product(*span)]
    for i in degrees:
        for j in degrees:
            got, want = fac.rho(i, j), Cyclo.from_phase(fac.phase(i, j))
            assert got == want and got.n == want.n, (i, j)


def test_factor_root_reads_zeta_at_the_conductor():
    fac = torus_context().factor        # conductor 4
    e1, e2 = fac.group.generator(0), fac.group.generator(1)
    assert fac.rho(e2, e1) == fac.root(3) == Cyclo.root_of_unity(4, 3)
    assert fac.rho(e1 * 2, e2) == fac.root(2) == Cyclo.rational(-1)
    assert fac.root(0) == Cyclo.one()


def test_phase_matrix_shape_checks():
    with pytest.raises(ConstraintViolation):
        validate_factor(GroupSpec(2), [[0]])
    with pytest.raises(ConstraintViolation):
        torus_factor([[0, Fraction(1, 3)], [Fraction(1, 3), 0]])
