"""Seeded instance generators: feasibility, defect control, determinism."""

import numpy as np
import pytest

import symext as sx
from symext.cayley import defect_data
from symext.errors import SpecInfeasible
from symext.instances import InstanceSpec, gen_symmetric, truncated_shift
from symext.operators import is_injective, is_symmetric
from symext.serialize import json_dump, operator_file
from symext.subspaces import orthonormalize


def test_spec_resolves_dense_range():
    assert InstanceSpec(ambient_dim=4, defect=0).dense_range is True
    assert InstanceSpec(ambient_dim=4, defect=2).dense_range is False


def test_spec_infeasible_combinations():
    with pytest.raises(SpecInfeasible):
        InstanceSpec(ambient_dim=4, defect=2, dense_range=True)
    with pytest.raises(SpecInfeasible):
        InstanceSpec(ambient_dim=4, defect=0, dense_range=False)
    with pytest.raises(SpecInfeasible):
        InstanceSpec(ambient_dim=3, defect=5)
    with pytest.raises(SpecInfeasible):
        InstanceSpec(ambient_dim=3, defect=1, spectrum_window=(-1.0, 1.0))
    with pytest.raises(SpecInfeasible):
        InstanceSpec(ambient_dim=3, defect=1, spectrum_window=(2.0, 0.5))


def test_gen_symmetric_properties():
    for seed in range(12):
        d = 3 + seed % 6
        n = 1 + seed % min(3, d - 1)
        a = gen_symmetric(InstanceSpec(ambient_dim=d, defect=n, seed=seed))
        assert a.ambient_dim == d and a.domain.dim == d - n
        assert is_symmetric(a) and is_injective(a)
        dd = defect_data(a, 1j)
        assert (dd.n_z.dim, dd.n_zbar.dim) == (n, n)
        # range codimension equals the defect for symmetric injective A
        ran = orthonormalize(a.action)
        assert d - ran.dim == n


def test_gen_symmetric_compression_respects_window():
    lo, hi = 0.5, 2.0
    for seed in range(8):
        a = gen_symmetric(InstanceSpec(ambient_dim=6, defect=2, seed=seed,
                                       spectrum_window=(lo, hi)))
        # Cauchy interlacing: the compression inherits the window's bounds
        eigs = np.linalg.eigvalsh(a.compression())
        assert np.all(eigs >= lo - 1e-12) and np.all(eigs <= hi + 1e-12)


def test_gen_symmetric_negative_window():
    a = gen_symmetric(InstanceSpec(ambient_dim=5, defect=1, seed=3,
                                   spectrum_window=(-3.0, -1.0)))
    eigs = np.linalg.eigvalsh(a.compression())
    assert np.all(eigs <= -1.0 + 1e-12) and np.all(eigs >= -3.0 - 1e-12)
    assert is_injective(a)


def test_gen_symmetric_dense_range():
    a = gen_symmetric(InstanceSpec(ambient_dim=4, defect=0, seed=1))
    assert a.domain.dim == 4
    assert orthonormalize(a.action).dim == 4


def test_gen_symmetric_smallest_case_matches_worked_shape(worked_a):
    # d = 2, n = 1: same defect pattern and one-dimensional range complement
    # as the worked operator, the invariants a unitary change of basis keeps
    for seed in range(6):
        a = gen_symmetric(InstanceSpec(ambient_dim=2, defect=1, seed=seed))
        assert a.domain.dim == 1
        assert is_symmetric(a) and is_injective(a)
        for op, z in ((a, 1j), (worked_a, 1j)):
            dd = defect_data(op, z)
            assert (dd.n_z.dim, dd.n_zbar.dim) == (1, 1)
        assert 2 - orthonormalize(a.action).dim == 1
        # the lone domain vector is an eigenvector-like direction only for
        # the worked operator; genericity keeps action and domain distinct
        assert np.linalg.norm(a.action) > 0.5


def test_gen_symmetric_deterministic_serialization():
    spec = InstanceSpec(ambient_dim=7, defect=3, seed=42)
    one = json_dump(operator_file(gen_symmetric(spec)))
    two = json_dump(operator_file(gen_symmetric(spec)))
    assert one == two
    other = json_dump(operator_file(gen_symmetric(
        InstanceSpec(ambient_dim=7, defect=3, seed=43))))
    assert one != other


def test_truncated_shift_validation():
    with pytest.raises(SpecInfeasible):
        truncated_shift(0)


def test_truncated_shift_properties():
    for n in (1, 2, 5):
        a = truncated_shift(n)
        assert a.ambient_dim == n + 1
        assert a.domain.dim == n
        assert is_symmetric(a) and is_injective(a)
        dd = defect_data(a, 1j)
        assert (dd.n_z.dim, dd.n_zbar.dim) == (1, 1)


def test_truncated_shift_underlying_isometry_has_no_fixed_vectors():
    # V e_k = e_{k+1} on the first n coordinates; V - E is injective there
    n = 4
    d = n + 1
    v = np.zeros((d, n), dtype=complex)
    v[1:, :] = np.eye(n)
    shifted = v - np.eye(d, n, dtype=complex)
    assert np.linalg.matrix_rank(shifted) == n
    # and the resulting operator is the inverse Cayley transform at i of V
    a = truncated_shift(n)
    dom = orthonormalize(shifted)
    assert a.domain.distance(dom) < 1e-12


def test_truncated_shift_cayley_recovers_shift():
    a = truncated_shift(3)
    dd = defect_data(a, 1j)
    u = sx.cayley(a, 1j)
    # the Cayley transform of the section maps (A - i)f back along the shift
    f = a.domain.frame[:, 0]
    assert np.allclose(u.apply(a.apply(f) - 1j * f), a.apply(f) + 1j * f, atol=1e-12)
    assert dd.m_z.dim == 3
