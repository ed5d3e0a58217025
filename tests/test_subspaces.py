"""Subspace algebra against scipy and hand oracles: frames, intersections, sectors."""

import numpy as np
import pytest
import scipy.linalg

import symext as sx
from symext.subspaces import (DEFAULT_TOL, TOL, SectorSpec, Subspace,
                              fix_phase, near_identity, opnorm, opnorm_le, orthonormalize,
                              rank_split)

SEEDS = range(20)


def random_subspace(rng, d, k):
    raw = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    return orthonormalize(raw, ambient_dim=d)


def test_orthonormalize_collinear():
    s = orthonormalize(np.array([[1.0, 2.0], [0.0, 0.0]], dtype=complex), ambient_dim=2)
    assert s.dim == 1
    assert abs(abs(s.frame[0, 0]) - 1.0) < 1e-12


def test_orthonormalize_empty():
    s = orthonormalize(np.zeros((2, 0), dtype=complex), ambient_dim=2)
    assert s.dim == 0
    assert s.frame.shape == (2, 0)


def test_orthonormalize_orthonormal_pair():
    pair = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2)
    s = orthonormalize(pair, ambient_dim=2)
    assert s.dim == 2


def test_frame_orthonormality_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(1, 9))
        k = int(rng.integers(0, d + 1))
        s = random_subspace(rng, d, k)
        assert np.allclose(s.frame.conj().T @ s.frame, np.eye(s.dim), atol=1e-12)


def test_project_hand_values():
    s = Subspace(2, np.array([[1.0], [0.0]], dtype=complex))
    assert np.allclose(s.project(np.array([3.0, 4.0])), [3.0, 0.0])
    full = Subspace(2, np.eye(2, dtype=complex))
    v = np.array([1.0 + 2j, -3.0])
    assert np.allclose(full.project(v), v)
    zero = Subspace(2, np.zeros((2, 0), dtype=complex))
    assert np.allclose(zero.project(v), 0.0)


def test_projector_idempotent_hermitian():
    rng = np.random.default_rng(1)
    for _ in range(10):
        d = int(rng.integers(1, 8))
        s = random_subspace(rng, d, int(rng.integers(0, d + 1)))
        p = s.projector()
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.allclose(p, p.conj().T, atol=1e-12)


def test_projection_never_expands():
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = int(rng.integers(1, 8))
        s = random_subspace(rng, d, int(rng.integers(0, d + 1)))
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        assert np.linalg.norm(s.project(v)) <= np.linalg.norm(v) + 1e-12


def test_complement_hand_values():
    s = Subspace(2, np.array([[1.0], [0.0]], dtype=complex))
    c = s.complement()
    assert c.dim == 1
    assert abs(abs(c.frame[1, 0]) - 1.0) < 1e-12
    assert Subspace(2, np.eye(2, dtype=complex)).complement().dim == 0
    assert Subspace(3, np.zeros((3, 0), dtype=complex)).complement().dim == 3


def test_complement_involution():
    rng = np.random.default_rng(3)
    for _ in range(15):
        d = int(rng.integers(1, 9))
        s = random_subspace(rng, d, int(rng.integers(0, d + 1)))
        again = s.complement().complement()
        assert again.dim == s.dim
        assert s.distance(again) < 1e-10


def test_intersect_hand_values():
    e = np.eye(3, dtype=complex)
    s12 = Subspace(3, e[:, :2])
    s23 = Subspace(3, e[:, 1:])
    meet = s12.intersect(s23)
    assert meet.dim == 1
    assert abs(abs(meet.frame[1, 0]) - 1.0) < 1e-10
    assert s12.intersect(s12).distance(s12) < 1e-10
    assert Subspace(3, e[:, :1]).intersect(Subspace(3, e[:, 1:2])).dim == 0


def test_intersect_matches_scipy_principal_angles():
    # independent oracle: intersection dim = count of zero principal angles
    rng = np.random.default_rng(4)
    for _ in range(15):
        d = int(rng.integers(2, 8))
        shared = random_subspace(rng, d, int(rng.integers(0, d - 1)))
        k1 = int(rng.integers(shared.dim, d + 1))
        k2 = int(rng.integers(shared.dim, d + 1))
        s1 = orthonormalize(
            np.hstack([shared.frame,
                       rng.standard_normal((d, k1 - shared.dim))
                       + 1j * rng.standard_normal((d, k1 - shared.dim))]), ambient_dim=d)
        s2 = orthonormalize(
            np.hstack([shared.frame,
                       rng.standard_normal((d, k2 - shared.dim))
                       + 1j * rng.standard_normal((d, k2 - shared.dim))]), ambient_dim=d)
        got = s1.intersect(s2).dim
        if s1.dim and s2.dim:
            angles = scipy.linalg.subspace_angles(s1.frame, s2.frame)
            expected = int(np.sum(np.abs(angles) < 1e-7))
        else:
            expected = 0
        assert got == expected


@pytest.mark.parametrize("sine", [1e-6, 1e-8, 2e-9, 5e-10, 1e-12])
def test_intersect_cuts_where_contains_does(sine):
    # a meet direction is one the other space contains; a cosine cut of 1 - tol
    # kept sines up to sqrt(2 tol), and contains then rejected the meet
    e = np.eye(2, dtype=complex)
    u = Subspace(2, e[:, :1])
    v = Subspace(2, np.cos(sine) * e[:, :1] + np.sin(sine) * e[:, 1:])
    for s1, s2 in ((u, v), (v, u)):
        meet = s1.intersect(s2)
        assert meet.dim == (sine <= TOL.membership_factor * DEFAULT_TOL)
        assert s1.contains_subspace(meet) and s2.contains_subspace(meet)


def test_grassmann_identity():
    # dim(S1+S2) + dim(S1 cap S2) = dim S1 + dim S2, rank oracle on stacked frames
    rng = np.random.default_rng(5)
    for _ in range(15):
        d = int(rng.integers(2, 9))
        s1 = random_subspace(rng, d, int(rng.integers(0, d + 1)))
        s2 = random_subspace(rng, d, int(rng.integers(0, d + 1)))
        total = orthonormalize(np.hstack([s1.frame, s2.frame]), ambient_dim=d).dim
        meet = s1.intersect(s2).dim
        assert total + meet == s1.dim + s2.dim
        assert total == np.linalg.matrix_rank(np.hstack([s1.frame, s2.frame]), tol=1e-10)


def test_distance_is_projector_gap():
    rng = np.random.default_rng(6)
    for _ in range(10):
        d = int(rng.integers(2, 8))
        s1 = random_subspace(rng, d, int(rng.integers(0, d + 1)))
        s2 = random_subspace(rng, d, int(rng.integers(0, d + 1)))
        gap = np.linalg.norm(s1.projector() - s2.projector(), 2)
        assert abs(s1.distance(s2) - gap) < 1e-12
        assert s1.distance(s1) < 1e-12


def test_distance_from_thin_frames():
    rng = np.random.default_rng(16)
    for _ in range(20):
        d = int(rng.integers(1, 9))
        k = int(rng.integers(0, d + 1))
        s1 = random_subspace(rng, d, k)
        noise = 10.0 ** rng.uniform(-12, 0)
        s2 = orthonormalize(s1.frame + noise * (rng.standard_normal((d, k))
                                                + 1j * rng.standard_normal((d, k))),
                            ambient_dim=d)
        if s2.dim != k:
            continue
        gap = np.linalg.norm(s1.projector() - s2.projector(), 2)
        assert abs(s1.distance(s2) - gap) <= 1e-14
        assert abs(s1.distance(s2) - s2.distance(s1)) <= 1e-14
        if k < d:
            # unequal dimensions: some unit vector of one is orthogonal to the other
            s3 = random_subspace(rng, d, k + 1)
            assert s1.distance(s3) == 1.0 and s3.distance(s1) == 1.0


@pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4), (6, 1), (1, 6), (1, 1),
                                   (4, 0), (0, 4), (0, 0)])
def test_opnorm_is_numpy_spectral_norm(shape):
    rng = np.random.default_rng(sum(shape))
    real = rng.standard_normal(shape)
    for m in (real, real + 1j * rng.standard_normal(shape), real.T):
        assert opnorm(m) == np.linalg.norm(m, 2)


def test_frame_gate_decides_as_allclose():
    atol = max(DEFAULT_TOL, TOL.frame_floor) * 10
    rtol = TOL.frame_diagonal
    decisions = set()
    for k in (1, 2, 4):
        cases = []
        for i, j in {(0, 0), (k - 1, 0)}:
            bound = atol + (rtol if i == j else 0.0)
            for rel in (1 - 1e-6, 1 + 1e-6):
                for phase in (1.0, -1.0, 1j, np.exp(0.7j)):
                    g = np.eye(k, dtype=complex)
                    g[i, j] += rel * bound * phase
                    cases.append(g)
            for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
                g = np.eye(k, dtype=complex)
                g[i, j] = bad
                cases.append(g)
        for g in cases:
            decision = near_identity(g, atol, rtol)
            assert decision == np.allclose(g, np.eye(k), rtol=rtol, atol=atol)
            decisions.add(decision)
    assert decisions == {True, False}
    # the constructor applies that gate, with the diagonal slack of the record
    for rel, ok in ((1 - 1e-6, True), (1 + 1e-6, False)):
        frame = np.diag([np.sqrt(1.0 + rel * (atol + rtol)), 1.0]).astype(complex)
        if ok:
            assert Subspace(2, frame).dim == 2
        else:
            with pytest.raises(ValueError, match="orthonormal"):
                Subspace(2, frame)
    with pytest.raises(ValueError, match="orthonormal"):
        Subspace(2, np.array([[np.nan], [0.0]]))


def test_contains_and_contains_subspace():
    e = np.eye(3, dtype=complex)
    s = Subspace(3, e[:, :2])
    assert s.contains(np.array([1.0, 2.0, 0.0]))
    assert not s.contains(np.array([0.0, 0.0, 1.0]))
    assert s.contains(np.zeros(3))
    assert s.contains_subspace(Subspace(3, e[:, :1]))
    assert not s.contains_subspace(Subspace(3, e[:, 2:]))


def test_fix_phase_first_nonzero_real_positive():
    v = np.array([0.0, 1j * 2.0, 1.0])
    w = fix_phase(v)
    assert w[1].imag == pytest.approx(0.0, abs=1e-12)
    assert w[1].real > 0
    assert np.linalg.norm(w) == pytest.approx(np.linalg.norm(v))


def test_sector_spec_validation():
    with pytest.raises(ValueError):
        SectorSpec(half_plane_sign=1, epsilon=np.pi / 6, ray_angles=(np.pi / 12,),
                   radii=(0.5, 0.25))  # angle below epsilon
    with pytest.raises(ValueError):
        SectorSpec(half_plane_sign=1, epsilon=np.pi / 6, ray_angles=(-np.pi / 2,),
                   radii=(0.5, 0.25))  # wrong half-plane
    with pytest.raises(ValueError):
        SectorSpec(half_plane_sign=1, epsilon=np.pi / 6, ray_angles=(np.pi / 2,),
                   radii=(0.25, 0.5))  # radii not decreasing


def test_sector_default_for():
    sec = SectorSpec.default_for(1j)
    assert sec.half_plane_sign == 1
    assert len(sec.radii) >= 4
    assert all(r1 > r2 for r1, r2 in zip(sec.radii, sec.radii[1:]))
    pts = sec.sample_points()
    for theta, lams in pts.items():
        for lam in lams:
            assert np.sign(lam.imag) == 1
            assert abs(np.angle(lam) - theta) < 1e-12
    low = SectorSpec.default_for(-2.0 - 0.5j)
    assert low.half_plane_sign == -1
    assert all(np.sign(np.sin(t)) == -1 for t in low.ray_angles)


def test_rank_split_parts_and_floors():
    # singular values 0.5, 0.1 and 0: floor 1 cuts at tol, floor 0 at tol * 0.5
    m = np.diag([0.5, 0.1, 0.0]).astype(complex)
    for floor, tol, rank in ((1.0, 0.15, 1), (0.0, 0.15, 2), (1.0, 0.05, 2), (0.0, 0.05, 2),
                             (1.0, 0.6, 0), (0.0, 0.6, 1)):
        r, s, frame = rank_split(m, tol, floor=floor)
        assert r == rank and frame is None
        assert np.allclose(s, [0.5, 0.1, 0.0], rtol=0, atol=1e-15)
        r, _, rng = rank_split(m, tol, floor=floor, part="range")
        assert r == rank and rng.shape == (3, rank)
        assert np.allclose(np.abs(rng), np.eye(3)[:, :rank])
        r, _, null = rank_split(m, tol, floor=floor, part="null")
        assert r == rank and null.shape == (3, 3 - rank)
        assert np.allclose(np.abs(null), np.eye(3)[:, rank:])
    with pytest.raises(ValueError):
        rank_split(m, 0.1, part="kernel")


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_rank_split_empty_inputs(shape):
    m = np.zeros(shape, dtype=complex)
    rows, cols = shape
    for floor in (0.0, 1.0):
        r, s, frame = rank_split(m, DEFAULT_TOL, floor=floor)
        assert r == 0 and s.shape == (0,) and frame is None
        r, s, rng = rank_split(m, DEFAULT_TOL, floor=floor, part="range")
        assert r == 0 and s.shape == (0,) and rng.shape == (rows, 0)
        r, s, null = rank_split(m, DEFAULT_TOL, floor=floor, part="null")
        # no equations: every column direction is in the kernel
        assert r == 0 and s.shape == (0,)
        assert np.array_equal(null, np.eye(cols, dtype=complex))


def test_rank_split_value_at_the_cut_is_dropped():
    # powers of two: the SVD returns them exactly, and so does the cut
    m = np.diag([2.0, 0.5]).astype(complex)
    r, s, _ = rank_split(m, 0.25, floor=0.0)
    assert np.array_equal(s, [2.0, 0.5]) and 0.25 * s[0] == s[1]
    assert r == 1
    r, _, null = rank_split(m, 0.5, floor=1.0, part="null")
    assert r == 1 and null.shape == (2, 1)
    assert rank_split(m, 0.25 - 2 ** -20, floor=0.0)[0] == 2


def _deficient(rng, rows, cols, rank, norm):
    left = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
    right = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
    m = left @ right
    return m * (norm / np.linalg.norm(m, 2)) if rank else m


def test_rank_split_matches_the_inline_cuts_it_replaced():
    """Array-equal to the per-site formulas the toolkit used before rank_split."""
    rng = np.random.default_rng(71)
    tol = DEFAULT_TOL
    for _ in range(40):
        rows, cols = (int(v) for v in rng.integers(1, 9, size=2))
        m = _deficient(rng, rows, cols, int(rng.integers(0, min(rows, cols) + 1)),
                       float(rng.choice([1e-11, 0.3, 5.0])))

        # orthonormalize: range, relative to s[0]
        u, s, _ = np.linalg.svd(m, full_matrices=False)
        rank = int(np.sum(s > tol * s[0])) if s.size and s[0] > 0 else 0
        r, _, frame = rank_split(m, tol, floor=0.0, part="range")
        assert r == rank and np.array_equal(frame, u[:, :rank])

        # forbidden_operator, script_l: null, relative to s[0] (1 for a zero matrix)
        _, s, vh = np.linalg.svd(m, full_matrices=True)
        scale = s[0] if s.size and s[0] > 0 else 1.0
        rank = int(np.sum(s > tol * scale))
        r, s_new, null = rank_split(m, tol, floor=0.0, part="null")
        assert r == rank and np.array_equal(s_new, s)
        assert np.array_equal(null, vh[rank:].conj().T)

        # multivalued_part: null, floor 1; a floor ||m|| >= s[0] cuts relative to it
        scale = max(1.0, s[0])
        rank = int(np.sum(s > tol * scale))
        r, _, null = rank_split(m, tol, part="null")
        assert r == rank and np.array_equal(null, vh[rank:].conj().T)
        floor = max(np.linalg.norm(m, 2), 1.0)
        rank = int(np.sum(s > tol * floor))
        assert np.array_equal(rank_split(m, tol, floor=floor, part="null")[2],
                              vh[rank:].conj().T)

        # is_admissible, kernel_witness: margin s[-1], smallest right singular vector
        admissible = s[-1] > tol * max(1.0, s[0])
        _, s_new, null = rank_split(m, tol, part="null")
        if rows >= cols:
            assert (null.shape[1] == 0) == admissible
        if null.shape[1]:
            assert np.array_equal(null[:, -1], vh[-1].conj())

        # i_admissibility_test: kernel directions among the first min(rows, cols)
        dirs = [vh[i].conj() for i in range(len(s)) if s[i] <= tol * max(1.0, s[0])]
        assert np.array_equal(np.array(dirs).reshape(-1, cols),
                              null.T[:len(dirs)])

        # is_injective, compressed_resolvent, frak_b, shtraus_resolvent: values, floor 1
        s = np.linalg.svd(m, compute_uv=False)
        r, s_new, _ = rank_split(m, tol)
        assert np.array_equal(s_new, s)
        assert (r == min(rows, cols)) == bool(s[-1] > tol * max(1.0, s[0]))
        # inverse_pair, check_i_admissibility: values, relative to s[0]
        r, _, _ = rank_split(m, tol, floor=0.0)
        assert (r < min(rows, cols)) == bool(s[-1] <= tol * s[0])


@pytest.mark.parametrize("seed", range(6))
def test_clears_cut_is_a_proof_next_to_the_cut(seed):
    # s_min = ratio * tol * s0 with the ratio on both sides of 1: where the
    # bounds from the inverse certify the cut, rank_split passes it
    rng = np.random.default_rng(seed)
    tol = TOL.resolvent_singular
    for d in (2, 5, 9):
        for ratio in np.geomspace(0.3, 30.0, 25):
            u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            v, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            s = np.sort(rng.uniform(0.1, 1.0, d))[::-1]
            s[-1] = ratio * tol * s[0]
            m = rng.uniform(0.1, 10.0) * (u * s) @ v
            inv = np.linalg.inv(m)
            if sx.subspaces.clears_cut(1.0 / np.linalg.norm(inv), np.linalg.norm(m), tol):
                assert rank_split(m, tol)[0] == d, (d, ratio)


def _svd_counter(monkeypatch):
    calls = []

    def counted(m, *args, _fn=np.linalg.svd, **kwargs):
        calls.append(m.shape)
        return _fn(m, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.mark.parametrize("seed", range(4))
def test_opnorm_le_decides_as_opnorm(seed, monkeypatch):
    rng = np.random.default_rng(seed)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    cases = {"square": cplx(5, 5), "tall": cplx(7, 3), "rank-one": np.outer(cplx(6), cplx(4)),
             "single-column": cplx(6, 1), "single-row": cplx(1, 5)}
    for name, m in cases.items():
        s0 = opnorm(m)
        # at rank one ||m||_F is the spectral norm, so a bound above it needs
        # no SVD; a single row or column also has sqrt(min(m.shape)) = 1, so
        # every bound outside the rounding band is decided without one
        for rel, in_band in ((1e-6, False), (1e-14, True)):
            for bound, settled in ((s0 * (1 - rel), min(m.shape) == 1),
                                   (s0 * (1 + rel), min(m.shape) == 1 or name == "rank-one")):
                calls = _svd_counter(monkeypatch)
                assert opnorm_le(m, bound) == (s0 <= bound), (name, bound)
                if in_band or settled:
                    assert len(calls) == int(in_band), (name, rel)
                monkeypatch.undo()
        # far from s0 either way, the Frobenius bounds decide alone
        calls = _svd_counter(monkeypatch)
        assert opnorm_le(m, 2 * np.linalg.norm(m)) and not opnorm_le(m, s0 / 2 / np.sqrt(6))
        assert calls == []
        monkeypatch.undo()


def test_opnorm_le_relative_to_takes_the_scale_only_when_needed(monkeypatch):
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    s0 = opnorm(m)
    for scale in (0.5, 3.0):
        y = scale * np.eye(3)
        for bound in np.geomspace(s0 / 10, s0 * 10, 41):
            want = s0 <= bound * max(1.0, opnorm(y))
            assert opnorm_le(m, bound, relative_to=y) == want, (scale, bound)
    # the scale is at least 1: a bound that passes alone never looks at it
    seen = []
    monkeypatch.setattr(sx.subspaces, "opnorm",
                        lambda x, _fn=opnorm: seen.append(x.shape) or _fn(x))
    assert opnorm_le(m, 2 * np.linalg.norm(m), relative_to=np.eye(2))
    assert seen == []


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_opnorm_le_empty_and_non_finite():
    for shape in ((0, 0), (3, 0), (0, 2)):
        m = np.zeros(shape, dtype=complex)
        assert opnorm_le(m, 0.0) and not opnorm_le(m, -1.0)
    for bad in (np.inf, -np.inf, complex(np.inf, 1.0)):
        m = np.eye(3, dtype=complex)
        m[1, 2] = bad
        # the SVD of an infinite entry gives NaN, which no bound admits
        for bound in (0.0, 1.0, np.inf):
            assert not opnorm(m) <= bound and not opnorm_le(m, bound)
    m = np.eye(3, dtype=complex)
    m[0, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        opnorm(m)
    with pytest.raises(np.linalg.LinAlgError):
        opnorm_le(m, 1.0)
