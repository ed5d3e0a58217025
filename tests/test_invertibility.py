"""Three-way invertibility criterion and the constructive self-adjoint chain."""

import dataclasses
import importlib

import numpy as np
import pytest

import symext as sx
from symext.cayley import (cayley, defect_data, forbidden_of_inverse, forbidden_operator,
                           is_admissible)
from symext import invertibility
from symext.errors import ChoiceExhausted, NotAdmissible, NotInvertibleBase, SymextError
from symext.invertibility import (_forbidden_images, build_invertible_selfadjoint,
                                  check_invertibility, double)
from symext.neumann import ContractionParameter, extend, recover_parameter
from symext.operators import (DomainOperator, graph_contains, graph_distance, inverse_op,
                              is_injective, is_symmetric, negate, operator_from_matrix,
                              scale_op)
from symext.resolvents import EmbeddedExtension
from symext.subspaces import DEFAULT_TOL, TOL, Subspace, fix_phase, rank_split

from conftest import random_contraction, random_instance, worked_parameter

# the top of check-invert's borderline band at the default tolerance
BORDERLINE = DEFAULT_TOL * TOL.borderline_factor


def test_worked_c_minus_one_all_false(worked_a, worked_dd):
    v = check_invertibility(worked_a, 1j, worked_parameter(worked_dd, -1.0))
    assert (v.direct, v.via_admissibility, v.via_forbidden) == (False, False, False)
    assert v.agree
    assert np.allclose(v.witness, [0.0, 1.0], atol=1e-10)


def test_worked_c_eq_i_all_true(worked_a, worked_dd):
    v = check_invertibility(worked_a, 1j, worked_parameter(worked_dd, 1j))
    assert (v.direct, v.via_admissibility, v.via_forbidden) == (True, True, True)
    assert v.agree and v.witness is None
    assert min(v.margins.values()) > 0.5


def test_inverse_defect_data_built_once(monkeypatch):
    # A^{-1}'s record at 1/z is A's at z relabelled: defect_data runs once, on A
    # itself, and extend, is_admissible and forbidden_operator share it. The
    # package re-exports a function named cayley, so fetch modules by full name
    mods = {name: importlib.import_module(f"symext.{name}")
            for name in ("invertibility", "neumann", "cayley")}
    a, z, _ = random_instance(7, max_dim=6)
    parameter = random_contraction(np.random.default_rng(7), defect_data(a, z))
    calls = {name: [] for name in mods}
    for name, mod in mods.items():
        def counted(op, *args, _name=name, _fn=mod.defect_data, **kwargs):
            calls[_name].append(op)
            return _fn(op, *args, **kwargs)
        monkeypatch.setattr(mod, "defect_data", counted)
    check_invertibility(a, z, parameter)
    assert len(calls["invertibility"]) == 1 and calls["invertibility"][0] is a
    assert calls["neumann"] == [] and calls["cayley"] == []


def test_one_cayley_transform_per_check(monkeypatch):
    # counts the decisions made on A where they are made, not the calls that
    # may reach them: a check on a fresh A decides one symmetry gate (the norm
    # gate on K - K^H, K its compression, which its Frobenius norm settles
    # without an SVD), one injectivity cut (the values-only SVD of its action)
    # and one SVD of the generators A F - z F, which gives both M_z and the
    # Cayley transform; a second check on the same A reads all three from its memo
    operators = importlib.import_module("symext.operators")
    a, z, _ = random_instance(7, max_dim=6)
    parameter = random_contraction(np.random.default_rng(7), defect_data(a, z))
    fresh = sx.DomainOperator(a.domain, a.action)
    k = fresh.compression()
    skew, generators = k - k.conj().T, fresh.action - z * fresh.domain.frame
    runs = dict.fromkeys(("symmetry gate", "injectivity cut", "SVD of A F - z F",
                          "SVD of K - K^H"), 0)
    for mod, fname, label, on_a in (
            (operators, "opnorm_le", "symmetry gate", lambda m, kw: np.array_equal(m, skew)),
            (operators, "rank_split", "injectivity cut",
             lambda m, kw: m is fresh.action and kw.get("part") is None),
            (np.linalg, "svd", "SVD of A F - z F",
             lambda m, kw: np.array_equal(m, generators)),
            (np.linalg, "svd", "SVD of K - K^H", lambda m, kw: np.array_equal(m, skew))):
        def counted(m, *args, _fn=getattr(mod, fname), _label=label, _on_a=on_a, **kwargs):
            runs[_label] += bool(_on_a(m, kwargs))
            return _fn(m, *args, **kwargs)
        monkeypatch.setattr(mod, fname, counted)
    once = {**dict.fromkeys(runs, 1), "SVD of K - K^H": 0}
    first = check_invertibility(fresh, z, parameter)
    assert runs == once
    second = check_invertibility(fresh, z, parameter)
    assert runs == once
    assert (first.direct, first.via_admissibility, first.via_forbidden, first.margins) == (
        second.direct, second.via_admissibility, second.via_forbidden, second.margins)


def _verdict_bits(v):
    witness = None if v.witness is None else v.witness.tolist()
    return (v.direct, v.via_admissibility, v.via_forbidden, v.agree, witness, v.margins)


def test_second_check_reads_the_forbidden_operator_of_the_inverse_from_the_memo(monkeypatch):
    # X_{1/z}(A^{-1}) depends on (A, z) alone: a check with a new parameter on
    # the same (A, z) builds neither it nor A^{-1}, cuts no D(T) ∩ D(X), as
    # D(T) ⊂ N_z = D(X), and decides as on a fresh A
    modules = [importlib.import_module(f"symext.{name}")
               for name in ("cayley", "invertibility", "operators")]
    rng = np.random.default_rng(17)
    seen = {"invertible": 0, "singular": 0}
    for seed in range(12):
        a, z, _ = random_instance(seed, max_dim=6)
        dd = defect_data(a, z)
        check_invertibility(a, z, random_contraction(rng, dd))
        x = forbidden_of_inverse(a, dd)
        if seed % 2 and x.domain.dim:
            # T on the forbidden image: B has a kernel and every test says so
            g = x.domain.frame[:, 0]
            t = _rank_one_onto(a, g, (np.conj(z) / z) * x.apply(g))
            parameter = ContractionParameter(z, t)
        else:
            parameter = random_contraction(rng, dd)
        want = check_invertibility(sx.DomainOperator(a.domain, a.action),
                                   z, parameter)
        built = []
        with monkeypatch.context() as patch:
            for mod in modules:
                for fname in ("forbidden_operator", "inverse_op"):
                    if hasattr(mod, fname):
                        def counted(*args, _fn=getattr(mod, fname), _name=fname, **kwargs):
                            built.append(_name)
                            return _fn(*args, **kwargs)
                        patch.setattr(mod, fname, counted)
            patch.setattr(Subspace, "intersect", lambda *args, _fn=Subspace.intersect:
                          built.append("intersect") or _fn(*args))
            got = check_invertibility(a, z, parameter)
        assert built == [], seed
        assert _verdict_bits(got) == _verdict_bits(want), seed
        seen["invertible" if got.direct else "singular"] += 1
    assert min(seen.values()) > 0


def test_forbidden_of_inverse_build_cost(monkeypatch):
    # with A's injectivity in its memo, X_{1/z}(A^{-1}) takes three SVDs, of A's
    # action for R(A), of the defining system for its null space and of the n x n
    # block read off it, and no inverse or solve: A^{-1} is not formed
    for seed in range(6):
        a, z, n = random_instance(seed, max_dim=6)
        dd = defect_data(a, z)
        assert is_injective(a)
        calls = {name: [] for name in ("svd", "inv", "solve", "lstsq")}
        with monkeypatch.context() as patch:
            for name, log in calls.items():
                def counted(m, *args, _fn=getattr(np.linalg, name), _log=log, **kwargs):
                    _log.append(m.shape)
                    return _fn(m, *args, **kwargs)
                patch.setattr(np.linalg, name, counted)
            forbidden_of_inverse(a, dd)
        d, k = a.ambient_dim, a.domain_dim
        assert calls["svd"] == [(d, k), (d, 2 * n + k), (n, n)], seed
        assert calls["inv"] == calls["solve"] == calls["lstsq"] == [], seed


def test_direct_test_is_extends_injectivity_cut_alone(monkeypatch):
    # check_invertibility reads only B's injectivity of extend's report, so it
    # classifies no B and cuts no (B - w)F_B for the defect numbers; its direct
    # verdict, witness and margin have the bits of extend's report. The check
    # runs on a fresh T with the same bits: on extend's own T it would read B
    # and its cut from T's memo and make no cut at all
    neumann = importlib.import_module("symext.neumann")
    operators = importlib.import_module("symext.operators")
    rng = np.random.default_rng(23)
    seen = {"invertible": 0, "singular": 0}
    for seed in range(12):
        a, z, _ = random_instance(seed, max_dim=6)
        dd = defect_data(a, z)
        x = forbidden_of_inverse(a, dd)
        if seed % 2 and x.domain.dim:
            g = x.domain.frame[:, 0]
            parameter = ContractionParameter(
                z, _rank_one_onto(a, g, (np.conj(z) / z) * x.apply(g)))
        else:
            parameter = random_contraction(rng, dd)
        report = extend(a, z, parameter, dd)
        shifted = [report.b.action - w * report.b.domain.frame for w in (z, np.conj(z))]
        classified, cuts = [], []
        with monkeypatch.context() as patch:
            patch.setattr(neumann, "classify_operator",
                          lambda b, _fn=neumann.classify_operator: classified.append(b) or _fn(b))
            for mod in (neumann, operators):
                patch.setattr(mod, "rank_split", lambda m, *args, _fn=mod.rank_split,
                              **kwargs: cuts.append((m, kwargs)) or _fn(m, *args, **kwargs))
            got = check_invertibility(a, z, ContractionParameter(
                z, sx.DomainOperator(parameter.t.domain, parameter.t.action)))
        # the building of B cuts its generators; the one values-only cut is of B's action
        values_cuts = [m for m, kwargs in cuts if kwargs.get("part") is None]
        assert classified == [] and len(values_cuts) == 1, seed
        assert np.array_equal(values_cuts[0], report.b.action), seed
        assert not any(np.array_equal(m, s) for m, _ in cuts for s in shifted), seed
        witness = report.witnesses.get("kernel")
        assert (got.direct, got.margins["direct"]) == (
            report.invertible, report.injectivity_margin), seed
        assert (got.witness is witness is None) or got.witness.tobytes() == witness.tobytes(), seed
        seen["invertible" if got.direct else "singular"] += 1
    assert min(seen.values()) > 0


def _fresh(op):
    """A new operator on the same domain and action: same bits, empty memo."""
    return sx.DomainOperator(op.domain, op.action)


def _report_bits(r):
    return (r.b.domain.frame.tobytes(), r.b.action.tobytes(), r.classification, r.invertible,
            r.defect_numbers_of_b, {k: w.tobytes() for k, w in r.witnesses.items()},
            r.injectivity_margin)


def test_one_extension_per_triple(monkeypatch):
    # check_invertibility -> extend -> recover_parameter on one (A, z, T), as the
    # benchmark sweep runs them, builds B once: one operator_from_generators, one
    # admissibility test of T at (A, z), one injectivity cut, one verdict that
    # graph(A) sits in graph(B) and one SVD of (B - z)F_B. Each result has the
    # bits of a run on fresh objects. An inadmissible T keeps nothing and raises
    # on every call
    mods = [importlib.import_module(f"symext.{name}")
            for name in ("neumann", "invertibility", "cayley", "operators")]
    rng = np.random.default_rng(43)
    seen = {"invertible": 0, "singular": 0, "inadmissible": 0}
    for seed in range(18):
        a, z, _ = random_instance(seed, max_dim=6)
        dd = defect_data(a, z)
        check_invertibility(a, z, random_contraction(rng, dd))  # A's own memo is warm
        x = forbidden_of_inverse(a, dd) if seed % 3 == 1 else forbidden_operator(a, z)
        if seed % 3 and x.domain.dim:
            # on X_{1/z}(A^{-1}), B has a kernel; on X_z(A), T is inadmissible
            g = x.domain.frame[:, 0]
            scale = np.conj(z) / z if seed % 3 == 1 else 1.0
            parameter = ContractionParameter(
                z, _rank_one_onto(a, g, scale * x.apply(g)))
        else:
            parameter = random_contraction(rng, dd)
        t = parameter.t
        calls = {name: [] for name in ("operator_from_generators", "is_admissible",
                                       "graph_contains", "rank_split")}
        with monkeypatch.context() as patch:
            for mod in mods:
                for fname, log in calls.items():
                    if hasattr(mod, fname):
                        def counted(*args, _fn=getattr(mod, fname), _log=log, **kwargs):
                            _log.append((args, kwargs))
                            return _fn(*args, **kwargs)
                        patch.setattr(mod, fname, counted)
            try:
                verdict = check_invertibility(a, z, parameter)
            except NotAdmissible:
                for run in range(2):
                    with pytest.raises(NotAdmissible):
                        extend(a, z, parameter, dd)
                at_z = [args for args, _ in calls["is_admissible"] if args[1] == z]
                assert len(at_z) == 3 and at_z[0][2] is t, seed
                assert calls["operator_from_generators"] == [] and t._memo == {}, seed
                seen["inadmissible"] += 1
                continue
            report = extend(a, z, parameter, dd)
            recovered = recover_parameter(a, report.b, z)
        b = report.b
        assert len(calls["operator_from_generators"]) == 1, seed
        assert len([args for args, _ in calls["is_admissible"] if args[1] == z]) == 1, seed
        assert [args for args, _ in calls["graph_contains"]] == [(b, a)], seed
        shifted = b.action - z * b.domain.frame
        assert len([m for (m, *_), kw in calls["rank_split"]
                    if m is b.action and kw.get("part") is None]) == 1, seed
        assert len([m for (m, *_), kw in calls["rank_split"]
                    if kw.get("part") == "svd" and np.array_equal(m, shifted)]) == 1, seed
        fresh_t = ContractionParameter(z, _fresh(t))
        want = check_invertibility(_fresh(a), z, fresh_t)
        assert _verdict_bits(verdict) == _verdict_bits(want), seed
        want_report = extend(_fresh(a), z, ContractionParameter(z, _fresh(t)))
        assert _report_bits(report) == _report_bits(want_report), seed
        want_t = recover_parameter(_fresh(a), _fresh(b), z)
        assert (recovered.t.domain.frame.tobytes(), recovered.t.action.tobytes()) == (
            want_t.t.domain.frame.tobytes(), want_t.t.action.tobytes()), seed
        seen["invertible" if verdict.direct else "singular"] += 1
    assert min(seen.values()) > 0, seen


def _full_svd_admissibility(a, t, u):
    """is_admissible's verdict, witness and margin from one full SVD, kept as the oracle."""
    w_frame = np.hstack([u.domain.frame, t.domain.frame])
    shifted = np.hstack([u.action, t.action]) - w_frame
    _, s, null = rank_split(shifted, a.tol, part="null")
    witness = fix_phase(w_frame @ null[:, -1]) if null.shape[1] else None
    return null.shape[1] == 0, witness, (float(s[-1]) if s.size else float("inf")), s


def _rank_one_onto(a, g, image):
    """T sending the unit vector g to ``image``."""
    return DomainOperator(Subspace(g[:, None], a.tol), image[:, None])


def test_admissibility_from_values_matches_full_svd():
    # the pool of test_three_way_agreement_seeded; every fourth T is put on the
    # forbidden operator of A^{-1} (as the benchmark sweep does) and every
    # fourth, offset by two, on that of A, so both sides meet inadmissible T
    rng = np.random.default_rng(31)
    inadmissible = {"z": 0, "1/z": 0}
    for seed in range(120):
        a, z, _ = random_instance(seed, max_dim=6)
        dd, u = defect_data(a, z), cayley(a, z)
        a_inv, dd_inv = inverse_op(a), dd.of_inverse()
        u_inv = scale_op(u, z / np.conj(z))
        t = random_contraction(rng, dd, strict=bool(rng.uniform() < 0.7)).t
        if seed % 4 in (0, 2):
            x = forbidden_of_inverse(a, dd) if seed % 4 == 0 else forbidden_operator(a, z)
            if x.domain.dim:
                g = x.domain.frame[:, 0]
                scale = np.conj(z) / z if seed % 4 == 0 else 1.0
                t = _rank_one_onto(a, g, scale * x.apply(g))
        sides = {"z": (a, z, t, dd, u),
                 "1/z": (a_inv, dd_inv.z, scale_op(t, z / np.conj(z)), dd_inv, u_inv)}
        for side, (op, w, tt, d_w, u_w) in sides.items():
            got = is_admissible(op, w, tt, dd=d_w)
            admissible, witness, margin, s = _full_svd_admissibility(op, tt, u_w)
            assert got.admissible == admissible, (seed, side)
            if admissible:
                assert got.witness is None
            else:
                inadmissible[side] += 1
                assert np.array_equal(got.witness, witness), (seed, side)
            assert abs(got.margin - margin) <= 1e-14 * s[0], (seed, side)
    assert inadmissible == {"z": 30, "1/z": 30}


def test_dense_range_vacuous_forbidden():
    # total Hermitian base: D(X_{1/z}(A^{-1})) = {0}, via_forbidden passes vacuously
    rng = np.random.default_rng(30)
    a = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=4, defect=0, seed=7))
    z = 0.2 + 1.1j
    dd = defect_data(a, z)
    parameter = ContractionParameter.empty(z, 4)
    v = check_invertibility(a, z, parameter)
    assert v.via_forbidden and v.margins["via_forbidden"] == float("inf")
    assert v.direct and v.agree


def test_not_invertible_base(worked_dd):
    a0 = operator_from_matrix(np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(NotInvertibleBase):
        check_invertibility(a0, 1j, ContractionParameter.empty(1j, 2))


def test_propagates_not_admissible(worked_a, worked_dd):
    with pytest.raises(NotAdmissible):
        check_invertibility(worked_a, 1j, worked_parameter(worked_dd, 1.0))


def test_three_way_agreement_seeded():
    rng = np.random.default_rng(31)
    total = agree = borderline = 0
    for seed in range(120):
        a, z, _ = random_instance(seed, max_dim=6)
        dd = defect_data(a, z)
        parameter = random_contraction(rng, dd, strict=bool(rng.uniform() < 0.7))
        try:
            v = check_invertibility(a, z, parameter)
        except NotAdmissible:
            continue
        total += 1
        finite = [m for m in v.margins.values() if np.isfinite(m)]
        if v.agree:
            agree += 1
        elif finite and min(finite) <= BORDERLINE:
            borderline += 1
    assert agree + borderline == total
    assert agree >= 100


def test_double_worked_family(worked_a):
    big = double(worked_a)
    assert big.ambient_dim == 4
    assert is_symmetric(big) and is_injective(big)
    assert defect_data(big, 1j).defect_numbers == (2, 2)
    v = np.array([3.0, 0.0, 3.0, 0.0], dtype=complex)
    assert np.allclose(big.apply(v), [3.0, 0.0, -3.0, 0.0])


def test_double_selfadjoint_stays_defect_zero():
    h = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=3, defect=0, seed=1))
    big = double(h)
    assert defect_data(big, 0.5j).defect_numbers == (0, 0)
    assert is_symmetric(big)


def test_negated_defect_spaces_swap():
    # N_z(-A) = N_{-z}(A)
    for seed in range(6):
        a, z, _ = random_instance(seed + 40)
        left = defect_data(negate(a), z).n_z
        right = defect_data(a, -z).n_z
        assert left.distance(right) < 1e-10


def test_chain_worked_family(worked_a):
    chain = build_invertible_selfadjoint(worked_a, 1j, seed=0)
    assert len(chain.steps) == 1 and chain.exit_dim == 0
    m = chain.final.to_matrix()
    assert np.linalg.norm(m - m.conj().T, 2) < 1e-10
    assert np.min(np.abs(np.linalg.eigvals(m))) > 1e-8
    assert graph_contains(chain.final, worked_a)
    # the single step is a rank-one isometric parameter into N_{-i} = span{e2}
    step = chain.steps[0]
    assert step.parameter.t.domain_dim == 1
    f1 = step.parameter.t.domain.frame[:, 0]
    assert abs(np.linalg.norm(step.parameter.t.apply(f1)) - 1.0) <= 1e-12
    with pytest.raises(IndexError):
        chain.operator(1)


def test_chain_selfadjoint_base_zero_steps():
    h = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=3, defect=0, seed=2))
    chain = build_invertible_selfadjoint(h, 1j, seed=0)
    assert len(chain.steps) == 0
    assert graph_distance(chain.final, h) < 1e-12


def test_chain_doubled_worked_family(worked_a):
    chain = build_invertible_selfadjoint(worked_a, 1j, seed=0, double_first=True)
    assert chain.doubled and chain.exit_dim == 2
    assert chain.final.ambient_dim == 4
    assert len(chain.steps) == 2
    m = chain.final.to_matrix()
    assert np.linalg.norm(m - m.conj().T, 2) < 1e-10
    assert np.min(np.abs(np.linalg.eigvals(m))) > 1e-8
    assert graph_contains(chain.final, double(worked_a))


def test_chain_steps_decrement_defect():
    for seed in range(15):
        a, z, n = random_instance(seed + 50, max_dim=7)
        chain = build_invertible_selfadjoint(a, z, seed=seed)
        assert len(chain.steps) == n
        for k, step in enumerate(chain.steps):
            assert step.defect_numbers == (n - k - 1, n - k - 1)
            assert is_injective(chain.operator(k))
        assert graph_contains(chain.final, a)
        m = chain.final.to_matrix()
        assert np.min(np.abs(np.linalg.eigvals(m))) > 1e-8


def test_chain_deterministic_per_seed():
    a, z, _ = random_instance(77)
    one = build_invertible_selfadjoint(a, z, seed=5)
    two = build_invertible_selfadjoint(a, z, seed=5)
    assert np.array_equal(one.final.to_matrix(), two.final.to_matrix())


def test_chain_requires_symmetric_injective():
    skew = operator_from_matrix(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
    with pytest.raises(ValueError):
        build_invertible_selfadjoint(skew, 1j, seed=0)
    with pytest.raises(NotInvertibleBase):
        build_invertible_selfadjoint(operator_from_matrix(np.diag([1.0, 0.0]).astype(complex)),
                                     1j, seed=0)


@pytest.mark.parametrize("no_direction, no_budget, no_column, message", [
    (True, False, False, "no defect direction could be extended"),
    (True, True, False, "no direction clears the forbidden images"),
    (False, True, True, "candidate directions kept producing kernels or fixed vectors"),
])
def test_chain_exhaustion_is_choice_exhausted(worked_a, monkeypatch, no_direction, no_budget,
                                              no_column, message):
    # the retry budget counts failed attempts only, so an empty budget alone builds
    # the chain; each message needs failing attempts too
    if no_direction:
        monkeypatch.setattr(invertibility, "_pick_direction", lambda *args: None)
    if no_budget:
        monkeypatch.setattr(invertibility, "TOL", dataclasses.replace(TOL, retries_per_dim=0))
    if no_column:
        monkeypatch.setattr(invertibility, "_new_column", lambda *args: None)
    with pytest.raises(ChoiceExhausted, match=f"^{message}$"):
        build_invertible_selfadjoint(worked_a, 1j, seed=0)


def recomputed_forbidden_images(current, z, f1):
    """(zbar/z) X_{1/z}(C^{-1}) f1 and X_z(C) f1, from forbidden operators built from scratch."""
    images = []
    x_inv = forbidden_operator(inverse_op(current), 1.0 / z)
    if x_inv.domain.contains(f1):
        images.append((np.conj(z) / z) * x_inv.apply(f1))
    x_here = forbidden_operator(current, z)
    if x_here.domain.contains(f1):
        images.append(x_here.apply(f1))
    return images


def test_chain_avoids_forbidden_images():
    # each rank-one choice stays clear of both forbidden images when they exist
    for seed in range(8):
        a, z, n = random_instance(seed + 60, max_dim=6)
        for doubled in (False, True):
            chain = build_invertible_selfadjoint(a, z, seed=seed, double_first=doubled)
            current = double(a) if doubled else a
            for k, step in enumerate(chain.steps):
                f1 = step.parameter.t.domain.frame[:, 0]
                h = step.parameter.t.apply(f1)
                for img in recomputed_forbidden_images(current, z, f1):
                    assert np.linalg.norm(h - img) > 1e-6
                current = chain.operator(k)


def test_chain_replay_matches_recomputation():
    # the builder carries each step's operator, range and defect frames in
    # closed form; replay every step through the independent constructions
    for seed in range(30):
        a, z, _ = random_instance(seed + 200, max_dim=8)
        for doubled in (False, True):
            chain = build_invertible_selfadjoint(a, z, seed=seed, double_first=doubled)
            previous = double(a) if doubled else a
            for k, step in enumerate(chain.steps):
                t = step.parameter.t
                f1, h = t.domain.frame[:, 0], t.action[:, 0]
                dd = defect_data(previous, z)
                assert dd.n_z.contains(f1) and dd.n_zbar.contains(h)
                images = recomputed_forbidden_images(previous, z, f1)
                solved = _forbidden_images(f1, dd.n_zbar, previous,
                                           inverse_op(previous).domain.frame, z)
                assert len(solved) == len(images) == 2
                for img, sol in zip(images, solved):
                    assert np.linalg.norm(sol - img) <= 1e-12
                    assert np.linalg.norm(h - img) > TOL.min_separation
                rebuilt = extend(previous, z, step.parameter).b
                current = chain.operator(k)
                assert graph_distance(current, rebuilt) <= 1e-12
                assert step.defect_numbers == defect_data(current, z).defect_numbers
                previous = current
            assert np.array_equal(previous.domain.frame, chain.final.domain.frame)
            assert np.array_equal(previous.action, chain.final.action)


def full_forbidden_images(f1, n_zbar, c, range_frame, z):
    """The images from the square solve [N_zbar(C), P] c = f1, P a frame of R(C) or D(C)."""
    images = []
    for frame, scale in ((range_frame, np.conj(z) / z), (c.domain.frame, 1.0)):
        system = np.hstack([n_zbar.frame, frame])
        coef = np.linalg.lstsq(system, f1, rcond=None)[0]
        resid = np.linalg.norm(system @ coef - f1)
        if resid <= TOL.membership_factor * c.tol * max(1.0, np.linalg.norm(f1)):
            images.append(scale * (n_zbar.frame @ coef[:n_zbar.dim]))
    return images


def assert_same_images(thin, full):
    assert len(thin) == len(full)
    for t, f in zip(thin, full):
        assert np.linalg.norm(t - f) <= 1e-13 * max(1.0, np.linalg.norm(f))


def test_thin_forbidden_images_match_the_square_solve():
    # projecting P off leaves the least residual and, as N_zbar(C) meets D(C) and
    # R(C) in {0}, the same unique N_zbar coefficients: same images, same gate
    rng = np.random.default_rng(0)
    for seed in range(12):
        a, z, _ = random_instance(seed + 400, max_dim=8)
        for doubled in (False, True):
            chain = build_invertible_selfadjoint(a, z, seed=seed, double_first=doubled)
            c = double(a) if doubled else a
            for k in range(len(chain.steps)):
                dd = defect_data(c, z)
                ran = sx.orthonormalize(c.action).frame
                # defect vectors, and a random f1 outside N_z: D(C) + N_zbar(C) is everything
                raw = rng.standard_normal(c.ambient_dim) + 1j * rng.standard_normal(c.ambient_dim)
                for f1 in list(dd.n_z.frame.T) + [raw / np.linalg.norm(raw)]:
                    thin = _forbidden_images(f1, dd.n_zbar, c, ran, z)
                    assert len(thin) == 2
                    assert_same_images(thin, full_forbidden_images(f1, dd.n_zbar, c, ran, z))
                # without the column h of N_zbar, f1 = h is in neither span: both drop it
                h = dd.n_zbar.frame[:, 0]
                rest = Subspace(dd.n_zbar.frame[:, 1:], c.tol)
                assert _forbidden_images(h, rest, c, ran, z) == []
                assert full_forbidden_images(h, rest, c, ran, z) == []
                c = chain.operator(k)


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8, 1e-9, 1e-10])
def test_chain_near_zero_spectrum_valid_or_typed(eps):
    # spectrum window (eps, 2): a chain ends in an invertible extension of the
    # full length, or the builder raises a typed error; nothing in between
    for seed in range(6):
        for d in (8, 12):
            a = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=d, defect=d // 4,
                                                 spectrum_window=(eps, 2.0), seed=seed))
            for doubled in (False, True):
                try:
                    chain = build_invertible_selfadjoint(a, 1j, seed=seed, double_first=doubled)
                except SymextError:
                    continue
                assert len(chain.steps) == (d // 4) * (2 if doubled else 1)
                assert EmbeddedExtension.from_chain(chain).is_invertible()
