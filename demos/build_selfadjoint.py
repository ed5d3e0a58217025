"""Constructing an invertible self-adjoint extension step by step.

Each step adds one dimension to the domain and drops the defect by one, using a
rank-one isometric parameter that dodges both forbidden images; the final
operator is Hermitian with spectrum bounded away from zero.
"""

import numpy as np

from symext.cayley import defect_data
from symext.instances import InstanceSpec, gen_symmetric
from symext.invertibility import build_invertible_selfadjoint, double

a = gen_symmetric(InstanceSpec(ambient_dim=5, defect=3, seed=11))
print(f"base: d = {a.ambient_dim}, defect = {defect_data(a, 1j).defect_numbers}")

for doubled in (False, True):
    chain = build_invertible_selfadjoint(a, 1j, seed=0, double_first=doubled)
    start = double(a) if doubled else a
    print(f"\ndouble_first = {doubled}: start defect "
          f"{defect_data(start, 1j).defect_numbers}, {len(chain.steps)} steps")
    for k, step in enumerate(chain.steps):
        print(f"  step {k}: dim D(B_k) {chain.operator(k).domain_dim}, "
              f"defect -> {step.defect_numbers}")
    m = chain.final.to_matrix()
    eigs = np.linalg.eigvalsh((m + m.conj().T) / 2)
    print(f"  final: ambient {chain.final.ambient_dim}, exit dim {chain.exit_dim}, "
          f"hermitian dev {np.linalg.norm(m - m.conj().T, 2):.2e}, "
          f"min |eig| {np.min(np.abs(eigs)):.3f}")
