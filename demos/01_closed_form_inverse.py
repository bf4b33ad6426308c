"""Walk through the closed-form inverse of a corner-perturbed tridiagonal matrix.

Builds a small operator with |b| = 2, realizes its inverse from the explicit
entry formula, and checks it against dense elimination.
"""

import numpy as np

from neartoeplitz import (
    MatrixConfig,
    assemble_inverse,
    build_matrix,
    reference_inverse,
    rowsums,
    singularity_report,
    trace_inverse,
)

cfg = MatrixConfig(n=6, b=2, b_tilde=0.3)
print(f"operator: n={cfg.n}, diagonal b={cfg.b}, corners b_tilde={cfg.b_tilde}")
print()

matrix = build_matrix(cfg)
print("dense form:")
print(matrix)
print()

print(f"corner update strength beta = {cfg.b_tilde - cfg.b}")
delta = singularity_report(cfg.n, cfg.b, cfg.b_tilde)["delta"]
print(f"capacitance determinant delta = {delta:.6f} (singular iff zero)")
print()

inv = assemble_inverse(cfg)
print("closed-form inverse:")
with np.printoptions(precision=4, suppress=True):
    print(inv.entries)
print()

ref = reference_inverse(matrix)
print(f"max deviation from dense elimination: {np.max(np.abs(inv.entries - ref.entries)):.2e}")
residual = matrix @ inv.entries - np.eye(cfg.n)
print(f"residual |T * inv - I|_max:           {np.max(np.abs(residual)):.2e}")
print()

print(f"trace of the inverse (closed form): {trace_inverse(cfg):.12f}")
print(f"trace of the inverse (dense path):  {np.trace(ref.entries):.12f}")
print(f"row sums (closed form): {np.round(rowsums(cfg), 6)}")
