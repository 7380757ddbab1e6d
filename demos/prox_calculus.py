"""Tour of the proximal calculus: prox pairs, Moreau envelopes, the
eigenvalue split behind the semidefinite projection, and generalized
derivatives at nonsmooth points."""

import numpy as np

from kktstab import (
    L1Norm,
    PSDConeIndicator,
    clarke_element,
    eig_split,
    gamma,
    moreau_envelope,
    prox,
    prox_conjugate,
    prox_dirderiv,
    sample_clarke,
    smat,
    svec,
)
from kktstab.symmat import coupling

np.set_printoptions(precision=4, suppress=True)

print("== eigenvalue split of A = diag(2, 0, -1)")
lam, _, _ = eig_split(svec(np.diag([2.0, 0.0, -1.0])))
print(f"positive set {list(np.flatnonzero(lam > 0))}, zero set {list(np.flatnonzero(lam == 0))}, "
      f"negative set {list(np.flatnonzero(lam < 0))}")
print("coupling matrix (0/0 := 1 convention):")
ix = np.arange(lam.size)
print(coupling(lam, ix[:, None], ix))

print("\n== projection onto the semidefinite cone")
psd = PSDConeIndicator(2)
A = np.array([[0.0, 1.0], [1.0, 0.0]])
P = smat(prox(psd, svec(A)))
print(f"nearest PSD matrix to an off-diagonal flip:\n{P}")

print("\n== Moreau identity links a function to its conjugate")
z = svec(np.diag([2.0, -1.0]))
p = prox(psd, z)
q = prox_conjugate(psd, z)
print(f"prox + conjugate prox - z = {p + q - z}  (identically zero)")
value, grad = moreau_envelope(psd, z)
print(f"envelope value {value:.4f}, gradient {smat(grad).diagonal()}")

print("\n== directional derivative of the projection at a rank-deficient point")
z = svec(np.diag([1.0, -1.0]))
d = svec(np.array([[0.0, 1.0], [1.0, 0.0]]))
out = prox_dirderiv(psd, z, d)
print(f"derivative of the off-diagonal direction:\n{smat(out)}")
fd = (prox(psd, z + 1e-7 * d) - prox(psd, z)) / 1e-7
print(f"one-sided finite difference agrees to {np.linalg.norm(out - fd):.2e}")

print("\n== generalized derivatives at a soft-threshold kink")
l1 = L1Norm(1)
els = sample_clarke(l1, np.array([1.0]), count=8, seed=0)
print("sampled scalar elements:", sorted(round(float(e.matrix[0, 0]), 4) for e in els))
print("canonical element:", clarke_element(l1, np.array([1.0])).matrix[0, 0])

print("\n== curvature functional on and off its domain")
xbar = svec(np.diag([2.0, 0.0]))
ubar = svec(np.diag([0.0, -1.0]))
v_in = svec(np.array([[0.0, 1.0], [1.0, 0.0]]))
v_out = svec(np.diag([0.0, 1.0]))
print(f"coupling direction: {gamma(psd, xbar, ubar, v_in):.4f}")
print(f"direction into the negative block: {gamma(psd, xbar, ubar, v_out)}")
