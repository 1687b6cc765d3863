"""The strip transfer-matrix entropy as it was before the matvec was
factored into half-columns: the dense F x F matrix T[c, c'] =
[c & c' == 0] over the legal columns, one gemv per power step.
`oracles.strip_entropy` must agree with it to rounding (|d| <= 1e-15)
and in every printed digit."""
import math

import numpy as np

from hardcore_entropy.oracles import legal_columns


def strip_entropy(width: int, boundary: str = "free") -> float:
    cols = legal_columns(width, boundary)
    t = ((cols[:, None] & cols[None, :]) == 0).astype(float)
    v = np.full(len(cols), 1.0 / math.sqrt(len(cols)))
    lam = 0.0
    for _ in range(1000):
        w = t @ v
        lam_new = float(v @ w)
        v = w / np.linalg.norm(w)
        if abs(lam_new - lam) <= 1e-13 * max(lam_new, 1.0):
            return math.log(lam_new) / width
        lam = lam_new
    raise ValueError(f"strip width {width} ({boundary}) did not converge")
