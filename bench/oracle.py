"""Correctness checks for benchmark outputs, run outside the timed region.

The reference values come from plain numpy: the closed-form decay amplitude,
the Kraus channel applied to whole trajectories at once, entropies from
``numpy.linalg.eigvalsh`` and the Wootters concurrence.  Only the classical
correlation is checked against discordsim itself, against its dense-grid
``brute_force_classical_correlation`` as acceptance criterion 6 does.  The
argmax angle columns are not checked: on flat gain surfaces any angle is a
maximiser.
"""

import math

import numpy as np

EPS = np.finfo(float).eps
ROW_TOL = 1e-9  # J <= I, D >= 0 and D = I - J, as CorrelationRecord enforces
ORACLE_TOL = 1e-10  # mutual information and concurrence against numpy
# chi within discordsim's own acceptance tolerance for chi across the
# lambda/gamma0 = 2 band.  Its two-exponential form for lambda/gamma0 just
# above 2 cancels terms of size lambda/d and is off by up to 2e-12 there.
CHI_TOL = 1e-9
BRUTE_GRID = 256
BRUTE_BELOW = 1e-9  # J may undershoot the 256x256 grid maximum by this much
BRUTE_ABOVE = 1e-4  # and exceed it by at most this much

# sigma_y x sigma_y in the basis {|11>, |10>, |01>, |00>}; real and self-inverse.
_SPIN_FLIP = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))


def family_state(family, alpha_sq, r):
    """Werner-like mixture r |xi><xi| + (1 - r) I / 4 of a Bell-like ket."""
    v = np.zeros(4)
    a, b = math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq)
    if family == "phi":
        v[1], v[2] = a, b
    else:
        v[3], v[0] = a, b
    return (r * np.outer(v, v) + (1.0 - r) / 4.0 * np.eye(4)).astype(complex)


def chi(lambda_ratio, t):
    """Decay amplitude exp(-l t/2) (cosh(d t/2) + (l/d) sinh(d t/2)), d^2 = l^2 - 2 l."""
    t = np.asarray(t, dtype=float)
    lam = float(lambda_ratio)
    if lam == 2.0:
        return np.exp(-t) * (1.0 + t)
    d = np.sqrt(complex(lam * lam - 2.0 * lam))
    x = 0.5 * d * t
    return (np.exp(-0.5 * lam * t) * (np.cosh(x) + (lam / d) * np.sinh(x))).real


def evolve(rho0, chis):
    """States (T, 4, 4) after local amplitude damping with amplitudes chis on both qubits."""
    chis = np.asarray(chis, dtype=float)
    k = np.zeros((chis.size, 2, 2, 2), dtype=complex)  # (t, kraus, out, in)
    k[:, 0, 0, 0] = chis
    k[:, 0, 1, 1] = 1.0
    k[:, 1, 1, 0] = np.sqrt(np.clip(1.0 - chis * chis, 0.0, None))
    rho = np.asarray(rho0, dtype=complex).reshape(2, 2, 2, 2)
    out = np.einsum("tkac,tlbd,cdef,tkge,tlhf->tabgh", k, k, rho, k.conj(), k.conj(), optimize=True)
    return out.reshape(-1, 4, 4)


def _entropy_bits(w):
    w = np.clip(w, 0.0, None)
    logs = np.log2(np.where(w > 1e-14, w, 1.0))
    return -np.sum(w * logs, axis=-1)


def mutual_information(rhos):
    t = rhos.reshape(-1, 2, 2, 2, 2)
    s_a = _entropy_bits(np.linalg.eigvalsh(np.einsum("nabcb->nac", t)))
    s_b = _entropy_bits(np.linalg.eigvalsh(np.einsum("nabad->nbd", t)))
    return s_a + s_b - _entropy_bits(np.linalg.eigvalsh(rhos))


def concurrence(rhos):
    """Wootters concurrence and the round-off allowance of a sqrt-of-eigenvalue method.

    The Wootters values are the singular values of sqrt(rho) sqrt(rho~),
    which never squares and re-roots them, so they are accurate to round-off
    even where they vanish.  A method that takes square roots of the
    eigenvalues of sqrt(rho) rho~ sqrt(rho) instead (the textbook form, and
    discordsim's) turns a round-off error delta in a zero eigenvalue into
    sqrt(delta) in the result: up to 9e-9 for nearly pure states, where the
    textbook numpy form itself misses the X-state closed form by 7e-9.  The
    allowance is that amplification with delta one ulp of the largest
    eigenvalue, 20 times the delta these workloads need; it is at most
    3 sqrt(eps) = 4.5e-8, and far below ORACLE_TOL for full-rank states.
    """
    w, v = np.linalg.eigh(rhos)
    root = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ v.conj().transpose(0, 2, 1)
    flipped_root = _SPIN_FLIP @ root.conj() @ _SPIN_FLIP
    s = np.linalg.svd(root @ flipped_root, compute_uv=False)
    c = np.maximum(0.0, s[:, 0] - s[:, 1] - s[:, 2] - s[:, 3])
    delta = EPS * s[:, :1] ** 2
    allowance = np.sum(np.sqrt(s**2 + delta) - s, axis=1)
    return c, allowance


def check_rows(rho0, lambda_ratio, t_grid, rows):
    """Failure messages for one trajectory's rows; an empty list means correct.

    ``rows`` maps column names to arrays along ``t_grid``: t, concurrence,
    mutual_info, classical, discord, and optionally chi and lambda_ratio.
    """
    fails = []

    def need(name, ok):
        bad = np.flatnonzero(~np.asarray(ok, dtype=bool))
        if bad.size:
            fails.append(f"{name} fails on {bad.size} row(s), first at row {int(bad[0])}")

    rows = {key: np.asarray(value, dtype=float) for key, value in rows.items()}
    short = sorted(key for key, value in rows.items() if value.shape != np.shape(t_grid))
    if short:
        return [f"columns {short} do not have {len(t_grid)} rows"]
    t, c, i, j, d = (rows[k] for k in ("t", "concurrence", "mutual_info", "classical", "discord"))
    need("t equals the requested grid", t == np.asarray(t_grid))
    need("0 <= C <= 1", (c >= 0.0) & (c <= 1.0))
    need("J <= I + 1e-9", j <= i + ROW_TOL)
    need("D >= -1e-9", d >= -ROW_TOL)
    need("D = I - J within 1e-9", np.abs(d - (i - j)) <= ROW_TOL)
    chis = chi(lambda_ratio, t)
    if "chi" in rows:
        need("|chi| <= 1", np.abs(rows["chi"]) <= 1.0)
        need("chi matches the closed form within 1e-9", np.abs(rows["chi"] - chis) <= CHI_TOL)
    if "lambda_ratio" in rows:
        need("lambda_ratio column", rows["lambda_ratio"] == lambda_ratio)
    rhos = evolve(rho0, chis)
    need("mutual information within 1e-10 of numpy", np.abs(i - mutual_information(rhos)) <= ORACLE_TOL)
    c_ref, allowance = concurrence(rhos)
    need("concurrence within 1e-10 (+ round-off) of Wootters", np.abs(c - c_ref) <= ORACLE_TOL + allowance)
    return fails


def check_classical(ds, rho0, lambda_ratio, t, classical, measured):
    """Classical correlation at one point against the dense-grid oracle."""
    rho = evolve(rho0, chi(lambda_ratio, [t]))[0]
    rho = ds.DensityMatrix(0.5 * (rho + rho.conj().T))
    ref = ds.brute_force_classical_correlation(rho, BRUTE_GRID, measured)
    if not ref - BRUTE_BELOW <= classical <= ref + BRUTE_ABOVE:
        return [f"classical correlation {classical!r} outside [{ref} - 1e-9, {ref} + 1e-4] at t={t}"]
    return []


def parse_csv(text, columns):
    """(header failures, header names, rows x columns array) of CSV text."""
    header, _, body = text.partition("\n")
    names = header.split(",")
    fails = [] if tuple(names) == tuple(columns) else [f"CSV header {header!r} != CSV_COLUMNS"]
    data = np.array([[float(x) for x in line.split(",")] for line in body.splitlines()], dtype=float)
    return fails, names, data.reshape(-1, len(names))
