"""Exact reference values of a two-qubit X state, in decimal arithmetic.

An X state on the basis {|11>, |10>, |01>, |00>} has the populations
rho_11 ... rho_44 and two coherences, rho_14 and rho_23; everything else is
zero.  It splits into the 2x2 blocks {|11>, |00>} and {|10>, |01>}, and its
reduced states are diagonal.  Each float is converted exactly and every
operation runs at 50 significant digits, so the results are the exact values
of the library's definitions for those floats up to one final rounding:

- the concurrence closed form 2 max(0, |rho_14| - sqrt(rho_22 rho_33),
  |rho_23| - sqrt(rho_11 rho_44)) (Bellomo, Lo Franco & Compagno, PRL 99,
  160502, 2007);
- the eigenvalues (a + d)/2 -+ sqrt(((a - d)/2)^2 + |z|^2) of each block
  [[a, z], [z*, d]];
- the entropies S(AB), S(A) and S(B) in bits, where an eigenvalue at or below
  0 contributes 0, as the library's 0 log 0 = 0 rule has it;
- the classical correlation J and the discord D = I - J (``x_discord_reference``).

On an X state the information gain of a measurement along the Bloch direction
n = (s cos phi, s sin phi, c) on qubit Y depends on c alone once phi is
optimal: the other qubit X is left in the unnormalized states (m0 I + m.sigma)/4
with m0 = 1 +- y_z c and |m|^2 = (1 - c^2) sigma^2 + (x_z +- t_zz c)^2, where
x_z and y_z are the Bloch z components of X and Y, t_zz = <sigma_z sigma_z>
and sigma = 2 (|rho_14| + |rho_23|) is the largest singular value of the xy
block of the correlation matrix (Luo, PRA 77, 042303, 2008).  J is the maximum
of that gain G(c) over c in [0, 1]; it is taken on a 129-point grid and refined
by golden section in the cell around the best grid point, not from the
endpoints c = 0, 1 alone, which can miss an interior maximum (Lu et al.,
PRA 83, 012327, 2011).
"""

from decimal import Decimal, localcontext

DIGITS = 50


def _abs(z: complex) -> Decimal:
    return (Decimal(z.real) ** 2 + Decimal(z.imag) ** 2).sqrt()


def _block_spectrum(a: Decimal, d: Decimal, z: Decimal) -> tuple[Decimal, Decimal]:
    mean, radius = (a + d) / 2, (((a - d) / 2) ** 2 + z**2).sqrt()
    return mean - radius, mean + radius


with localcontext() as _ctx:
    _ctx.prec = DIGITS
    _LN2 = Decimal(2).ln()


def _entropy(eigs) -> Decimal:
    return -sum((e * e.ln() / _LN2 for e in eigs if e > 0), Decimal(0))


_GRID = 128  # cells of the c grid
_GOLDEN_ROUNDS = 60  # shrink the best cell pair, 1/64 wide, below 1e-14


def _entries(rho_11, rho_22, rho_33, rho_44, rho_14, rho_23) -> tuple[Decimal, ...]:
    """The four populations and |rho_14|, |rho_23|, exactly converted, in the current context."""
    return (*(Decimal(float(p)) for p in (rho_11, rho_22, rho_33, rho_44)), _abs(complex(rho_14)), _abs(complex(rho_23)))


def _spectra_and_entropies(p11, p22, p33, p44, c14, c23):
    """Both block spectra, S(AB), S(A) and S(B) in the current context."""
    outer, inner = _block_spectrum(p11, p44, c14), _block_spectrum(p22, p33, c23)
    s_a, s_b = _entropy((p11 + p22, p33 + p44)), _entropy((p11 + p33, p22 + p44))
    return outer, inner, _entropy(outer + inner), s_a, s_b


def x_reference(rho_11: float, rho_22: float, rho_33: float, rho_44: float, rho_14: complex, rho_23: complex):
    """Exact (concurrence, spectrum of block {|11>, |00>}, spectrum of block
    {|10>, |01>}, S(AB), S(A), S(B)) of the X state with these entries, each
    rounded once to float; block spectra are ascending pairs."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        entries = _entries(rho_11, rho_22, rho_33, rho_44, rho_14, rho_23)
        p11, p22, p33, p44, c14, c23 = entries
        conc = 2 * max(Decimal(0), c14 - (p22 * p33).sqrt(), c23 - (p11 * p44).sqrt())
        outer, inner, s_ab, s_a, s_b = _spectra_and_entropies(*entries)
    outer, inner = (tuple(map(float, block)) for block in (outer, inner))
    return float(conc), outer, inner, float(s_ab), float(s_a), float(s_b)


def x_discord_reference(
    rho_11: float, rho_22: float, rho_33: float, rho_44: float, rho_14: complex, rho_23: complex, measured_b: bool
):
    """Exact (J, D) in bits of the X state with these entries, measured on
    qubit B if ``measured_b`` else on A, each rounded once to float.  Every
    outcome's entropy p S(rho_X|outcome), S(X) and I are clamped at 0 as the
    library clamps them."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        entries = _entries(rho_11, rho_22, rho_33, rho_44, rho_14, rho_23)
        p11, p22, p33, p44, c14, c23 = entries
        sigma = 2 * (c14 + c23)
        a_z, b_z, t_zz = p11 + p22 - p33 - p44, p11 - p22 + p33 - p44, p11 - p22 - p33 + p44
        x_z, y_z = (a_z, b_z) if measured_b else (b_z, a_z)
        s_x = max(Decimal(0), _entropy(((1 + x_z) / 2, (1 - x_z) / 2)))

        def gain(c: Decimal) -> Decimal:
            g = s_x
            for sign in (1, -1):
                m0 = 1 + sign * y_z * c
                m = ((1 - c * c) * sigma**2 + (x_z + sign * t_zz * c) ** 2).sqrt()
                g -= max(Decimal(0), _entropy(((m0 + m) / 4, (m0 - m) / 4)) - _entropy((m0 / 2,)))
            return g

        grid = [Decimal(k) / _GRID for k in range(_GRID + 1)]
        values = [gain(c) for c in grid]
        k = max(range(_GRID + 1), key=values.__getitem__)
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, _GRID)]
        shrink = (Decimal(5).sqrt() - 1) / 2
        x1, x2 = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
        g1, g2 = gain(x1), gain(x2)
        best = max(values[k], g1, g2)
        for _ in range(_GOLDEN_ROUNDS):
            if g1 >= g2:
                hi, x2, g2 = x2, x1, g1
                x1 = hi - shrink * (hi - lo)
                g1 = gain(x1)
            else:
                lo, x1, g1 = x1, x2, g2
                x2 = lo + shrink * (hi - lo)
                g2 = gain(x2)
            best = max(best, g1, g2)
        _, _, s_ab, s_a, s_b = _spectra_and_entropies(*entries)
        total = max(Decimal(0), s_a + s_b - s_ab)
    return float(best), float(total - best)
