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
  1e-14 contributes 0, as the library's 0 log 0 = 0 rule has it.
"""

from decimal import Decimal, localcontext

DIGITS = 50
_ZERO_EIG = Decimal("1e-14")


def _abs(z: complex) -> Decimal:
    return (Decimal(z.real) ** 2 + Decimal(z.imag) ** 2).sqrt()


def _block_spectrum(a: Decimal, d: Decimal, z: Decimal) -> tuple[Decimal, Decimal]:
    mean, radius = (a + d) / 2, (((a - d) / 2) ** 2 + z**2).sqrt()
    return mean - radius, mean + radius


def _entropy(eigs) -> Decimal:
    ln2 = Decimal(2).ln()
    return -sum((e * e.ln() / ln2 for e in eigs if e > _ZERO_EIG), Decimal(0))


def x_reference(rho_11: float, rho_22: float, rho_33: float, rho_44: float, rho_14: complex, rho_23: complex):
    """Exact (concurrence, spectrum of block {|11>, |00>}, spectrum of block
    {|10>, |01>}, S(AB), S(A), S(B)) of the X state with these entries, each
    rounded once to float; block spectra are ascending pairs."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        p11, p22, p33, p44 = (Decimal(float(p)) for p in (rho_11, rho_22, rho_33, rho_44))
        c14, c23 = _abs(complex(rho_14)), _abs(complex(rho_23))
        conc = 2 * max(Decimal(0), c14 - (p22 * p33).sqrt(), c23 - (p11 * p44).sqrt())
        outer, inner = _block_spectrum(p11, p44, c14), _block_spectrum(p22, p33, c23)
        s_ab = _entropy(outer + inner)
        s_a, s_b = _entropy((p11 + p22, p33 + p44)), _entropy((p11 + p33, p22 + p44))
    outer, inner = (tuple(map(float, block)) for block in (outer, inner))
    return float(conc), outer, inner, float(s_ab), float(s_a), float(s_b)
