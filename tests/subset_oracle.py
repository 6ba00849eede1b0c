"""Exhaustive worst-subset search: the reference `worst_subset` is checked
against on small supports."""

import numpy as np

from modecover import ContractViolation, WorstSubset


def worst_subset_exhaustive(ratios, masses, mass_lb: float) -> WorstSubset:
    """True minimum over all subsets; oracle for small supports only."""
    ratios = np.asarray(ratios, dtype=float)
    masses = np.asarray(masses, dtype=float)
    n = len(ratios)
    if n > 20:
        raise ContractViolation("exhaustive subset search capped at 20 points")
    best = None
    gen = ratios * masses
    for code in range(1, 1 << n):
        sel = np.array([(code >> i) & 1 for i in range(n)], dtype=bool)
        pm = float(masses[sel].sum())
        if pm < mass_lb - 1e-12:
            continue
        r = float(gen[sel].sum()) / pm
        if best is None or r < best.ratio:
            best = WorstSubset(
                indices=tuple(int(i) for i in np.flatnonzero(sel)),
                ratio=r,
                mass=pm,
            )
    if best is None:
        raise ContractViolation("total mass below requested lower bound")
    return best
