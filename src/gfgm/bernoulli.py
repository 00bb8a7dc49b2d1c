"""Multivariate Bernoulli distributions over {0,1}^d.

This module is the dependence engine of the package: every copula in the
family is driven by the law of a d-variate Bernoulli vector I with margins
p_j = Pr(I_j = 1) in (PROB_ATOL, 1 - PROB_ATOL) = (1e-12, 1 - 1e-12), the
one margin domain, checked by ``validate_margin`` (a scalar) and
``validate_margins`` (a vector).

Outcomes are encoded as integer bit masks.  Component j (0-based) of an
outcome is bit j of the mask, ``(mask >> j) & 1``.  In the text format the
outcome is written as a bit string whose *leftmost* character is component 0,
so ``"01"`` means (i_1, i_2) = (0, 1) and corresponds to mask 2.

Probability mass functions are stored sparsely as (mask, probability) atoms;
the dimension is capped at 63 so that masks fit in a machine integer.

A copula evaluates through a *law* of I.  Each law supplies ``d``; its
``margins``; ``_chunk``, the points per chunk, and ``_contract``, the
contraction E[prod_j f(i, j, I_j)] of one chunk of factor tables, from
which the shared ``_Law._expect_chunks`` (points taken a chunk at a time)
and ``expect_products`` (over whole tables) are made; ``pair_sum``, the
sum E[prod_m h_m(I_m, I'_m)] over I and an independent copy I' for
per-margin 2x2 kernels h_m (the bilinear form of Kendall's tau), whose
shared default reads the density-side ``outcomes``, rows r with masses w
such that

    E[prod_m h_m(I_m, I'_m)] = sum_r w_r E[prod_m ((1-r_m) h_m(I_m, 0) + r_m h_m(I_m, 1))]

(the 0/1 atom rows, a "first k on" row per supported count, or the single
margin row of a product law), and which a dense atom table (one 2x2 pass
per margin) and a count law with one kernel for all margins (a sum over
its support) override; ``moments()``, mu_S = E[prod_{j in S} I_j]
over the 2^d subset masks S, or with ``flipped`` lambda_S, those of 1 - I
(count and product laws add ``size_moments``, their extremes per size |S|);
and ``as_atoms()``, its atom form.  Three
laws exist: ``BernoulliPmf`` (atoms), ``IndependenceLaw`` (a product of
Bernoulli(p_j)) and, in ``gfgm.exchangeable``, ``ExchangeableCountPmf``
(the law of the count).

Every copula quantity reduces to one contraction, E[prod_j g_j(I_j)].  On
atoms, ``expect_products`` builds a table of products per point and sums,
for each atom, the product of the rows it reads.  A per-pmf plan, built
once from the masks, picks one of three schedules:

* per atom: the margins are split into 4-bit blocks, all 16 subset products
  of each block are tabulated, and one table row per block is multiplied
  for each atom, n_atoms * n_blocks multiplications per point (about
  #atoms * d / 4);
* grouped: on the same block tables, atoms that agree on every bit above
  the lowest block form a group; one matrix product of the (groups, 16)
  table of their masses with the lowest block's rows contracts that block
  for all groups at once, and one row per higher block is multiplied in
  per group, groups * (n_blocks - 1 + 16) multiplications per point;
* chain: when the sorted masks are nested (0 = m_0 < m_1 < ... < all ones,
  each containing the last, so at most d + 1 atoms), an atom with c margins
  on multiplies the f1 factors of the first c margins to switch on by the
  f0 factors of the other d - c.  Running products from both ends of that
  order give every atom's product, and ``probs @ (prefix * suffix)`` their
  sum: about 4d + 2 n_atoms per point.

The plan takes the schedule with the smallest count, where the two block
schedules also pay 8 per block for their tables, and grouped beats per atom
exactly when its own count is the smaller.  Dense supports (a full-support
d = 10 pmf has 1024 atoms in 64 groups) are grouped; comonotone laws with
distinct margins from d = 13 up take the chain; random sparse supports,
short chains (a d = 10 comonotone law, or a 2-atom equal-margin one) and
every pmf with d <= 4 stay on the per-atom schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

import numpy as np

MAX_DIMENSION = 63
#: Dense 2^d tables (moments, expansions) are only built up to this dimension.
MAX_DENSE_DIMENSION = 20
PROB_ATOL = 1e-12
_MARGIN_DOMAIN = f"({PROB_ATOL:g}, 1 - {PROB_ATOL:g})"
_MARGIN_HI = 1.0 - PROB_ATOL
SUM_SLACK = 1e-9
#: Margins per block of the subset-product tables in ``expect_products``.
BLOCK_BITS = 4
_BLOCK_SIZE = 1 << BLOCK_BITS
#: Float64 elements in the transient working set of ``expect_products`` (1 MB).
CHUNK_ELEMENTS = 1 << 17

__all__ = [
    "BernoulliPmf",
    "InvalidDistributionError",
    "comonotonic",
    "complemented",
    "countermonotonic_bivariate",
    "from_theta_bivariate",
    "independent",
    "load_pmf_file",
    "marginals",
    "moments_to_pmf",
    "nu_all",
    "nu_coefficient",
    "pmf_to_moments",
    "save_pmf_file",
    "theta_bounds",
    "theta_of",
]


class InvalidDistributionError(ValueError):
    """Raised when a pmf, moment sequence or parameter set is inadmissible."""


def _popcount(masks):
    return np.bitwise_count(np.asarray(masks, dtype=np.uint64)).astype(np.int64)


def mask_to_bitstring(mask: int, d: int) -> str:
    """Render an outcome mask as a bit string, component 0 leftmost."""
    return "".join("1" if (mask >> j) & 1 else "0" for j in range(d))


def bitstring_to_mask(s: str) -> int:
    """Parse a bit string (component 0 leftmost) into an outcome mask."""
    if not s or s.strip("01"):  # int() would take "0_1", "+01" and " 01"
        raise InvalidDistributionError(f"not a bit string: {s!r}")
    return int(s[::-1], 2)


def validate_margin(p) -> float:
    """Check that one margin lies in (PROB_ATOL, 1 - PROB_ATOL); return it as a float.

    A plain float comparison: the closed forms call it once per evaluation.
    """
    p = float(p)
    if not PROB_ATOL < p < _MARGIN_HI:  # also rejects NaN
        raise InvalidDistributionError(f"margin {p!r} must lie in {_MARGIN_DOMAIN}")
    return p


def validate_dimension(d) -> int:
    """Check that a dimension is integral (10.0 passes, 10.7 does not); return it as an int.

    The range checks (d >= 2 and each route's upper limit) stay with the caller.
    """
    return _integral(d, "dimension")


def _integral(value, noun: str) -> int:
    """``value`` as an int when it is integral, by the rule of :func:`validate_dimension`."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():  # not NaN or inf
        return int(value)
    raise InvalidDistributionError(f"{noun} must be an integer, got {value!r}")


def validate_margins(p) -> np.ndarray:
    """Check that a margin vector, d >= 2, lies in (PROB_ATOL, 1 - PROB_ATOL)^d."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if p.ndim != 1 or p.size < 2:
        raise InvalidDistributionError("margin vector must be 1-D with d >= 2")
    if not np.all((p > PROB_ATOL) & (p < 1.0 - PROB_ATOL)):  # also rejects NaN
        raise InvalidDistributionError(f"margins must lie in {_MARGIN_DOMAIN}")
    return p


def _normalised(masses: np.ndarray, noun: str) -> np.ndarray:
    """``masses`` clipped at 0 and divided by their sum, which must be 1 within SUM_SLACK.

    A value below -PROB_ATOL or NaN raises, and so does a sum further off;
    ``noun`` ("probabilities", "count masses") names the masses in the
    message.  Elementwise, so the masses may be reordered before or after.
    """
    if not np.all(masses >= -PROB_ATOL):  # also rejects NaN
        raise InvalidDistributionError(f"{noun} must be nonnegative numbers")
    total = float(masses.sum())
    if not abs(total - 1.0) <= SUM_SLACK:
        raise InvalidDistributionError(f"{noun} sum to {total}, not 1")
    return np.clip(masses, 0.0, None) / total


def _law_masses(sums, abs_sums, noun: str) -> np.ndarray:
    """The one rule for masses inverted from moments: signed ``sums`` of moments.

    4 eps times ``abs_sums`` bounds each sum's rounding error: the sum of its
    terms' absolute values for one fsum of twice-rounded terms, times the number
    of rounding steps for a chain of them.  A sum below -bound means no law has
    these moments and raises, naming the last such i as ``noun.format(i)``; one
    within the bound is 0.
    """
    bound = 4.0 * np.finfo(float).eps * np.asarray(abs_sums, dtype=float)
    negative = np.flatnonzero(sums < -bound)
    if negative.size:
        raise InvalidDistributionError(f"moment sequence yields negative {noun.format(negative[-1])}")
    return np.where(np.abs(sums) <= bound, 0.0, sums)


def _end_support(p: float, d: int) -> tuple[tuple[int, float], ...]:
    """(count, mass) pairs of the least-spread count law with mean pd.

    The point mass at k when pd lies within 4 ulps of the integer k (p = 0.07
    at d = 100 gives 7), else masses j + 1 - pd and pd - j on j = floor(pd), j + 1.
    """
    pd = p * d
    k = round(pd)
    if abs(pd - k) <= 4 * 2**-52 * pd:
        return ((k, 1.0),)
    j = int(pd)  # floor, as pd > 0
    return ((j, j + 1 - pd), (j + 1, pd - j))


def _subset_products(f: np.ndarray) -> np.ndarray:
    """Products over every subset of k factor pairs, for (..., k, 2, n) tables.

    out[..., s, :] = prod_j f[..., j, (bit j of s), :], with s running over
    0 .. 2^k - 1 and the factors multiplied in order j.
    """
    out = f[..., 0, :, :]
    for j in range(1, f.shape[-3]):
        out = f[..., j, :, None, :] * out[..., None, :, :]
        out = out.reshape(out.shape[:-3] + (-1, out.shape[-1]))
    return out


class _Law:
    """A law of I: ``_chunk`` points per chunk and ``_contract`` of one chunk.

    The chunk loop, ``expect_products`` and the default ``pair_sum`` are
    shared by every law.
    """

    def pair_sum(self, kernel) -> float:
        """E[prod_m K_m(I_m, I'_m)] for I' an independent copy of I.

        ``kernel`` holds K_m(0, 0), K_m(0, 1), K_m(1, 0), K_m(1, 1), each a
        scalar or one value per margin.  One contraction per density-side
        outcome row r (with its mass), whose factor pair on margin m is
        (1 - r_m) K_m(i, 0) + r_m K_m(i, 1) on side i.
        """
        k00, k01, k10, k11 = kernel
        rows, weights = self.outcomes
        f0 = (1.0 - rows) * k00 + rows * k01
        f1 = (1.0 - rows) * k10 + rows * k11
        return float(weights @ self.expect_products(f0, f1))

    def expect_products(self, f0, f1) -> np.ndarray:
        """E[prod_j f(i, j, I_j)] per point i, for (n, d) factor tables.

        f(i, j, 0) = f0[i, j] and f(i, j, 1) = f1[i, j].
        """
        f0, f1 = np.asarray(f0, dtype=float), np.asarray(f1, dtype=float)
        return self._expect_chunks(f0.shape[0], lambda s, e: (f0[s:e], f1[s:e]))

    def _expect_chunks(self, n: int, factor_pairs) -> np.ndarray:
        """``expect_products`` over n points, taken ``_chunk`` at a time.

        ``factor_pairs(s, e)`` returns the (e - s, d) tables f0, f1 of points
        s .. e-1, so callers can compute factors one chunk at a time.  One
        call over all points keeps each chunk's buffers until the next chunk
        replaces them; a call per chunk would free and re-fault them each time.
        """
        step = self._chunk
        out = np.empty(n)
        for s in range(0, n, step):
            out[s : s + step] = self._contract(*factor_pairs(s, min(n, s + step)))
        return out


def _kernel_table(kernel, d: int) -> np.ndarray:
    """(4, d) values K_m(0, 0), K_m(0, 1), K_m(1, 0), K_m(1, 1) of a ``pair_sum`` kernel."""
    table = np.empty((4, d))
    for row, k in zip(table, kernel):
        row[:] = k
    return table


def _check_atom_form(d: int):
    if d > MAX_DENSE_DIMENSION:
        raise InvalidDistributionError(
            "count and independence laws are still sampled through atoms "
            f"(d <= {MAX_DENSE_DIMENSION}), got d={d}"
        )


class _Plan(NamedTuple):
    """Schedule of ``BernoulliPmf.expect_products`` for one pmf.

    Each schedule builds a table of products per point, then multiplies,
    for each unit, the table rows it reads and sums them with its weight.
    A unit is an atom (per-atom and chain schedules) or a group of atoms
    sharing every bit above the lowest block (grouped schedule).  Per point,
    "per-atom" costs n_atoms * n_blocks multiplications and "grouped"
    groups * (n_blocks - 1 + 16), each after its 4-bit block tables (counted
    as 8 per block); "chain", for nested masks only, costs about
    4d + 2 n_atoms, its table being the running products along the order in
    which the margins switch on.  The plan takes the smallest count.
    """

    #: (n_units, 16) masses of each group by lowest-block pattern; None otherwise.
    low: np.ndarray | None
    #: (n_gathered, n_units) row of the stacked tables each unit reads.
    rows: np.ndarray
    #: (n_units,) weight of each unit's product: the atom masses, or ones.
    weights: np.ndarray
    #: Margins in the order they switch on along a chain; None on blocks.
    order: np.ndarray | None
    #: Units contracted together, and points per chunk, within CHUNK_ELEMENTS.
    span: int
    chunk: int

    @property
    def schedule(self) -> str:
        if self.order is not None:
            return "chain"
        return "per-atom" if self.low is None else "grouped"


def _is_chain(masks: np.ndarray, d: int) -> bool:
    """Whether sorted masks are nested, from the empty outcome to the full one.

    Margins inside (0, 1) force both ends, so a chain has at most d + 1 atoms.
    """
    if masks.size > d + 1 or masks[0] != 0 or masks[-1] != (1 << d) - 1:
        return False
    return not np.any(masks[:-1] & ~masks[1:])


def _chain_products(f0: np.ndarray, f1: np.ndarray, order: np.ndarray) -> np.ndarray:
    """(2 (d + 1), m) running products along a chain, for (m, d) factor tables.

    Row 2c is the product of f1 over the first c margins of ``order``, and
    row 2c + 1 that of f0 over the last c, so an atom with c margins on
    reads rows 2c and 2 (d - c) + 1.
    """
    d, m = order.size, f0.shape[0]
    table = np.empty((d + 1, 2, m))
    table[0] = 1.0
    # one gathered (d, m) copy alive at a time
    table[1:, 0] = f1.T[order]
    table[1:, 1] = f0.T[order[::-1]]
    for c in range(1, d + 1):
        table[c] *= table[c - 1]
    return table.reshape(-1, m)


@dataclass(frozen=True, eq=False)
class BernoulliPmf(_Law):
    """Sparse pmf of a d-variate Bernoulli vector.

    Parameters
    ----------
    d : int
        Dimension, 2 <= d <= 63.
    masks : ndarray of int64
        Outcome masks with positive probability, strictly increasing.
    probs : ndarray of float64
        Probabilities of the atoms; nonnegative, summing to 1.

    Construction normalizes probability sums that are within 1e-9 of 1 and
    rejects anything further off.  Margins within PROB_ATOL of 0 or 1 are
    rejected: the copula exponents 1/(1-p) and p/(1-p) degenerate there.
    """

    d: int
    masks: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", validate_dimension(self.d))
        if not 2 <= self.d <= MAX_DIMENSION:
            raise InvalidDistributionError(f"dimension must be in [2, {MAX_DIMENSION}]")
        masks = np.asarray(self.masks, dtype=np.int64)
        probs = np.asarray(self.probs, dtype=float)
        if masks.ndim != 1 or masks.shape != probs.shape:
            raise InvalidDistributionError("masks and probs must be 1-D and congruent")
        if masks.size == 0:
            raise InvalidDistributionError("pmf needs at least one atom")
        if np.any(masks < 0) or np.any(masks >= (1 << self.d)):
            raise InvalidDistributionError("outcome mask out of range for dimension")
        order = np.argsort(masks)
        masks = masks[order]
        if np.any(masks[1:] == masks[:-1]):
            raise InvalidDistributionError("duplicate outcome masks")
        probs = _normalised(probs, "probabilities")[order]  # summed in input order
        keep = probs > 0.0
        object.__setattr__(self, "masks", masks[keep])
        object.__setattr__(self, "probs", probs[keep])
        validate_margins(self.margins)

    @classmethod
    def from_dict(cls, d: int, atoms: Mapping[int, float]) -> "BernoulliPmf":
        # plain lists: the dimension check comes before masks become int64
        return cls(d, list(atoms.keys()), list(atoms.values()))

    @classmethod
    def from_bitstrings(cls, atoms: Mapping[str, float]) -> "BernoulliPmf":
        lengths = {len(s) for s in atoms}
        if len(lengths) != 1:
            raise InvalidDistributionError("bit strings must share one length")
        d = lengths.pop()
        return cls.from_dict(d, {bitstring_to_mask(s): q for s, q in atoms.items()})

    @cached_property
    def bits(self) -> np.ndarray:
        """(n_atoms, d) 0/1 array; column j is component j of each outcome."""
        return ((self.masks[:, None] >> np.arange(self.d)[None, :]) & 1).astype(float)

    @property
    def n_atoms(self) -> int:
        return self.masks.size

    @cached_property
    def margins(self) -> np.ndarray:
        """Read-only margins p_j, summed once by :func:`marginals`."""
        p = marginals(self)
        p.setflags(write=False)
        return p

    outcomes = property(lambda self: (self.bits, self.probs))

    def as_atoms(self) -> "BernoulliPmf":
        return self

    def moments(self, flipped: bool = False) -> np.ndarray:
        """Superset sums of the dense table by mask; 1 - I (``flipped``) has it reversed."""
        _check_dense_dim(self.d)
        table = np.zeros(1 << self.d)
        table[self.masks] = self.probs
        return _subset_sums(table[::-1] if flipped else table, self.d, superset=True, sign=1.0)

    def prob(self, mask: int) -> float:
        i = np.searchsorted(self.masks, mask)
        if i < self.masks.size and self.masks[i] == mask:
            return float(self.probs[i])
        return 0.0

    def as_dict(self) -> dict[int, float]:
        return {int(m): float(q) for m, q in zip(self.masks, self.probs)}

    @cached_property
    def _block_rows(self) -> _Plan:
        """Contraction plan, chosen by the multiplications per point of each schedule."""
        d, n_blocks = self.d, -(-self.d // BLOCK_BITS)
        high = self.masks >> BLOCK_BITS
        opens = np.r_[True, high[1:] != high[:-1]]  # masks are sorted
        n_groups = int(opens.sum())
        per_atom = self.n_atoms * n_blocks
        grouped = n_groups * (n_blocks - 1 + _BLOCK_SIZE)
        # the block schedules first write 16 subset products per block, each
        # in one pass where a gathered row takes two: 8 gathered rows a block
        tables = n_blocks * _BLOCK_SIZE // 2
        if 4 * d + 2 * self.n_atoms < min(per_atom, grouped) + tables and _is_chain(self.masks, d):
            counts = _popcount(self.masks)
            rows = np.stack([2 * counts, 2 * (d - counts) + 1])
            # margins on in more atoms switch on earlier
            order = np.argsort(-self.bits.sum(axis=0), kind="stable")
            # per point: the running products, one gathered factor table
            # and two gathered rows per atom
            chunk = max(1, CHUNK_ELEMENTS // (3 * d + 2 + 2 * self.n_atoms))
            return _Plan(None, rows, self.probs, order, self.n_atoms, chunk)
        if grouped < per_atom:
            low = np.zeros((n_groups, _BLOCK_SIZE))
            low[np.cumsum(opens) - 1, self.masks & (_BLOCK_SIZE - 1)] = self.probs
            units, first, weights = high[opens], 1, np.ones(n_groups)
        else:
            low, units, first, weights = None, self.masks, 0, self.probs
        blocks = np.arange(first, n_blocks)[:, None]
        patterns = (units >> (BLOCK_BITS * (blocks - first))) & (_BLOCK_SIZE - 1)
        rows = patterns + (blocks << BLOCK_BITS)
        # per point: product and gather buffers over a span of units, plus
        # the block tables and padded factors; spans keep it <= CHUNK_ELEMENTS
        span = min(weights.size, CHUNK_ELEMENTS // 4)
        chunk = max(1, CHUNK_ELEMENTS // (2 * (span + (n_blocks << BLOCK_BITS))))
        return _Plan(low, rows, weights, None, span, chunk)

    _chunk = property(lambda self: self._block_rows.chunk)

    def _contract(self, f0: np.ndarray, f1: np.ndarray) -> np.ndarray:
        """Sum over the atoms of their products, for one chunk of points.

        Plain products, no logarithms, so zero factors and tiny values behave
        as in a direct per-atom sum.  Per point, the per-atom schedule costs
        n_atoms * n_blocks multiplications and the grouped one
        groups * (n_blocks - 1 + 16), with the lowest block contracted by one
        (groups, 16) x (16, chunk) matrix product; both first tabulate the
        blocks' subset products.  A chain forms its running products instead,
        about 4d + 2 n_atoms per point.  The plan takes the smallest count.
        """
        low, rows, weights, order, span, _ = self._block_rows
        m = f0.shape[0]
        if order is None:
            # (block, bit, side, point), padded with unit factors
            factors = np.ones((-(-self.d // BLOCK_BITS), BLOCK_BITS, 2, m))
            pairs = factors.reshape(-1, 2, m)[: self.d]
            pairs[:, 0], pairs[:, 1] = f0.T, f1.T
            table = _subset_products(factors).reshape(-1, m)
        else:
            table = _chain_products(f0, f1, order)
        out = np.zeros(m)
        for a in range(0, weights.size, span):
            unit_rows = rows[:, a : a + span]
            if low is None:
                acc, unit_rows = table.take(unit_rows[0], axis=0), unit_rows[1:]
            else:
                acc = low[a : a + span] @ table[:_BLOCK_SIZE]
            for block_rows in unit_rows:
                acc *= table.take(block_rows, axis=0)
            out += weights[a : a + span] @ acc
        return out

    def pair_sum(self, kernel) -> float:
        """E[prod_m K_m(I_m, I'_m)], on the dense table when it is the cheaper.

        The dense route costs O(d 2^d), the outcome rows O(n_atoms^2 d / 4);
        it is taken when 2^d d < n_atoms^2 d / 4 and d <= MAX_DENSE_DIMENSION.
        With pi the table by mask, the sum is the bilinear form pi^T K pi,
        K = (x) K_m, and K pi is one 2x2 pass per margin (after Yates, 1937).
        """
        if self.d > MAX_DENSE_DIMENSION or 4 << self.d >= self.n_atoms**2:
            return super().pair_sum(kernel)
        table = np.zeros(1 << self.d)
        table[self.masks] = self.probs
        out = table
        # margin m's 2x2 matrix [[K(0, 0), K(0, 1)], [K(1, 0), K(1, 1)]] acts on bit m
        for m, k in enumerate(_kernel_table(kernel, self.d).T.reshape(-1, 2, 2)):
            out = k @ out.reshape(-1, 2, 1 << m)
        return float(table @ out.reshape(-1))

    def expectation_of_products(self, g0, g1) -> float:
        """E[prod_j g(j, I_j)] where g(j, 0) = g0[j] and g(j, 1) = g1[j]."""
        return float(self.expect_products(np.full((1, self.d), g0), np.full((1, self.d), g1))[0])

    def __repr__(self):
        atoms = ", ".join(
            f"{mask_to_bitstring(int(m), self.d)}:{q:.6g}"
            for m, q in zip(self.masks, self.probs)
        )
        return f"BernoulliPmf(d={self.d}, {{{atoms}}})"


def marginals(pmf: BernoulliPmf) -> np.ndarray:
    """Margins p_j = Pr(I_j = 1), by direct summation over atoms."""
    out = np.zeros(pmf.d)
    for j in range(pmf.d):
        sel = (pmf.masks >> j) & 1 == 1
        out[j] = pmf.probs[sel].sum()
    return out


@dataclass(frozen=True, eq=False)
class IndependenceLaw(_Law):
    """Independent I_j ~ Bernoulli(p_j): every expectation is a product, O(d)."""

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", validate_margins(self.p))

    d = property(lambda self: self.p.size)
    margins = property(lambda self: self.p)
    outcomes = property(lambda self: (self.p[None, :], np.ones(1)))

    # the factor tables and their temporaries, about 16 (chunk, d) arrays,
    # stay within CHUNK_ELEMENTS
    _chunk = property(lambda self: max(1, CHUNK_ELEMENTS // (16 * self.d)))

    def _contract(self, f0: np.ndarray, f1: np.ndarray) -> np.ndarray:
        return np.prod((1.0 - self.p) * f0 + self.p * f1, axis=1)

    def moments(self, flipped: bool = False) -> np.ndarray:
        """mu_S = prod_{j in S} p_j, or lambda_S with 1 - p_j when ``flipped``."""
        _check_dense_dim(self.d)
        q = 1.0 - self.p if flipped else self.p
        return _subset_products(np.stack([np.ones(self.d), q], axis=1)[:, :, None]).ravel()

    @property
    def size_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Largest and smallest (mu, lambda) per size k: products of the k largest, smallest p (1 - p)."""
        s = np.sort(self.p)
        rows = np.ones((2, 2, self.d + 1))  # (largest, smallest) x (mu, lambda) x size
        rows[:, :, 1:] = [[s[::-1], 1.0 - s], [s, 1.0 - s[::-1]]]
        return tuple(np.cumprod(rows, axis=2))

    def as_atoms(self) -> BernoulliPmf:
        _check_atom_form(self.d)
        return independent(self.p)


def independent(p) -> BernoulliPmf:
    """Product pmf with the given margins (dense over 2^d outcomes)."""
    p = validate_margins(p)
    _check_dense_dim(p.size)
    probs = _subset_products(np.stack([1.0 - p, p], axis=1)[:, :, None]).ravel()
    return BernoulliPmf(p.size, np.arange(1 << p.size, dtype=np.int64), probs)


def comonotonic(p) -> BernoulliPmf:
    """Most positively dependent pmf with margins p.

    Realizes (F^{-1}_{I_1}(V), ..., F^{-1}_{I_d}(V)) for a single uniform V:
    component j switches on once V exceeds 1 - p_j, so the support is a
    nested chain of masks.  Ties among thresholds are merged; the scan is a
    stable sort by component index.
    """
    p = validate_margins(p)
    thresholds = 1.0 - p
    order = np.argsort(thresholds, kind="stable")
    atoms: dict[int, float] = {}
    mask = 0
    prev = 0.0
    for j in order:
        t = float(thresholds[j])
        if t > prev:
            atoms[mask] = atoms.get(mask, 0.0) + (t - prev)
            prev = t
        mask |= 1 << int(j)
    atoms[mask] = atoms.get(mask, 0.0) + (1.0 - prev)
    return BernoulliPmf.from_dict(p.size, atoms)


def complemented(pmf: BernoulliPmf) -> BernoulliPmf:
    """Pmf of the flipped vector 1 - I (margins become 1 - p)."""
    full = np.int64((1 << pmf.d) - 1)
    return BernoulliPmf(pmf.d, full ^ pmf.masks, pmf.probs.copy())


def theta_bounds(p1: float, p2: float) -> tuple[float, float]:
    """Admissible dependence-parameter interval for the bivariate pmf."""
    validate_margins([p1, p2])
    lo = -min(1.0, (1.0 - p1) * (1.0 - p2) / (p1 * p2))
    hi = min((1.0 - p1) / p1, (1.0 - p2) / p2)
    return lo, hi


def check_theta(p1: float, p2: float, theta: float) -> None:
    """Reject theta outside :func:`theta_bounds`, widened by 1e-12 at each end."""
    lo, hi = theta_bounds(p1, p2)
    if not lo - 1e-12 <= theta <= hi + 1e-12:  # also rejects NaN
        raise InvalidDistributionError(
            f"theta={theta} outside admissible interval [{lo}, {hi}] "
            f"for margins ({p1}, {p2})"
        )


def from_theta_bivariate(p1: float, p2: float, theta: float) -> BernoulliPmf:
    """Bivariate pmf with margins (p1, p2) and dependence parameter theta.

    The four cells are linear in theta; theta = 0 is independence and the
    interval endpoints are the Frechet-Hoeffding lower and upper bounds.
    """
    check_theta(p1, p2, theta)
    c = p1 * p2 * theta
    atoms = {
        0b00: (1.0 - p1) * (1.0 - p2) + c,
        0b10: (1.0 - p1) * p2 - c,  # (i_1, i_2) = (0, 1)
        0b01: p1 * (1.0 - p2) - c,  # (i_1, i_2) = (1, 0)
        0b11: p1 * p2 + c,
    }
    return BernoulliPmf.from_dict(2, atoms)


def countermonotonic_bivariate(p1: float, p2: float) -> BernoulliPmf:
    """Frechet lower bound pmf for the pair, theta at its lower endpoint."""
    lo, _ = theta_bounds(p1, p2)
    return from_theta_bivariate(p1, p2, lo)


def theta_of(pmf: BernoulliPmf) -> float:
    """Dependence parameter E[(I_1 - p_1)(I_2 - p_2)] / (p_1 p_2) of a bivariate pmf."""
    if pmf.d != 2:
        raise InvalidDistributionError("theta is defined for d = 2 only")
    p1, p2 = pmf.margins
    return (pmf.prob(0b11) - p1 * p2) / (p1 * p2)


def nu_coefficient(pmf: BernoulliPmf, subset: Iterable[int]) -> float:
    """Centered product moment E[prod_{j in S} (I_j - p_j)/p_j].

    Singletons are 0 by centering; on the independence pmf every subset of
    size >= 2 vanishes.  Components are 0-based.
    """
    idx = sorted(set(int(j) for j in subset))
    if not idx:
        raise InvalidDistributionError("subset must be nonempty")
    if idx[0] < 0 or idx[-1] >= pmf.d:
        raise InvalidDistributionError("subset index out of range")
    p = pmf.margins
    acc = pmf.probs.copy()
    for j in idx:
        acc = acc * (pmf.bits[:, j] - p[j]) / p[j]
    return float(acc.sum())


def _check_dense_dim(d: int):
    if d > MAX_DENSE_DIMENSION:
        raise InvalidDistributionError(
            f"dense subset tables require d <= {MAX_DENSE_DIMENSION}"
        )


def _subset_sums(values: np.ndarray, d: int, superset: bool, sign: float) -> np.ndarray:
    """Zeta (sign +1) or Mobius (sign -1) transform over the subset lattice.

    out[s] = sum of sign^{|t| - |s|} values[t] over the bitwise supersets t
    of s (``superset``) or over its subsets, one butterfly pass per bit.
    """
    a = np.array(values, dtype=float)
    dst, src = (0, 1) if superset else (1, 0)
    for j in range(d):
        a = a.reshape(-1, 2, 1 << j)
        a[:, dst, :] += sign * a[:, src, :]
    return a.reshape(-1)


def pmf_to_moments(pmf: BernoulliPmf) -> np.ndarray:
    """Ordinary moments mu_S = E[prod_{j in S} I_j], dense over subset masks S.

    Entry 0 is the empty product, 1; see :meth:`BernoulliPmf.moments`.
    """
    return pmf.moments()


def moments_to_pmf(moments: np.ndarray) -> BernoulliPmf:
    """Invert :func:`pmf_to_moments` by Mobius inversion over the subset lattice.

    Each mass, an alternating sum of moments, is judged by :func:`_law_masses`
    against one more butterfly over |mu|, times d for the d rounding steps of
    each butterfly (the inverse's and the one that formed the moments): O(d 2^d).
    """
    moments = np.asarray(moments, dtype=float)
    n = moments.size
    d = n.bit_length() - 1
    if 1 << d != n or d < 2:
        raise InvalidDistributionError("moment array length must be 2^d with d >= 2")
    if not np.all(np.isfinite(moments)):  # an infinite one would make every bound infinite
        raise InvalidDistributionError("moments must be finite")
    if abs(moments[0] - 1.0) > PROB_ATOL:
        raise InvalidDistributionError("empty-subset moment must be 1")
    f = _subset_sums(moments, d, superset=True, sign=-1.0)
    f = _law_masses(f, d * _subset_sums(np.abs(moments), d, superset=True, sign=1.0), "mass")
    masks = np.nonzero(f)[0].astype(np.int64)
    return BernoulliPmf(d, masks, f[masks])


def nu_all(law) -> np.ndarray:
    """All centered coefficients nu_S of any law of I, dense over subset masks.

    nu_S = E[prod_{j in S}(I_j - p_j)/p_j]; entry 0 is 1, singletons are ~0.
    Computed from the law's moments mu_S (not lambda_S), divided by those of
    independent margins, by a signed subset Mobius transform, O(d 2^d).
    """
    mu = law.moments() / IndependenceLaw(law.margins).moments()
    return _subset_sums(mu, law.d, superset=False, sign=-1.0)


# ---------------------------------------------------------------------------
# Text pmf format: header "d=<dim>", then one "bitstring,probability" per line.
# ---------------------------------------------------------------------------

def format_pmf_text(pmf: BernoulliPmf) -> str:
    lines = [f"d={pmf.d}"]
    lines += [
        f"{mask_to_bitstring(int(m), pmf.d)},{float(q)!r}"
        for m, q in zip(pmf.masks, pmf.probs)
    ]
    return "\n".join(lines) + "\n"


def parse_pmf_text(text: str) -> BernoulliPmf:
    d = None
    atoms: dict[int, float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("d="):
            if d is not None:
                raise InvalidDistributionError("duplicate 'd=<dim>' header line")
            try:
                d = int(line[2:])
            except ValueError:
                raise InvalidDistributionError(f"malformed pmf header line: {line!r}") from None
            continue
        if d is None:
            raise InvalidDistributionError("missing 'd=<dim>' header line before the atoms")
        try:
            bit_s, prob_s = line.split(",")
            prob = float(prob_s)
        except ValueError as exc:
            raise InvalidDistributionError(f"malformed pmf line: {line!r}") from exc
        mask = bitstring_to_mask(bit_s.strip())
        if len(bit_s.strip()) != d:
            raise InvalidDistributionError(
                f"bit string {bit_s!r} does not match header d={d}"
            )
        if mask in atoms:
            raise InvalidDistributionError(f"duplicate outcome {bit_s!r}")
        atoms[mask] = prob
    if d is None:
        raise InvalidDistributionError("missing 'd=<dim>' header line")
    return BernoulliPmf.from_dict(d, atoms)


def load_pmf_file(path) -> BernoulliPmf:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pmf_text(fh.read())


def save_pmf_file(pmf: BernoulliPmf, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_pmf_text(pmf))
