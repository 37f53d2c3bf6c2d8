"""The Monte Carlo rule, its disorder streams reproduced in numpy arrays bit
for bit.

Sample i of a run with seed s draws its couplings, in C order, from
``numpy.random.default_rng((s, i))``: a PCG64 seeded from
``SeedSequence((s, i))``, read through numpy's 256-layer ziggurat for
``standard_normal``.  :class:`_MonteCarlo` reproduces those streams a block
of samples at a time without a generator per sample.  It replays the seeding
and PCG64's 128-bit LCG in uint64 limbs (O'Neill 2014), then the ziggurat
(Marsaglia & Tsang 2000) with tables read off numpy's own sampler.  The few
samples that need the ziggurat's tail, a wedge test too close to call, or
more outputs than were replayed are redrawn by numpy's own ``Generator``
set to their seeded state.

The lab imports this module with its first Monte Carlo rule, so commands
that draw nothing do not load it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .graphs import BudgetError, _integer
from .lab import MAX_MC_SAMPLES

# numpy has no 128-bit integers, so a 128-bit value is a (hi, lo) pair of
# uint64 arrays.
_M32 = 0xFFFFFFFF
_M52 = (1 << 52) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG64_MULT_INV = pow(_PCG64_MULT, -1, 1 << 128)

#: Samples whose stream states ``_MonteCarlo`` computes together: the seeding's
#: array operations cost about the same for one sample as for a block.
_SEED_BLOCK = 1024

#: Normals per lane sub-block of ``_MonteCarlo.draws``, so that the
#: (outputs, lanes) uint64 temporaries of ``_normals`` stay in cache.
_LANE_NORMALS = 2**13

#: Wedge tests of ``_normals`` decided closer than this to their boundary are
#: left to numpy's own sampler: the table ``fi`` and ``np.exp`` may differ
#: from numpy's C values in the last bits.  A test certifies the margin.
_WEDGE_MARGIN = 1e-12

_MC_ABS_FLOOR = 1e-12  # roundoff guard when the CRN difference is exactly constant


def _factor(values):
    """Constant 128-bit factors of :func:`_mul128`, an int or nested lists of
    ints: uint64 arrays hi, lo and the low and high 32 bits of lo."""
    c = np.array(values, dtype=object)
    hi, lo = (np.array(v, dtype=np.uint64) for v in (c >> 64, c & _M64))
    return hi, lo, lo & _M32, lo >> 32


def _mul128(hi, lo, factor):
    """(hi, lo) times a :func:`_factor` mod 2^128, shapes broadcast.  The
    high word of lo times the factor's lo comes from 32-bit limb products,
    with at most three result-sized arrays alive at a time."""
    f_hi, f_lo, f0, f1 = factor
    x0, x1 = lo & _M32, lo >> 32
    top = x1 * f0
    p = np.multiply(x0, f0, out=np.empty_like(top))
    p >>= 32
    top += p
    np.bitwise_and(top, _M32, out=p)
    p += x0 * f1
    top >>= 32
    p >>= 32
    top += p
    top += x1 * f1
    top += np.multiply(hi, f_lo, out=p)
    top += np.multiply(lo, f_hi, out=p)
    return top, np.multiply(lo, f_lo, out=p)


def _iadd128(a_hi, a_lo, b_hi, b_lo):
    """Add (b_hi, b_lo) into the arrays (a_hi, a_lo) mod 2^128; returns a."""
    a_lo += b_lo
    a_hi += b_hi
    a_hi += a_lo < b_lo
    return a_hi, a_lo


_MULT = _factor(_PCG64_MULT)


def _hash_consts(const, mult, n):
    """The first n + 1 values of numpy SeedSequence's running hash constant,
    as a (n + 1, 1) uint32 column."""
    out = [const]
    for _ in range(n):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(values, consts):
    """SeedSequence's hash of row k of ``values`` (or of one broadcast row)
    with constants ``consts[k]`` and ``consts[k + 1]``; uint32 arithmetic
    wraps mod 2^32 as the C code does."""
    v = (values ^ consts[:-1]) * consts[1:]
    return v ^ v >> 16


def _mix(x, y):
    """SeedSequence's mix of pool word x with hashed word y, mod 2^32."""
    r = 0xCA01F9DD * x - 0x4973F715 * y
    return r ^ r >> 16


def _pcg64_states(seed, lo, hi):
    """PCG64 state and increment of ``default_rng((seed, i))`` for i in
    [lo, hi), as four uint64 arrays: state hi, lo and inc hi, lo.

    This replays ``SeedSequence((seed, i)).generate_state(4, uint64)`` with
    one lane per index.  The entropy words are those of ``seed``, least
    significant first, then ``i`` (one word, as ``hi <= 2**32``); each update
    of the four-word pool runs as one array operation over the pool words it
    touches and over all lanes.  PCG64's set-seed step then takes the 128-bit
    initstate and initseq from words 0-1 and 2-3 (high word first):
    inc = 2 initseq + 1 and state = (inc + initstate) MULT + inc, mod 2^128.
    """
    words = [seed >> 32 * k & _M32 for k in range(max(1, (seed.bit_length() + 31) // 32))]
    entropy = np.zeros((max(len(words) + 1, 4), hi - lo), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(lo, hi, dtype=np.uint32)
    consts = _hash_consts(0x43B0D7E5, 0x931E8875, 4 * len(entropy))
    pool = _hashmix(entropy[:4], consts[:5])
    k = 4
    for src in range(4):  # pool[src] hashed once per other word, constants in turn
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k:k + 4]))
        k += 3
    for word in entropy[4:]:
        pool = _mix(pool, _hashmix(word, consts[k:k + 5]))
        k += 4
    w = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_consts(0x8B51F9DD, 0x58F38DED, 8))
    init_hi, init_lo, seq_hi, seq_lo = w[1::2].astype(np.uint64) << 32 | w[0::2]
    inc = (seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1)
    state = _iadd128(*_mul128(*_iadd128(init_hi, init_lo, *inc), _MULT), *inc)
    return (*state, *inc)


@lru_cache(maxsize=None)
def _lcg_jumps(n):
    """Factors A_j = MULT^j and B_j = sum_{t<j} MULT^t for j = 1..n as (n, 1)
    columns: j steps take state s with increment inc to A_j s + B_j inc."""
    a, b = [_PCG64_MULT], [1]
    for _ in range(n - 1):
        a.append(a[-1] * _PCG64_MULT & _M128)
        b.append((b[-1] * _PCG64_MULT + 1) & _M128)
    return _factor([[v] for v in a]), _factor([[v] for v in b])


def _pcg64_outputs(state, n):
    """The first n outputs of PCG64 lanes given as :func:`_pcg64_states`,
    shape (n, lanes): each step advances the LCG, then outputs the XSL-RR
    rotr64(hi ^ lo, hi >> 58) of the new state."""
    s_hi, s_lo, i_hi, i_lo = state
    a, b = _lcg_jumps(n)
    hi, v = _iadd128(*_mul128(s_hi, s_lo, a), *_mul128(i_hi, i_lo, b))
    v ^= hi
    hi >>= 58
    out = v >> hi
    v <<= 64 - hi & 63
    out |= v
    return out


def _crafted_state(r1, r2=2):
    """A PCG64 state, in ``bit_generator.state`` form, whose next two outputs
    are r1 and r2: the stepped states are (0, r1) and (h, r2 ^ h), both
    rotated by 0, with h making the increment odd."""
    h = 1 ^ (r1 ^ r2) & 1
    inc = ((h << 64 | r2 ^ h) - r1 * _PCG64_MULT) & _M128
    state = (r1 - inc) * _PCG64_MULT_INV & _M128
    return {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
            "state": {"state": state, "inc": inc}}


@lru_cache(maxsize=None)
def _ziggurat():
    """numpy's 256-layer ziggurat tables (ki, wi, fi) for ``standard_normal``
    (Marsaglia & Tsang 2000), read off numpy's own sampler: a rebuild from
    the ziggurat's definition misses most of them in the last bits.

    An output r with rabs = (r >> 9) & (2^52 - 1) < ki[r & 0xff] returns
    +-rabs wi[r & 0xff] at once.  rabs = 1 thus returns wi (layer 1, with
    ki = 0, passes its wedge test on u = 0 from the next output, 2).  ki[i]
    is 2^52 wi[i-1] / wi[i] rounded down or up (layer 0 pairs with wi[255]);
    one probe at the lower candidate settles it, since a fast return leaves
    output 2 to the next draw, which yields 0.0.  fi = exp(-x^2 / 2) at the
    layer edges x = 2^52 wi, fi[0] = 1, may be off in the last bit."""
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)

    def first_two(r):
        bitgen.state = _crafted_state(r)
        return gen.standard_normal(2)

    wi = np.array([first_two(1 << 9 | i)[0] for i in range(256)])
    ki = np.zeros(256, dtype=np.uint64)
    for i in (0, *range(2, 256)):
        c = int(2.0**52 * wi[i - 1] / wi[i])
        ki[i] = c + (first_two(c << 9 | i)[1] == 0.0)
    x = 2.0**52 * wi
    fi = np.exp(-0.5 * x * x)
    fi[0] = 1.0
    return ki, wi, fi


def _normals(state, k, out):
    """Fill row l of ``out``, shape (lanes, k), with lane l's first k
    ``standard_normal`` values bit for bit; return the lanes left to numpy.

    Each lane gets k + 2 + k // 16 outputs.  An output that starts a draw
    returns at once when rabs < ki (98.5%); else, in layers >= 1, the draw
    takes the next output as u for its wedge test, decided here, on the
    sparse slow outputs alone, outside ``_WEDGE_MARGIN``.  Counting the
    outputs that yield no value (each u, each failed test) locates a lane's
    k-th value.  A lane is left to numpy when that needs an output at or
    past a tail start, a wedge test within the margin, two slow outputs in a
    row or a slow last output, or more outputs than it got."""
    ki, wi, fi = _ziggurat()
    n = k + 2 + k // 16
    r = np.ascontiguousarray(_pcg64_outputs(state, n).T)
    signed = r.view(np.int64) & 0x1FF  # sign bit and layer
    rabs = r >> 9
    rabs &= _M52
    slow = rabs >= np.tile(ki, 2)[signed]
    x = np.concatenate([wi, -wi])[signed]
    x *= rabs  # -(rabs wi) = rabs (-wi) exactly
    del signed, rabs
    f = np.flatnonzero(slow)
    lane, pos = np.divmod(f, n)
    nxt = np.minimum(f + 1, r.size - 1)
    layer = r.ravel()[f] & 0xFF
    u = (r.ravel()[nxt] >> 11) * 2.0**-53
    lhs = (fi[layer - 1] - fi[layer]) * u + fi[layer]
    x_f = x.ravel()[f]
    rhs = np.exp(-0.5 * x_f * x_f)
    unsure = (layer == 0) | (pos == n - 1) | slow.ravel()[nxt] | (abs(lhs - rhs) <= _WEDGE_MARGIN)
    first = np.full(len(r), n)
    np.minimum.at(first, lane[unsure], pos[unsure])
    skipped = np.zeros(r.size, dtype=bool)  # a u that also fails its own test counts once
    skipped[f[pos < n - 1] + 1] = True
    skipped[f[lhs >= rhs]] = True
    skip = np.flatnonzero(skipped)
    s_lane, s_pos = np.divmod(skip, n)
    rank = np.arange(len(skip)) - np.searchsorted(skip, s_lane * n)
    limit = k + np.bincount(s_lane[s_pos - rank < k], minlength=len(r))
    numpy_lanes = limit > first
    keep = np.tri(n + 1, n, -1, dtype=bool)[np.where(numpy_lanes, k, limit)]
    keep.ravel()[skip[~numpy_lanes[s_lane]]] = False
    out[...] = x[keep].reshape(-1, k)
    return np.flatnonzero(numpy_lanes)


class _MonteCarlo:
    """The Monte Carlo rule: node i is disorder sample i, drawn from
    ``default_rng((seed, i))`` in C order; equal weights, standard error from
    the spread over nodes.

    ``draws`` seeds the samples' states ``_SEED_BLOCK`` at a time and draws
    their normals by :func:`_normals` into a buffer; the lanes it leaves are
    redrawn whole by one ``Generator`` set to each lane's seeded state."""

    method = "mc"
    # The draws are no symmetric set, and a row's common random numbers need
    # both signs of lambda at one draw.
    mirror_symmetric = False
    weight_columns = 0  # equal weights, none stored
    field_nodes = 1  # each sample draws its own field: no node shares a Hamiltonian draw
    fixed_tolerance = False  # identity rows pass at 3 standard errors

    def __init__(self, n_samples, seed):
        n_samples = _integer("n_samples", n_samples)
        if n_samples < 2:
            raise ValueError(
                f"need at least two disorder samples for a standard error, got {n_samples}")
        if n_samples > MAX_MC_SAMPLES:
            raise BudgetError(
                f"{n_samples} disorder samples exceed the bound of {MAX_MC_SAMPLES} "
                "(2^32) Monte Carlo samples per run"
            )
        self.seed = _integer("seed", seed)
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        self.size = self.samples = n_samples
        self._bitgen = np.random.PCG64(0)
        self._gen = np.random.Generator(self._bitgen)
        self._block, self._states = None, ()
        self._lo, self._k, self._buf = 0, 0, np.empty((0, 0))

    def draws(self, lo, hi, shape) -> np.ndarray:
        """Samples lo..hi-1, each of the given shape, as one array."""
        k = math.prod(shape)
        out = np.empty((hi - lo, k))
        i = lo
        while i < hi:
            if not (self._k == k and self._lo <= i < self._lo + len(self._buf)):
                self._fill(i, k)
            j = min(hi, self._lo + len(self._buf))
            out[i - lo:j - lo] = self._buf[i - self._lo:j - self._lo]
            i = j
        return out.reshape(hi - lo, *shape)

    def _fill(self, i, k):
        """Draw samples i, i + 1, ... of k normals each, up to
        ``_LANE_NORMALS`` normals and the end of i's seeding block, into the
        buffer that ``draws`` copies from."""
        block, a = divmod(i, _SEED_BLOCK)
        if block != self._block:
            start = block * _SEED_BLOCK
            self._states = _pcg64_states(self.seed, start, min(start + _SEED_BLOCK, self.size))
            self._block = block
        j = min(self.size, i + max(1, _LANE_NORMALS // k), (block + 1) * _SEED_BLOCK)
        state = [s[a:a + j - i] for s in self._states]
        buf = np.empty((j - i, k))
        for lane in _normals(state, k, buf):
            s_hi, s_lo, i_hi, i_lo = (int(s[lane]) for s in state)
            self._bitgen.state = {
                "bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo}}
            self._gen.standard_normal(out=buf[lane])
        self._lo, self._k, self._buf = i, k, buf

    def stats(self, col) -> tuple[float, float]:
        """The column's mean and its standard error; a mean or a spread
        past the float range is refused, since an infinite standard error
        would pass any gate."""
        m = len(col)
        try:
            mean = math.fsum(memoryview(col)) / m
            with np.errstate(over="ignore"):
                var = math.fsum(memoryview((col - mean) ** 2)) / (m - 1)
        except OverflowError:  # fsum's partial sums left the float range
            mean = var = math.inf
        if not (math.isfinite(mean) and math.isfinite(var)):
            raise ValueError("the Monte Carlo mean or spread of a sampled value "
                             "overflows the float range")
        return mean, math.sqrt(var / m)

    def tolerance(self, diff_err, tol) -> float:
        return max(3.0 * diff_err, _MC_ABS_FLOOR)

    def refined(self):
        return None
