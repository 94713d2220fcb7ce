//! Deterministic random-number plumbing.
//!
//! Experiments in this repository are reproducible: every simulation takes a
//! `u64` master seed, and per-agent / per-trial generators are derived with
//! [`SeedSequence`], a SplitMix64-based splitter. Two runs with the same
//! master seed produce bit-identical results regardless of agent count or
//! iteration order.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The SplitMix64 state increment (the golden-ratio constant).
const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Advance a SplitMix64 state and return the next output word.
///
/// SplitMix64 is the standard generator for deriving independent seeds from
/// one master seed (Steele, Lea, Flood — OOPSLA 2014). It is not used for
/// sampling itself, only for seeding [`StdRng`] instances.
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX64_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives independent child seeds and generators from a master seed.
///
/// ```
/// use sprint_stats::rng::SeedSequence;
///
/// let mut seq = SeedSequence::new(42);
/// let a = seq.next_seed();
/// let b = seq.next_seed();
/// assert_ne!(a, b);
///
/// // Identical master seeds produce identical sequences.
/// let mut seq2 = SeedSequence::new(42);
/// assert_eq!(seq2.next_seed(), a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeedSequence {
    state: u64,
}

impl SeedSequence {
    /// Create a sequence rooted at `master_seed`.
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        SeedSequence { state: master_seed }
    }

    /// Produce the next child seed.
    pub fn next_seed(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Produce a generator seeded with the next child seed.
    pub fn next_rng(&mut self) -> StdRng {
        StdRng::seed_from_u64(self.next_seed())
    }

    /// The child seed the `(index + 1)`-th [`SeedSequence::next_seed`]
    /// call from here would return, without advancing the sequence.
    ///
    /// SplitMix64 steps its state by a constant, so the `i`-th state is
    /// one multiply-add away: seeds can be taken out of order, on any
    /// thread, and still equal the sequential ones.
    ///
    /// ```
    /// use sprint_stats::rng::SeedSequence;
    ///
    /// let seq = SeedSequence::new(42);
    /// let mut walk = seq;
    /// let _ = walk.next_seed();
    /// assert_eq!(seq.seed_at(1), walk.next_seed());
    /// ```
    #[must_use]
    pub fn seed_at(&self, index: u64) -> u64 {
        let mut state = self
            .state
            .wrapping_add(index.wrapping_mul(SPLITMIX64_GAMMA));
        splitmix64(&mut state)
    }

    /// Derive a seed for a named stream without advancing this sequence.
    ///
    /// Useful when the same logical entity (e.g. agent `i` in trial `t`)
    /// must observe the same randomness across code paths.
    #[must_use]
    pub fn derive(&self, stream: u64) -> u64 {
        let mut s = self.state ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        splitmix64(&mut s)
    }
}

/// Build a deterministic generator from a master seed.
///
/// ```
/// use rand::Rng;
/// let mut rng = sprint_stats::rng::seeded_rng(7);
/// let x: f64 = rng.gen();
/// assert!((0.0..1.0).contains(&x));
/// ```
#[must_use]
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// The step of the counter uniforms' grid: [`CounterRng::uniform`] is
/// `m · 2⁻⁵³` for the 53-bit grid index `m = word >> 11`.
const GRID_STEP: f64 = 1.0 / (1u64 << 53) as f64;

/// One past the largest grid index.
const GRID_END: u64 = 1 << 53;

/// Finalize a 64-bit word through the SplitMix64 avalanche function
/// (without the additive state step).
#[inline]
#[must_use]
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stateless counter-based random stream: every draw is a pure
/// function of `(purpose key, agent, epoch, slot)`.
///
/// Unlike a sequential generator, draws consume no shared state, so any
/// subset of agents can be evaluated on any thread in any order — or
/// speculatively, then discarded — and the realized randomness is
/// bit-identical. This is the primitive behind the engine's
/// jobs-invariant parallel epoch loop: the *coordinates* of a draw, not
/// the order draws are made in, determine its value.
///
/// The mixing is three chained SplitMix64 avalanche rounds, one per
/// coordinate, each perturbed by a distinct odd multiplier so that
/// `(agent, epoch)` and `(epoch, agent)` never collide structurally.
///
/// ```
/// use sprint_stats::rng::CounterRng;
///
/// let stream = CounterRng::new(42, 7);
/// // Pure: same coordinates, same draw — in any order, on any thread.
/// assert_eq!(stream.word(3, 100, 0), stream.word(3, 100, 0));
/// assert_ne!(stream.word(3, 100, 0), stream.word(4, 100, 0));
/// let u = stream.uniform(3, 100, 0);
/// assert!((0.0..1.0).contains(&u));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterRng {
    key: u64,
}

impl CounterRng {
    /// Create a stream for one `(seed, purpose)` pair. Distinct purposes
    /// (crash churn, sensor noise, breaker trips, …) rooted at the same
    /// seed yield statistically independent streams.
    #[must_use]
    pub fn new(seed: u64, purpose: u64) -> Self {
        let mut state = seed ^ purpose.wrapping_mul(0xA24B_AED4_963E_E407);
        CounterRng {
            key: splitmix64(&mut state),
        }
    }

    /// The raw 64-bit draw at `(agent, epoch, slot)`.
    #[inline]
    #[must_use]
    pub fn word(&self, agent: u64, epoch: u64, slot: u64) -> u64 {
        let z = finalize(self.key ^ agent.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let z = finalize(z ^ epoch.wrapping_mul(0xD133_7B3B_24AF_F163));
        finalize(z ^ slot.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7) ^ 0x6A09_E667_F3BC_C909)
    }

    /// A uniform draw in `[0, 1)` at `(agent, epoch, slot)`, using the
    /// same 53-bit mantissa scaling as the sequential generators.
    #[inline]
    #[must_use]
    pub fn uniform(&self, agent: u64, epoch: u64, slot: u64) -> f64 {
        (self.word(agent, epoch, slot) >> 11) as f64 * GRID_STEP
    }

    /// An unbiased-enough index in `[0, n)` via fixed-point 128-bit
    /// multiply (Lemire's multiply-shift; bias < 2⁻⁵⁹ for the small `n`
    /// used for stagger slots). Returns 0 when `n == 0`.
    #[inline]
    #[must_use]
    pub fn index(&self, agent: u64, epoch: u64, slot: u64, n: u64) -> u64 {
        ((u128::from(self.word(agent, epoch, slot)) * u128::from(n)) >> 64) as u64
    }

    /// A standard-normal draw at `(agent, epoch, slot)` via Box–Muller on
    /// the uniforms at slots `slot` and `slot + 1`.
    #[inline]
    #[must_use]
    pub fn normal(&self, agent: u64, epoch: u64, slot: u64) -> f64 {
        let u1 = self.uniform(agent, epoch, slot).max(f64::MIN_POSITIVE);
        let u2 = self.uniform(agent, epoch, slot + 1);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Pre-mix the `agent` coordinate into a [`CounterLane`], so a hot
    /// loop that draws many `(epoch, slot)` values for one agent pays the
    /// first avalanche round once instead of per draw. Draws through the
    /// lane are bit-identical to [`CounterRng::word`] at the same
    /// coordinates.
    #[inline]
    #[must_use]
    pub fn lane(&self, agent: u64) -> CounterLane {
        CounterLane {
            z1: finalize(self.key ^ agent.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }
}

/// A [`CounterRng`] with the agent coordinate already mixed in — the
/// per-agent handle the simulation engine stores in a flat lane. See
/// [`CounterRng::lane`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterLane {
    z1: u64,
}

impl CounterLane {
    /// The raw 64-bit draw at `(epoch, slot)` — identical to
    /// [`CounterRng::word`] for the lane's agent.
    #[inline]
    #[must_use]
    pub fn word(&self, epoch: u64, slot: u64) -> u64 {
        let z = finalize(self.z1 ^ epoch.wrapping_mul(0xD133_7B3B_24AF_F163));
        finalize(z ^ slot.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7) ^ 0x6A09_E667_F3BC_C909)
    }

    /// A uniform draw in `[0, 1)` at `(epoch, slot)` — identical to
    /// [`CounterRng::uniform`] for the lane's agent.
    #[inline]
    #[must_use]
    pub fn uniform(&self, epoch: u64, slot: u64) -> f64 {
        (self.word(epoch, slot) >> 11) as f64 * GRID_STEP
    }
}

/// A geometric variate on `{1, 2, ...}` by inversion of one uniform:
/// `1 + floor(ln(1-u) · scale)` with `scale = 1 / ln(q)`, where `q` is
/// the per-step probability of another step (mean `1 / (1 - q)`). The
/// `f64 -> u64` cast saturates, so `q` near 1 yields astronomically long
/// (not wrapped) gaps, and `q = 0` (`scale = -0.0`) always yields 1.
///
/// [`GapTable`] returns exactly this value for every counter word, and
/// falls back to it past its last entry.
///
/// ```
/// use sprint_stats::rng::geometric_gap;
///
/// let scale = 0.5f64.ln().recip(); // mean 2
/// assert_eq!(geometric_gap(0.0, scale), 1);
/// assert_eq!(geometric_gap(0.5, scale), 2);
/// assert_eq!(geometric_gap(0.75, scale), 3);
/// assert_eq!(geometric_gap(0.9, -0.0), 1);
/// ```
#[inline]
#[must_use]
pub fn geometric_gap(u: f64, scale: f64) -> u64 {
    1 + ((1.0 - u).ln() * scale) as u64
}

/// [`geometric_gap`] of the counter uniform at grid index `m`.
#[inline]
fn gap_at(m: u64, scale: f64) -> u64 {
    geometric_gap(m as f64 * GRID_STEP, scale)
}

/// [`geometric_gap`] of a counter word's uniform without a logarithm:
/// a table of the grid indices at which the gap steps up.
///
/// Entry `j` is the first grid index `m` (of `u = m · 2⁻⁵³`) whose gap is
/// at least `j + 2`, so below the last entry the gap is one plus the
/// number of entries at or below `m`. A word at or past the last entry
/// takes the logarithm. The table holds enough entries that at most
/// about 2⁻²⁰ of draws fall back, up to [`GapTable::CAPACITY`].
///
/// The count comes from a two-level index on the top 10 bits of `m`
/// (1024 bins): each bin stores how many entries lie at or below its
/// first grid index. When at most one entry lies inside the bin past
/// that point, one compare against that entry finishes the count; the
/// rare bin holding more (where the entries crowd together near
/// `u = 1`) takes a branch-free binary search.
///
/// Every entry is seeded from the closed form `⌈(1 − e^{k/s})·2⁵³⌉` and
/// corrected with a few [`geometric_gap`] evaluations. The computed gap
/// can disagree with the exact one only within three grid points of an
/// entry, so the build checks every point of a window around each entry
/// against [`geometric_gap`]; a disagreement (or a scale that is not a
/// finite non-positive number) leaves the table empty, and every draw
/// then takes the logarithm. Lookups therefore equal [`geometric_gap`]
/// bit for bit.
///
/// ```
/// use sprint_stats::rng::{geometric_gap, CounterRng, GapTable};
///
/// let scale = 0.5f64.ln().recip();
/// let table = GapTable::new(scale);
/// let rng = CounterRng::new(3, 1);
/// for agent in 0..1000 {
///     let u = rng.uniform(agent, 0, 0);
///     assert_eq!(table.gap(rng.word(agent, 0, 0)), geometric_gap(u, scale));
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GapTable {
    /// Grid index at which gap `j + 2` starts; unused entries hold
    /// `u64::MAX`, which no grid index reaches.
    bounds: [u64; GapTable::CAPACITY],
    /// Per bin of the grid index's top [`GapTable::BIN_BITS`] bits: the
    /// number of entries at or below the bin's first grid index, with
    /// [`GapTable::CROWDED`] set when two or more entries lie inside the
    /// bin past it.
    bins: [u8; GapTable::BINS],
    /// Grid indices from here on take the logarithm: the last entry, or
    /// 0 for an empty table.
    limit: u64,
    scale: f64,
}

impl GapTable {
    /// The most entries a table holds: a power of two, so the search
    /// takes `log2(CAPACITY)` steps.
    pub const CAPACITY: usize = 64;

    /// The build checks grid indices `b - WINDOW .. b + WINDOW` around
    /// each entry `b`: where the computed gap can disagree with the exact
    /// one is fewer than three grid points wide and holds `b` or `b - 1`
    /// (DESIGN §12.2).
    const WINDOW: u64 = 3;

    /// Grid steps the correction of a closed-form seed may take before
    /// the build gives up and leaves the table empty.
    const MAX_CORRECTION: u32 = 64;

    /// Bits of the grid index that pick an index bin.
    const BIN_BITS: u32 = 10;

    /// Index bins, one per value of the grid index's top
    /// [`GapTable::BIN_BITS`] bits.
    const BINS: usize = 1 << GapTable::BIN_BITS;

    /// The shift that leaves a 53-bit grid index's bin.
    const BIN_SHIFT: u32 = 53 - GapTable::BIN_BITS;

    /// A bin's flag for two or more entries past its first grid index:
    /// above every count, which is at most [`GapTable::CAPACITY`].
    const CROWDED: u8 = 0x80;

    /// The table for `scale = 1 / ln(q)`, as in [`geometric_gap`].
    #[must_use]
    pub fn new(scale: f64) -> GapTable {
        GapTable::build(scale).unwrap_or(GapTable {
            bounds: [u64::MAX; GapTable::CAPACITY],
            bins: [0; GapTable::BINS],
            limit: 0,
            scale,
        })
    }

    /// The checked table, or `None` when it cannot be shown to equal
    /// [`geometric_gap`].
    fn build(scale: f64) -> Option<GapTable> {
        if !(scale.is_finite() && scale <= 0.0) {
            return None;
        }
        // q^k ≤ 2⁻²⁰ from k = 20·ln 2·|s| on.
        let entries = (-20.0 * std::f64::consts::LN_2 * scale)
            .ceil()
            .clamp(1.0, GapTable::CAPACITY as f64) as usize;
        let mut table = GapTable {
            bounds: [u64::MAX; GapTable::CAPACITY],
            bins: [0; GapTable::BINS],
            limit: 0,
            scale,
        };
        for j in 0..entries {
            // The gap reaches k + 1 where u ≥ 1 − e^{k/s}; a grid index of
            // 2⁵³ means it never does.
            let k = (j + 1) as f64;
            let seed = (-(k / scale).exp_m1() * GRID_END as f64).ceil();
            table.bounds[j] = GapTable::first_reaching(seed as u64, j as u64 + 2, scale)?;
        }
        table.limit = table.bounds[entries - 1];
        let bounds = &table.bounds[..entries];
        if bounds.windows(2).any(|w| w[0] > w[1]) {
            return None;
        }
        // One walk over the bins and the sorted entries: `below` counts
        // the entries at or below the bin's first grid index.
        let mut below = 0;
        for (bin, slot) in table.bins.iter_mut().enumerate() {
            let start = (bin as u64) << GapTable::BIN_SHIFT;
            while below < entries && bounds[below] <= start {
                below += 1;
            }
            let next_bin = start + (1 << GapTable::BIN_SHIFT);
            let crowded = below + 1 < entries && bounds[below + 1] < next_bin;
            *slot = below as u8 | if crowded { GapTable::CROWDED } else { 0 };
        }
        let agrees = bounds.iter().all(|&b| {
            let lo = b.saturating_sub(GapTable::WINDOW);
            let hi = (b + GapTable::WINDOW).min(table.limit);
            (lo..hi).all(|m| table.lookup(m) == gap_at(m, scale))
        });
        agrees.then_some(table)
    }

    /// The first grid index whose gap is at least `gap`, walked to from
    /// `seed` (2⁵³ when no grid index reaches it).
    fn first_reaching(seed: u64, gap: u64, scale: f64) -> Option<u64> {
        let mut m = seed.min(GRID_END);
        for _ in 0..GapTable::MAX_CORRECTION {
            if m > 0 && gap_at(m - 1, scale) >= gap {
                m -= 1;
            } else if m < GRID_END && gap_at(m, scale) < gap {
                m += 1;
            } else {
                return Some(m);
            }
        }
        None
    }

    /// One plus the number of entries at or below grid index `m`, for
    /// `m` below the last entry. The entries below `m`'s bin are counted
    /// in the bin's slot; below the last entry that count is less than
    /// [`GapTable::CAPACITY`], and when the bin is not crowded the only
    /// entry that can lie in its part up to `m` is the next one.
    #[inline]
    fn lookup(&self, m: u64) -> u64 {
        // The mask keeps the bin in bounds without a check: `m` is a
        // 53-bit grid index.
        let slot = self.bins[(m >> GapTable::BIN_SHIFT) as usize & (GapTable::BINS - 1)];
        if slot & GapTable::CROWDED != 0 {
            return self.search(m);
        }
        let below = usize::from(slot);
        let next = self.bounds[below & (GapTable::CAPACITY - 1)];
        1 + below as u64 + u64::from(next <= m)
    }

    /// [`GapTable::lookup`] by a branch-free binary search over the
    /// power-of-two table. The count stays below [`GapTable::CAPACITY`],
    /// so each step halves an interval that holds it.
    fn search(&self, m: u64) -> u64 {
        let mut at = 0;
        let mut half = GapTable::CAPACITY / 2;
        while half > 0 {
            // The mask keeps every index in bounds without a check.
            at += half * usize::from(self.bounds[(at + half - 1) & (GapTable::CAPACITY - 1)] <= m);
            half /= 2;
        }
        1 + at as u64
    }

    /// [`geometric_gap`] of the uniform of counter word `word` (see
    /// [`CounterRng::uniform`]), bit for bit.
    #[inline]
    #[must_use]
    pub fn gap(&self, word: u64) -> u64 {
        let m = word >> 11;
        if m < self.limit {
            self.lookup(m)
        } else {
            gap_at(m, self.scale)
        }
    }

    /// The scale the table was built for.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The table's entries: entry `j` is the first grid index whose gap
    /// is at least `j + 2`, and 2⁵³ for a gap no grid index reaches.
    /// Empty when every draw takes the logarithm.
    #[must_use]
    pub fn bounds(&self) -> &[u64] {
        let n = self.bounds.iter().take_while(|&&b| b != u64::MAX).count();
        &self.bounds[..n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix_known_values() {
        // Reference values from the SplitMix64 reference implementation
        // seeded with 0.
        let mut state = 0u64;
        assert_eq!(splitmix64(&mut state), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut state), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut state), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn sequences_are_reproducible() {
        let mut a = SeedSequence::new(123);
        let mut b = SeedSequence::new(123);
        for _ in 0..16 {
            assert_eq!(a.next_seed(), b.next_seed());
        }
    }

    #[test]
    fn different_masters_diverge() {
        let mut a = SeedSequence::new(1);
        let mut b = SeedSequence::new(2);
        let hits = (0..64).filter(|_| a.next_seed() == b.next_seed()).count();
        assert_eq!(hits, 0);
    }

    #[test]
    fn seed_at_equals_sequential_seeds() {
        // Masters near u64::MAX make the state addition wrap within the
        // first few steps.
        for master in [
            0,
            1,
            42,
            u64::MAX,
            u64::MAX - 1,
            u64::MAX - 0x9E37_79B9_7F4A_7C14,
        ] {
            let at = SeedSequence::new(master);
            let mut walk = at;
            for i in 0..10_000 {
                assert_eq!(at.seed_at(i), walk.next_seed(), "master {master:#x}, i {i}");
            }
            // Indexed from the current position, not from the master.
            assert_eq!(walk.seed_at(0), walk.next_seed());
        }
    }

    #[test]
    fn derive_is_stable_and_stream_dependent() {
        let seq = SeedSequence::new(99);
        assert_eq!(seq.derive(5), seq.derive(5));
        assert_ne!(seq.derive(5), seq.derive(6));
    }

    #[test]
    fn rngs_from_same_seed_agree() {
        let mut r1 = seeded_rng(77);
        let mut r2 = seeded_rng(77);
        for _ in 0..8 {
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
        }
    }

    #[test]
    fn counter_rng_is_pure_and_coordinate_sensitive() {
        let s = CounterRng::new(7, 3);
        assert_eq!(s.word(1, 2, 0), s.word(1, 2, 0));
        // Every coordinate matters.
        assert_ne!(s.word(1, 2, 0), s.word(2, 2, 0));
        assert_ne!(s.word(1, 2, 0), s.word(1, 3, 0));
        assert_ne!(s.word(1, 2, 0), s.word(1, 2, 1));
        // Swapped coordinates do not collide.
        assert_ne!(s.word(5, 9, 0), s.word(9, 5, 0));
        // Purpose and seed both separate streams.
        assert_ne!(CounterRng::new(7, 4).word(1, 2, 0), s.word(1, 2, 0));
        assert_ne!(CounterRng::new(8, 3).word(1, 2, 0), s.word(1, 2, 0));
    }

    #[test]
    fn counter_uniform_is_in_range_with_plausible_mean() {
        let s = CounterRng::new(123, 0);
        let mut sum = 0.0;
        const N: u64 = 20_000;
        for i in 0..N {
            let u = s.uniform(i, i / 7, 0);
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / N as f64;
        assert!((mean - 0.5).abs() < 0.01, "uniform mean {mean}");
    }

    #[test]
    fn counter_index_stays_in_bounds_and_covers() {
        let s = CounterRng::new(9, 1);
        let mut seen = [false; 8];
        for i in 0..512u64 {
            let k = s.index(i, 0, 0, 8);
            assert!(k < 8);
            seen[k as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "all 8 slots reachable");
        assert_eq!(s.index(1, 2, 3, 0), 0, "n = 0 maps to 0");
    }

    #[test]
    fn counter_normal_has_plausible_moments() {
        let s = CounterRng::new(55, 2);
        let (mut sum, mut sq) = (0.0, 0.0);
        const N: u64 = 20_000;
        for i in 0..N {
            let z = s.normal(i, 0, 0);
            sum += z;
            sq += z * z;
        }
        let mean = sum / N as f64;
        let var = sq / N as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "normal mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "normal variance {var}");
    }

    #[test]
    fn next_rng_streams_are_independent() {
        let mut seq = SeedSequence::new(0xDEAD_BEEF);
        let mut r1 = seq.next_rng();
        let mut r2 = seq.next_rng();
        // Not a statistical test; just confirms the streams are not identical.
        let same = (0..32)
            .filter(|_| r1.gen::<u64>() == r2.gen::<u64>())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn lane_draws_match_counter_rng() {
        let rng = CounterRng::new(0xDEAD_BEEF, 8);
        for agent in [0u64, 1, 7, 1_000_003] {
            let lane = rng.lane(agent);
            for epoch in [0u64, 1, 63, u64::MAX] {
                for slot in [0u64, 1, 2] {
                    assert_eq!(lane.word(epoch, slot), rng.word(agent, epoch, slot));
                    assert_eq!(
                        lane.uniform(epoch, slot).to_bits(),
                        rng.uniform(agent, epoch, slot).to_bits()
                    );
                }
            }
        }
    }

    /// The svm phase process (persistence 3), the paper's cooling
    /// (`p_c` 0.5), slow cooling (0.75), and the two ends of the entry
    /// count: q = 0.1 (7 entries) and q = 0.9 (all 64, crowding the bins
    /// near u = 1).
    fn gap_tables() -> Vec<(&'static str, GapTable)> {
        [
            ("svm phase", (2.0f64 / 3.0).ln().recip()),
            ("paper cooling", 0.5f64.ln().recip()),
            ("slow cooling", 0.75f64.ln().recip()),
            ("q = 0.1", 0.1f64.ln().recip()),
            ("q = 0.9", 0.9f64.ln().recip()),
            ("empty", f64::NAN),
        ]
        .into_iter()
        .map(|(name, scale)| (name, GapTable::new(scale)))
        .collect()
    }

    #[test]
    fn gap_lookup_equals_the_logarithm_near_every_entry_and_at_every_bin_edge() {
        let bin = 1u64 << GapTable::BIN_SHIFT;
        for (name, table) in gap_tables() {
            let mut points: Vec<u64> = (0..GapTable::BINS as u64)
                .flat_map(|b| [b * bin, b * bin + bin - 1])
                .collect();
            for &b in table.bounds() {
                let lo = b.saturating_sub(GapTable::WINDOW);
                points.extend(lo..=(b + GapTable::WINDOW).min(GRID_END - 1));
            }
            for m in points {
                let want = gap_at(m, table.scale());
                assert_eq!(table.gap(m << 11), want, "{name}: grid index {m}");
                assert_eq!(table.gap(m << 11 | 0x7FF), want, "{name}: grid index {m}");
                if m < table.limit {
                    assert_eq!(table.lookup(m), table.search(m), "{name}: grid index {m}");
                }
            }
        }
    }

    #[test]
    fn gap_tables_search_only_in_the_few_bins_where_entries_crowd() {
        // Entries crowd only near u = 1, where consecutive gaps start
        // less than a bin (2⁻¹⁰) apart.
        let expected = [(35, 2), (20, 1), (49, 2), (7, 1), (64, 6), (0, 0)];
        for ((name, table), (entries, crowded)) in gap_tables().into_iter().zip(expected) {
            let searched = table
                .bins
                .iter()
                .filter(|&&slot| slot & GapTable::CROWDED != 0)
                .count();
            assert_eq!(table.bounds().len(), entries, "{name}: entries");
            assert_eq!(searched, crowded, "{name}: crowded bins");
        }
    }

    #[test]
    fn lanes_of_distinct_agents_differ() {
        let rng = CounterRng::new(5, 8);
        let words: Vec<u64> = (0..64).map(|a| rng.lane(a).word(0, 0)).collect();
        let mut sorted = words.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), words.len());
    }
}
