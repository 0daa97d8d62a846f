//! Offline shim for `rand`, exposing the subset of the 0.8 API the
//! workspace uses (`StdRng::seed_from_u64` + `Rng::gen_range`).
//!
//! The build environment has no registry access, so input generators are
//! backed by a deterministic SplitMix64/xoshiro-style generator instead
//! of the real `rand` crate. All users seed explicitly via
//! [`SeedableRng::seed_from_u64`], so determinism per seed — the only
//! property the workloads rely on — is preserved. The streams differ
//! from upstream `rand`, which is fine: generated inputs only need to be
//! reproducible, not bit-identical to some external reference.
//!
//! Beyond upstream's API, [`rngs::StdRng::skip`] jumps the stream ahead
//! `n` draws in O(1). Workload inputs are pure functions of `(n, seed)`;
//! the generators use `skip` to fill one seeded stream from several
//! threads at once, each thread owning a fixed slice of draws, so an
//! input comes out bit-identical at any thread count. Expected values
//! are computed from those inputs by oracles: mergesort's is the
//! standard library's sort, independent of the serial kernel it checks;
//! the other workloads still use their serial kernel as the oracle.

use std::ops::{Range, RangeInclusive};

/// Core random-number source: 64 random bits at a time.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable construction, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Extension methods over any [`RngCore`], mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// A uniform sample from `range` (half-open or inclusive).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// A uniformly random value of a sampleable type.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }
}

impl<R: RngCore> Rng for R {}

/// Types with a "standard" uniform distribution (shim of
/// `rand::distributions::Standard` sampling).
pub trait Standard: Sized {
    /// Draws one value.
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> f64 {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges that can produce a uniform sample (shim of
/// `rand::distributions::uniform::SampleRange`).
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_from<R: RngCore>(self, rng: &mut R) -> T;
}

#[inline]
fn below<R: RngCore>(rng: &mut R, n: u128) -> u128 {
    debug_assert!(n > 0, "empty sample range");
    // Modulo bias is negligible for the small ranges the workloads use
    // (all far below 2^64), and determinism is what matters here.
    ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) % n
}

macro_rules! impl_sample_range {
    ($($t:ty),* $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + below(rng, span) as i128) as $t
            }
        }
    )*};
}

impl_sample_range!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        let unit = f64::sample_standard(rng); // [0, 1)
        self.start + unit * (self.end - self.start)
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample_from<R: RngCore>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "empty range");
        let unit = f64::sample_standard(rng) as f32;
        self.start + unit * (self.end - self.start)
    }
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard RNG: SplitMix64 (deterministic, fast,
    /// well distributed — not cryptographic, exactly like the name
    /// promises nothing about).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    /// The Weyl increment SplitMix64's state advances by per draw.
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    impl StdRng {
        /// Advances the stream past `n` draws in O(1), leaving the
        /// generator exactly as if [`RngCore::next_u64`] had been called
        /// `n` times and the results discarded: the state walks a
        /// fixed-increment Weyl sequence, so skipping is one multiply-add.
        #[inline]
        pub fn skip(&mut self, n: u64) {
            self.state = self.state.wrapping_add(n.wrapping_mul(GAMMA));
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(GAMMA);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            StdRng {
                state: seed ^ 0x6A09_E667_F3BC_C909,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn skip_matches_discarded_draws() {
        for n in [0u64, 1, 2, 7, 1000] {
            let mut fast = StdRng::seed_from_u64(0xABCD);
            let mut slow = StdRng::seed_from_u64(0xABCD);
            fast.skip(n);
            for _ in 0..n {
                slow.next_u64();
            }
            assert_eq!(fast.next_u64(), slow.next_u64(), "after skipping {n}");
        }
    }

    #[test]
    fn ranges_in_bounds() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..2000 {
            let x = r.gen_range(-4i64..=4);
            assert!((-4..=4).contains(&x));
            let y = r.gen_range(0usize..13);
            assert!(y < 13);
            let z = r.gen_range(5i64..=60);
            assert!((5..=60).contains(&z));
        }
    }

    #[test]
    fn full_span_reached() {
        let mut r = StdRng::seed_from_u64(3);
        let mut seen = [false; 9];
        for _ in 0..500 {
            seen[(r.gen_range(-4i64..=4) + 4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }
}
