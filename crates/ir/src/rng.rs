//! The one seeded random stream.
//!
//! Everything in the workspace that draws random numbers draws them from
//! [`Rng`]: input synthesis for differential runs, the tuner's candidate
//! sampler, the service's fault plans and every property test. A failure
//! therefore replays from the seed it was drawn from, or from a
//! `(seed, label)` pair when it came from a derived substream.
//!
//! The interface is a deterministic random bit generator's:
//!
//! * *instantiate* with [`Rng::new`];
//! * *derive a substream* with [`Rng::stream`];
//! * *generate* with [`Rng::next_u64`] and the draws built on it
//!   ([`below`](Rng::below), [`range`](Rng::range),
//!   [`chance`](Rng::chance), [`pick`](Rng::pick)).
//!
//! The known-answer vectors in this file's tests pin the first outputs of
//! both calls, so a change to the permutation cannot go unnoticed.
//!
//! The permutation is xorshift64* (a xorshift state update followed by a
//! multiplicative scramble of the output). It is not cryptographic and
//! does not need to be: it is the generator the library's streams
//! already ran on, so the data they draw did not move when they moved
//! here.

/// The xorshift64* output multiplier.
pub const MULTIPLIER: u64 = 0x2545_F491_4F6C_DD1D;

/// Knuth's MMIX linear congruential multiplier. No stream here uses it;
/// it is named so that the workspace's one-stream test can look for
/// private LCGs as well as private xorshift64* copies.
pub const LCG_MULTIPLIER: u64 = 6_364_136_223_846_793_005;

/// The state a zero seed is mapped to: xorshift's one fixed point is the
/// zero state. Every other seed is its own state, so seeds `2k` and
/// `2k + 1` are different streams.
const ZERO_STATE: u64 = 0x9E37_79B9_7F4A_7C15;

/// A seeded xorshift64* stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Instantiates the stream of `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(if seed == 0 { ZERO_STATE } else { seed })
    }

    /// Derives the substream named `label` of `seed`. The same pair
    /// always gives the same stream; for one label, different seeds give
    /// different streams, and the seed is mixed so that neighbouring
    /// seeds do not start from neighbouring states.
    pub fn stream(seed: u64, label: &str) -> Self {
        let label = label.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        // splitmix64's finalizer: a bijection, so no two seeds collide.
        let mut z = (seed ^ label).wrapping_add(ZERO_STATE);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng::new(z ^ (z >> 31))
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(MULTIPLIER)
    }

    /// A value below `n`; 0 when `n` is 0. Draws once either way.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// A value in `lo..=hi`; `lo` when `hi < lo`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi.max(lo).wrapping_sub(lo) as u64).wrapping_add(1);
        let x = self.next_u64();
        // A span of 0 is the whole of `i64`: every draw is in range.
        lo.wrapping_add(x.checked_rem(span).unwrap_or(x) as i64)
    }

    /// True with probability `percent` / 100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }

    /// One element of `from`; `None` when it is empty.
    pub fn pick<'a, T>(&mut self, from: &'a [T]) -> Option<&'a T> {
        from.get(self.below(from.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(mut rng: Rng) -> [u64; 4] {
        [(); 4].map(|_| rng.next_u64())
    }

    /// Known answers, computed from the definitions of xorshift64* and
    /// of the substream derivation outside this file. Seed 0xE202 is
    /// the tuner's default seed.
    #[test]
    fn known_answers() {
        assert_eq!(first(Rng::new(0)), KAT_0);
        assert_eq!(first(Rng::new(ZERO_STATE)), KAT_0);
        assert_eq!(first(Rng::new(1)), KAT_1);
        assert_eq!(first(Rng::new(2)), KAT_2);
        assert_eq!(first(Rng::new(0xE202)), KAT_E202);
        assert_eq!(first(Rng::stream(7, "candidates")), KAT_STREAM);
    }

    const KAT_0: [u64; 4] = [
        0x0D83_B3E2_9A21_487A,
        0x54C4_4C79_F1FE_9D67,
        0xA845_F342_007A_0E78,
        0x7D6E_0B87_8A79_4779,
    ];
    const KAT_1: [u64; 4] = [
        0x47E4_CE4B_896C_DD1D,
        0xABCF_A6A8_E079_651D,
        0xB9D1_0D8F_EB73_1F57,
        0x4DB4_18A0_BB1B_019D,
    ];
    const KAT_2: [u64; 4] = [
        0x8FC9_9C97_12D9_BA3A,
        0x579F_4D51_C0F2_CA3A,
        0x7649_35F6_EC53_1BCB,
        0x94A9_EDDC_31DD_9857,
    ];
    const KAT_E202: [u64; 4] = [
        0x3FFF_F6BC_CA1A_3533,
        0x8E1C_9845_72FA_D05A,
        0x724E_B134_4B78_6BCF,
        0xEEFC_D2D9_18C8_C360,
    ];
    const KAT_STREAM: [u64; 4] = [
        0x5935_06FF_475C_8C91,
        0xA711_857F_08C2_B4B1,
        0xA44B_75C7_EA03_0FDB,
        0xF582_460E_789C_F054,
    ];

    #[test]
    fn neighbouring_seeds_are_different_streams() {
        for k in 0..64u64 {
            assert_ne!(
                first(Rng::new(2 * k)),
                first(Rng::new(2 * k + 1)),
                "k = {k}"
            );
        }
    }

    #[test]
    fn a_substream_depends_on_its_seed_and_its_label() {
        let of = |seed, label| first(Rng::stream(seed, label));
        assert_eq!(of(3, "env"), of(3, "env"));
        assert_ne!(of(3, "env"), of(4, "env"));
        assert_ne!(of(3, "env"), of(3, "inputs"));
        assert_ne!(of(3, "env"), first(Rng::new(3)));
    }

    #[test]
    fn draws_stay_in_their_ranges() {
        let mut rng = Rng::new(0xD1CE);
        assert_eq!(rng.below(0), 0);
        assert_eq!(rng.range(5, 2), 5);
        assert_eq!(rng.pick::<u8>(&[]), None);
        assert!(!rng.chance(0));
        assert!(rng.chance(100));
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
            assert!((-3..=3).contains(&rng.range(-3, 3)));
            assert!(rng.pick(&[1, 2, 3]).is_some());
        }
        // The whole of `i64` is a range too.
        let _ = rng.range(i64::MIN, i64::MAX);
        let seen: std::collections::BTreeSet<i64> = (0..200).map(|_| rng.range(-2, 2)).collect();
        assert_eq!(seen.len(), 5, "every value of a small range is drawn");
    }
}
