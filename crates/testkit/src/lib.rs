//! # samzasql-testkit
//!
//! Seeded randomness for the workspace, with no dependencies:
//!
//! * [`Rng`] — a splitmix64 generator. The workload generators draw the
//!   benchmark data from it, and tests draw their random cases from it. Its
//!   stream is fixed: the same seed gives the same values on every platform
//!   and every build.
//! * [`cases`] — runs a property over `n` cases, each with a generator of
//!   its own seed. When a case panics, the runner's panic names the case
//!   index and the case seed, and `Rng::new(seed)` replays that one case.
//!   There is no shrinking: a failing case is reported as drawn.
//! * [`wait_until`] — the one condition wait the concurrent tests use.

use std::ops::{Range, RangeInclusive};
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Letters and digits, in the order [`Rng::alphanumeric`] indexes them.
const ALPHANUMERIC: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";

/// splitmix64: a 64-bit state advanced by the golden-ratio increment, each
/// output mixed by two xor-shift-multiply rounds.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `[0, span)`: the high 64 bits of `next_u64 × span`.
    /// Returns 0 when `span` is 0.
    pub fn below(&mut self, span: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
    }

    /// A value in `[0, 1)` with 53 random bits.
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform value from an integer or `f64` range, half-open or
    /// inclusive. Panics on an empty range.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// One ASCII letter or digit, uniform over the 62.
    pub fn alphanumeric(&mut self) -> u8 {
        ALPHANUMERIC[self.below(ALPHANUMERIC.len() as u64) as usize]
    }

    /// A string of `len` ASCII letters and digits.
    pub fn alphanumeric_string(&mut self, len: usize) -> String {
        (0..len).map(|_| char::from(self.alphanumeric())).collect()
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.gen_range(0..items.len())]
    }
}

/// A range [`Rng::gen_range`] samples from.
pub trait SampleRange<T> {
    fn sample(self, rng: &mut Rng) -> T;
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                if span > u128::from(u64::MAX) {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.below(span as u64) as i128) as $t
            }
        }
    )*};
}

int_ranges!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut Rng) -> f64 {
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample(self, rng: &mut Rng) -> f64 {
        let (lo, hi) = self.into_inner();
        lo + (hi - lo) * rng.unit_f64()
    }
}

/// Run `property` on `n` cases. Case `i` gets a generator seeded with the
/// `i`-th output of `Rng::new(seed)`. The first case that panics stops the
/// run with a panic naming its index and its seed.
pub fn cases(n: u32, seed: u64, mut property: impl FnMut(&mut Rng)) {
    let mut seeds = Rng::new(seed);
    for case in 0..n {
        let case_seed = seeds.next_u64();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            property(&mut Rng::new(case_seed));
        }));
        if let Err(payload) = outcome {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            panic!(
                "case {case} of {n} failed (case seed {case_seed:#018x}; \
                 replay it with Rng::new({case_seed:#018x})): {message}"
            );
        }
    }
}

/// Poll `cond` until it holds. Panics naming `what` once `timeout` has
/// passed: the deadline only turns a hang into a failure. The caller sleeps
/// 1 ms between polls, leaving the cores to the threads it waits on.
pub fn wait_until(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(
            Instant::now() < deadline,
            "timed out after {timeout:?} waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Draws {
        words: [u64; 3],
        small: [i32; 3],
        signed: [i64; 2],
        unit: f64,
        bools: [bool; 4],
        text: String,
    }

    /// The first draws from `seed`, in field order.
    fn draws(seed: u64) -> Draws {
        let mut rng = Rng::new(seed);
        Draws {
            words: [(); 3].map(|_| rng.next_u64()),
            small: [(); 3].map(|_| rng.gen_range(0..100)),
            signed: [(); 2].map(|_| rng.gen_range(-5..=5)),
            unit: rng.gen_range(0.0..1.0),
            bools: [(); 4].map(|_| rng.gen_bool(0.3)),
            text: rng.alphanumeric_string(12),
        }
    }

    /// The first draws for two seeds. The benchmark inputs are drawn from
    /// this stream, so it must not change.
    #[test]
    fn stream_is_pinned() {
        assert_eq!(
            draws(0),
            Draws {
                words: [0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f],
                small: [97, 10, 32],
                signed: [-4, 3],
                unit: 0.24568894884013137,
                bools: [false, false, false, false],
                text: "irgevM01o5U1".into(),
            }
        );
        assert_eq!(
            draws(42),
            Draws {
                words: [0xbdd732262feb6e95, 0x28efe333b266f103, 0x47526757130f9f52],
                small: [34, 3, 86],
                signed: [-3, 3],
                unit: 0.3399310389170206,
                bools: [false, true, false, false],
                text: "gpMGeFq7ElmE".into(),
            }
        );
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::new(7);
        for _ in 0..10_000 {
            assert!((3..9).contains(&rng.gen_range(3..9u8)));
            assert!((-2..=2).contains(&rng.gen_range(-2..=2i32)));
            assert!((0.5..1.5).contains(&rng.gen_range(0.5..1.5)));
        }
        assert_eq!(rng.gen_range(5..=5u64), 5);
        let _full: u64 = rng.gen_range(0..=u64::MAX);
        assert!(rng
            .alphanumeric_string(64)
            .bytes()
            .all(|b| b.is_ascii_alphanumeric()));
    }

    #[test]
    fn every_case_runs_with_its_own_seed() {
        let mut seen = Vec::new();
        cases(5, 9, |rng| seen.push(rng.next_u64()));
        let mut seeds = Rng::new(9);
        let expected: Vec<u64> = (0..5)
            .map(|_| Rng::new(seeds.next_u64()).next_u64())
            .collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn a_failing_case_names_its_index_and_seed() {
        let mut seeds = Rng::new(11);
        let case_seed = (0..4).map(|_| seeds.next_u64()).last().unwrap();
        let mut case = 0;
        let payload = panic::catch_unwind(AssertUnwindSafe(|| {
            cases(10, 11, |_| {
                case += 1;
                assert!(case < 4, "the fourth case fails");
            })
        }))
        .expect_err("the fourth case panics");
        let message = payload.downcast_ref::<String>().expect("formatted panic");
        assert!(message.starts_with("case 3 of 10 failed"), "{message}");
        assert!(message.contains(&format!("{case_seed:#018x}")), "{message}");
        assert!(message.ends_with("the fourth case fails"), "{message}");
    }
}
