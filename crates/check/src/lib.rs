//! # ps-check — a minimal seeded property-testing harness
//!
//! The zero-dependency replacement for the slice of `proptest` the
//! repo used: run a property over many seeded random cases, and on
//! failure shrink by halving the generator's size budget until the
//! failure disappears, then report the smallest still-failing case
//! with everything needed to replay it.
//!
//! ```
//! use ps_check::{check, ensure_eq, Gen};
//!
//! check("addition_commutes", |g: &mut Gen| {
//!     let (a, b) = (g.rng().gen::<u32>(), g.rng().gen::<u32>());
//!     ensure_eq!(a.wrapping_add(b), b.wrapping_add(a));
//!     Ok(())
//! });
//! ```
//!
//! * Cases default to 64; override with `PS_CHECK_CASES`.
//! * The base seed is derived from the property name (stable across
//!   runs); override with `PS_CHECK_SEED=<decimal or 0x-hex>`.
//! * A set variable that does not parse panics, naming it: a mistyped
//!   replay never silently runs the defaults.
//! * On failure the panic message prints the base seed, case seed and
//!   shrink level, and the exact environment to replay the run.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ps_rng::{env_u64, splitmix64, Rng, Sample, SampleRange};

/// Outcome of one property case: `Err` carries the counterexample
/// description.
pub type CaseResult = Result<(), String>;

/// Maximum shrink levels tried (each level halves size budgets; 16
/// halvings floor any practical length range).
const MAX_SHRINK: u32 = 16;

/// Harness configuration, resolved from the environment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of random cases to run (`PS_CHECK_CASES`, default 64).
    pub cases: u64,
    /// Base seed (`PS_CHECK_SEED`, default: hash of the property name).
    pub seed: u64,
}

impl Config {
    /// The configuration for a named property.
    pub fn from_env(name: &str) -> Config {
        let cases = env_u64("PS_CHECK_CASES").unwrap_or(64).max(1);
        let seed = env_u64("PS_CHECK_SEED").unwrap_or_else(|| fnv1a(name.as_bytes()));
        Config { cases, seed }
    }
}

/// FNV-1a over `data` — a stable, dependency-free name hash.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The per-case value source handed to properties: a seeded RNG plus
/// a shrink level that halves size budgets.
pub struct Gen {
    rng: Rng,
    shrink: u32,
}

impl Gen {
    fn new(case_seed: u64, shrink: u32) -> Gen {
        Gen {
            rng: Rng::seed_from_u64(case_seed),
            shrink,
        }
    }

    /// The underlying RNG for scalar draws.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// A uniform scalar (`g.value::<u32>()`).
    pub fn value<T: Sample>(&mut self) -> T {
        self.rng.gen()
    }

    /// A uniform value in `range`.
    pub fn int_in<R: SampleRange>(&mut self, range: R) -> R::Output {
        self.rng.gen_range(range)
    }

    /// A length in `[lo, hi)` whose span halves with each shrink
    /// level — the harness's unit of shrinking.
    pub fn len_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty length range {lo}..{hi}");
        let span = ((hi - lo) >> self.shrink).max(1);
        self.rng.gen_range(lo..lo + span)
    }

    /// Random bytes with a shrinkable length in `[lo, hi)`.
    pub fn bytes(&mut self, lo: usize, hi: usize) -> Vec<u8> {
        let n = self.len_in(lo, hi);
        let mut out = vec![0u8; n];
        self.rng.fill_bytes(&mut out);
        out
    }

    /// A fixed-size random byte array (e.g. a key).
    pub fn byte_array<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        self.rng.fill_bytes(&mut out);
        out
    }

    /// A vector of `f(g)`-generated elements with a shrinkable length
    /// in `[lo, hi)`.
    pub fn vec_of<T>(&mut self, lo: usize, hi: usize, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.len_in(lo, hi);
        (0..n).map(|_| f(self)).collect()
    }
}

/// Run `prop` over `PS_CHECK_CASES` seeded cases; panic with a
/// replayable report on the first (shrunk) failure.
pub fn check(name: &str, prop: impl FnMut(&mut Gen) -> CaseResult) {
    let cfg = Config::from_env(name);
    check_with(name, &cfg, prop);
}

/// [`check`] with an explicit configuration.
pub fn check_with(name: &str, cfg: &Config, mut prop: impl FnMut(&mut Gen) -> CaseResult) {
    for case in 0..cfg.cases {
        let mut stream = cfg.seed ^ case;
        let case_seed = splitmix64(&mut stream);
        let Err(msg) = run_case(&mut prop, case_seed, 0) else {
            continue;
        };
        // Shrink: halve size budgets while the property still fails;
        // keep the smallest failing level.
        let mut level = 0;
        let mut best = msg;
        for next in 1..=MAX_SHRINK {
            match run_case(&mut prop, case_seed, next) {
                Err(m) => {
                    level = next;
                    best = m;
                }
                Ok(()) => break,
            }
        }
        panic!(
            "ps-check: property '{name}' failed at case {case}/{cases} \
             (base seed {seed:#018x}, case seed {case_seed:#018x}, shrink level {level}):\n  \
             {best}\n  replay with: PS_CHECK_SEED={seed:#x} PS_CHECK_CASES={cases}",
            cases = cfg.cases,
            seed = cfg.seed,
        );
    }
}

fn run_case(
    prop: &mut impl FnMut(&mut Gen) -> CaseResult,
    case_seed: u64,
    shrink: u32,
) -> CaseResult {
    let mut g = Gen::new(case_seed, shrink);
    match catch_unwind(AssertUnwindSafe(|| prop(&mut g))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "property panicked".to_string());
            Err(format!("panic: {msg}"))
        }
    }
}

/// Fail the case with a message unless `cond` holds.
#[macro_export]
macro_rules! ensure {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            return Err(format!("{} ({})", format!($($arg)+), stringify!($cond)));
        }
    };
}

/// Fail the case unless `a == b`, reporting both values.
#[macro_export]
macro_rules! ensure_eq {
    ($a:expr, $b:expr) => {{
        let (va, vb) = (&$a, &$b);
        if va != vb {
            return Err(format!(
                "{} != {}: {:?} vs {:?}",
                stringify!($a), stringify!($b), va, vb
            ));
        }
    }};
    ($a:expr, $b:expr, $($arg:tt)+) => {{
        let (va, vb) = (&$a, &$b);
        if va != vb {
            return Err(format!(
                "{}: {} != {}: {:?} vs {:?}",
                format!($($arg)+), stringify!($a), stringify!($b), va, vb
            ));
        }
    }};
}

/// Fail the case unless `a != b`.
#[macro_export]
macro_rules! ensure_ne {
    ($a:expr, $b:expr) => {{
        let (va, vb) = (&$a, &$b);
        if va == vb {
            return Err(format!(
                "{} == {}: both {:?}",
                stringify!($a),
                stringify!($b),
                va
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0u64;
        let cfg = Config { cases: 32, seed: 1 };
        check_with("always_true", &cfg, |_g| {
            count += 1;
            Ok(())
        });
        assert_eq!(count, 32);
    }

    #[test]
    fn cases_are_deterministic_per_seed() {
        let collect = |seed| {
            let mut vals = Vec::new();
            let cfg = Config { cases: 8, seed };
            check_with("collect", &cfg, |g| {
                vals.push(g.value::<u64>());
                Ok(())
            });
            vals
        };
        assert_eq!(collect(5), collect(5));
        assert_ne!(collect(5), collect(6));
    }

    #[test]
    fn failure_panics_with_replay_info() {
        let cfg = Config { cases: 64, seed: 9 };
        let err = catch_unwind(AssertUnwindSafe(|| {
            check_with("always_false", &cfg, |_g| Err("nope".to_string()));
        }))
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("always_false"), "{msg}");
        assert!(msg.contains("PS_CHECK_SEED"), "{msg}");
        assert!(msg.contains("nope"), "{msg}");
    }

    #[test]
    fn shrinking_halves_length_budgets() {
        // A property failing only for long inputs must be reported at
        // a deeper shrink level with a shorter witness.
        let cfg = Config { cases: 64, seed: 3 };
        let mut reported = usize::MAX;
        let err = catch_unwind(AssertUnwindSafe(|| {
            check_with("long_inputs_fail", &cfg, |g| {
                let v = g.bytes(0, 1024);
                if v.len() >= 4 {
                    Err(format!("len={}", v.len()))
                } else {
                    Ok(())
                }
            });
        }))
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("string panic");
        // Parse the final witness length out of the message.
        if let Some(pos) = msg.rfind("len=") {
            let digits: String = msg[pos + 4..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            reported = digits.parse().expect("length in message");
        }
        assert!(
            reported < 64,
            "shrinking should cut the witness well below the 1024 cap: {msg}"
        );
        assert!(msg.contains("shrink level"), "{msg}");
    }

    #[test]
    fn panics_inside_properties_are_counterexamples() {
        let cfg = Config { cases: 4, seed: 2 };
        let err = catch_unwind(AssertUnwindSafe(|| {
            check_with("panicky", &cfg, |_g| {
                let v: Vec<u8> = Vec::new();
                let _ = v[3]; // index out of bounds
                Ok(())
            });
        }))
        .expect_err("must fail");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("panic"), "{msg}");
    }

    #[test]
    fn len_in_respects_bounds_at_all_shrink_levels() {
        for shrink in 0..=MAX_SHRINK {
            let mut g = Gen::new(77, shrink);
            for _ in 0..200 {
                let n = g.len_in(3, 10);
                assert!((3..10).contains(&n), "shrink {shrink} gave {n}");
            }
        }
    }
}
