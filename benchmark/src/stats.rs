//! The benchmark's statistics: nearest-rank percentiles, best-round
//! selection, across-round quartiles, FNV-1a digests and the metric-name
//! rule. Pure functions; nothing here touches the program or a clock.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The `p`-th percentile (`0 ≤ p ≤ 1`) of an unsorted sample by the
/// nearest-rank method — the same small-sample contract as
/// `chm_serve::percentile`: rank = `ceil(p·n)` clamped to `1..=n`, so a
/// percentile whose rank lands past the last position is the maximum.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The best of the per-round values: interference from neighbours only
/// ever adds time, so the round least disturbed is the minimum of a time
/// and the maximum of a rate.
pub fn best_round(rounds: &[f64], better: Better) -> Option<f64> {
    let pick = |a: f64, b: f64| match better {
        Better::Lower => a.min(b),
        Better::Higher => a.max(b),
    };
    rounds.iter().copied().reduce(pick)
}

/// Across-round (q1, median, q3) by nearest rank.
pub fn quartiles(rounds: &[f64]) -> Option<[f64; 3]> {
    Some([
        percentile(rounds, 0.25)?,
        percentile(rounds, 0.50)?,
        percentile(rounds, 0.75)?,
    ])
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// FNV-1a, 64-bit, folded over bytes or little-endian words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a *set* of items: sorted first, so the digest does not depend
    /// on the (hash-map) order the caller happened to iterate in.
    pub fn set(&mut self, mut items: Vec<(u64, u64)>) {
        items.sort_unstable();
        self.word(items.len() as u64);
        for (k, v) in items {
            self.word(k);
            self.word(v);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Metric and workload names: `[A-Za-z0-9_.-]+`, first character a letter
/// or digit, at most 64 characters (the BENCHMARK.json contract).
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok_char)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_with_clamped_rank() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 0.50), Some(3.0)); // ceil(2.5) = 3rd
        assert_eq!(percentile(&xs, 0.90), Some(5.0)); // ceil(4.5) = 5th
        assert_eq!(percentile(&xs, 0.20), Some(1.0)); // ceil(1.0) = 1st
        assert_eq!(percentile(&xs, 0.0), Some(1.0)); // rank 0 clamps to 1
        assert_eq!(percentile(&xs, 1.0), Some(5.0));
        // Small sample: p99 of fewer than 100 samples is the maximum.
        assert_eq!(percentile(&[7.0, 9.0], 0.99), Some(9.0));
        assert_eq!(percentile(&[7.0], 0.01), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn best_round_follows_the_direction() {
        let rounds = [10.4, 9.1, 10.9];
        assert_eq!(best_round(&rounds, Better::Lower), Some(9.1));
        assert_eq!(best_round(&rounds, Better::Higher), Some(10.9));
        assert_eq!(best_round(&[], Better::Lower), None);
    }

    #[test]
    fn quartiles_are_ordered() {
        let q = quartiles(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(q, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn set_digest_ignores_iteration_order_but_not_content() {
        let digest = |items: Vec<(u64, u64)>| {
            let mut h = Fnv::default();
            h.set(items);
            h
        };
        let a = digest(vec![(1, 10), (2, 20), (3, 30)]);
        let b = digest(vec![(3, 30), (1, 10), (2, 20)]);
        assert_eq!(a, b);
        assert_ne!(a, digest(vec![(1, 10), (2, 20), (3, 31)]));
        assert_ne!(a, digest(vec![(1, 10), (2, 20)]));
        // The byte stream form *is* order-sensitive, as a record stream must be.
        let (mut x, mut y) = (Fnv::default(), Fnv::default());
        x.bytes(b"ab");
        y.bytes(b"ba");
        assert_ne!(x, y);
        assert_eq!(Fnv::default().hex(), "cbf29ce484222325");
    }

    #[test]
    fn name_rule_matches_the_contract() {
        for good in [
            "op_ms_p50",
            "netsim.replay_us",
            "trace.coverage-ratio",
            "9lives",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "slash/unit",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }
}
