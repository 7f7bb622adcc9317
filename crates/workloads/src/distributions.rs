//! Flow-size distributions for trace synthesis.
//!
//! The four named workloads follow the paper (§5.2): DCTCP \[40\] (web
//! search), HADOOP \[43\] (Facebook datacenter), VL2 \[44\], and CACHE \[45\]
//! (key-value store). Flow sizes are in **packets** — the testbed normalizes
//! every packet to 64 bytes, so only packet counts matter to ChameleMon.
//!
//! CDF tables are approximate transcriptions of the cited papers' figures
//! (a substitution for the original traces, stated in the
//! [crate docs](crate)): the evaluation's qualitative claims depend
//! on the workloads' relative skew, which these tables preserve — CACHE is
//! the most skewed (Appendix E.1 discusses its "high skewness"), HADOOP and
//! VL2 are heavy-tailed, DCTCP is the mildest.

use rand::Rng;

/// The workload families of §5.2 / Appendix E.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// DCTCP web-search distribution \[40\].
    Dctcp,
    /// Facebook Hadoop distribution \[43\].
    Hadoop,
    /// VL2 datacenter measurement distribution \[44\].
    Vl2,
    /// Key-value-store (memcached) distribution \[45\].
    Cache,
}

impl WorkloadKind {
    /// All four testbed workloads, in the paper's presentation order.
    pub const ALL: [WorkloadKind; 4] =
        [WorkloadKind::Dctcp, WorkloadKind::Hadoop, WorkloadKind::Vl2, WorkloadKind::Cache];

    /// Human-readable name as used in the figures.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Dctcp => "DCTCP",
            WorkloadKind::Hadoop => "HADOOP",
            WorkloadKind::Vl2 => "VL2",
            WorkloadKind::Cache => "CACHE",
        }
    }

    /// The flow-size distribution of this workload.
    pub fn distribution(&self) -> FlowSizeDistribution {
        let points: &[(u64, f64)] = match self {
            // Mild skew: web-search RPCs, sizes from a few to ~hundreds of
            // packets.
            WorkloadKind::Dctcp => &[
                (1, 0.00),
                (2, 0.10),
                (3, 0.20),
                (5, 0.30),
                (7, 0.40),
                (10, 0.53),
                (14, 0.60),
                (20, 0.70),
                (30, 0.80),
                (50, 0.90),
                (100, 0.97),
                (700, 1.00),
            ],
            // Mostly small flows with a long tail of shuffle transfers.
            WorkloadKind::Hadoop => &[
                (1, 0.30),
                (2, 0.50),
                (3, 0.60),
                (5, 0.70),
                (10, 0.80),
                (30, 0.90),
                (100, 0.95),
                (300, 0.98),
                (1000, 1.00),
            ],
            // Bimodal-ish: many mice plus a substantial elephant component.
            WorkloadKind::Vl2 => &[
                (1, 0.05),
                (2, 0.15),
                (4, 0.25),
                (10, 0.40),
                (30, 0.60),
                (100, 0.80),
                (300, 0.95),
                (1000, 1.00),
            ],
            // Extremely skewed key-value traffic: half the flows are single
            // packets; a handful are enormous.
            WorkloadKind::Cache => &[
                (1, 0.50),
                (2, 0.70),
                (3, 0.80),
                (5, 0.90),
                (10, 0.95),
                (100, 0.98),
                (1000, 0.999),
                (10_000, 1.00),
            ],
        };
        FlowSizeDistribution::from_cdf(points)
    }
}

/// A discrete flow-size distribution sampled by inverse-CDF with log-linear
/// interpolation between knots.
#[derive(Debug, Clone)]
pub struct FlowSizeDistribution {
    /// `(size_in_packets, cumulative_probability)` knots, strictly
    /// increasing in both coordinates, last probability = 1.
    knots: Vec<(u64, f64)>,
}

impl FlowSizeDistribution {
    /// Builds a distribution from CDF knots. Panics if the table is not a
    /// valid CDF (non-monotone, empty, or not ending at 1.0).
    pub fn from_cdf(points: &[(u64, f64)]) -> Self {
        assert!(!points.is_empty(), "empty CDF");
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "sizes must increase");
            assert!(w[0].1 <= w[1].1, "CDF must be monotone");
        }
        let last = points.last().expect("asserted non-empty above");
        assert!((last.1 - 1.0).abs() < 1e-9, "CDF must end at 1.0");
        FlowSizeDistribution { knots: points.to_vec() }
    }

    /// A bounded-Pareto distribution with shape `alpha` on `[1, max_size]`,
    /// used for CAIDA-like synthesis.
    pub fn bounded_pareto(alpha: f64, max_size: u64) -> Self {
        assert!(alpha > 0.0 && max_size >= 2);
        // Tabulate the CDF at log-spaced knots.
        let h = 1.0 - (1.0 / max_size as f64).powf(alpha);
        let mut knots = Vec::new();
        let mut s = 1u64;
        while s < max_size {
            let cdf = (1.0 - (1.0 / s as f64).powf(alpha)) / h;
            knots.push((s, cdf));
            s = (s * 2).max(s + 1);
        }
        knots.push((max_size, 1.0));
        FlowSizeDistribution { knots }
    }

    /// Samples one flow size (≥ 1 packet).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        self.quantile(u)
    }

    /// Inverse CDF with geometric interpolation between knots.
    pub fn quantile(&self, u: f64) -> u64 {
        let u = u.clamp(0.0, 1.0);
        let mut prev = (1u64, 0.0f64);
        for &(size, cdf) in &self.knots {
            if u <= cdf {
                let (s0, c0) = prev;
                if cdf <= c0 {
                    return size;
                }
                let t = (u - c0) / (cdf - c0);
                // Geometric interpolation keeps the heavy tail shape.
                let ls0 = (s0 as f64).ln();
                let ls1 = (size as f64).ln();
                let s = (ls0 + t * (ls1 - ls0)).exp().round() as u64;
                return s.clamp(s0.min(size), size).max(1);
            }
            prev = (size, cdf);
        }
        self.knots.last().expect("constructors reject an empty knot list").0
    }

    /// Analytic-ish mean, estimated by quadrature over the quantile function.
    pub fn mean(&self) -> f64 {
        let n = 10_000;
        (0..n)
            .map(|i| self.quantile((i as f64 + 0.5) / n as f64) as f64)
            .sum::<f64>()
            / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_workloads_build() {
        for w in WorkloadKind::ALL {
            let d = w.distribution();
            assert!(d.mean() >= 1.0, "{} mean", w.name());
        }
    }

    #[test]
    fn cache_is_most_skewed() {
        // CACHE should have far more single-packet flows than DCTCP.
        let mut rng = StdRng::seed_from_u64(1);
        let count_ones = |w: WorkloadKind, rng: &mut StdRng| {
            let d = w.distribution();
            (0..10_000).filter(|_| d.sample(rng) == 1).count()
        };
        let cache_ones = count_ones(WorkloadKind::Cache, &mut rng);
        let dctcp_ones = count_ones(WorkloadKind::Dctcp, &mut rng);
        assert!(
            cache_ones > dctcp_ones * 5,
            "cache {cache_ones} vs dctcp {dctcp_ones}"
        );
    }

    #[test]
    fn samples_are_at_least_one() {
        let mut rng = StdRng::seed_from_u64(2);
        for w in WorkloadKind::ALL {
            let d = w.distribution();
            for _ in 0..1000 {
                assert!(d.sample(&mut rng) >= 1);
            }
        }
    }

    #[test]
    fn quantile_is_monotone() {
        let d = WorkloadKind::Vl2.distribution();
        let mut prev = 0;
        for i in 0..=100 {
            let q = d.quantile(i as f64 / 100.0);
            assert!(q >= prev, "quantile decreased at {i}");
            prev = q;
        }
    }

    #[test]
    fn quantile_extremes() {
        let d = WorkloadKind::Dctcp.distribution();
        assert_eq!(d.quantile(0.0), 1);
        assert_eq!(d.quantile(1.0), 700);
    }

    #[test]
    fn bounded_pareto_tail() {
        let d = FlowSizeDistribution::bounded_pareto(1.0, 1 << 20);
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<u64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        let mice = samples.iter().filter(|&&s| s <= 2).count();
        let big = samples.iter().filter(|&&s| s > 1000).count();
        // α = 1: P(X ≤ 2) ≈ 1/2 (the geometric interpolation between CDF
        // knots spreads some of the point mass at 1 onto 2).
        assert!(mice > 8_000, "expected many mice, got {mice}");
        assert!(big > 5, "expected some elephants, got {big}");
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn invalid_cdf_panics() {
        FlowSizeDistribution::from_cdf(&[(1, 0.5), (2, 0.3), (3, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "end at 1.0")]
    fn cdf_must_end_at_one() {
        FlowSizeDistribution::from_cdf(&[(1, 0.5), (2, 0.9)]);
    }
}
