//! Static and runtime configuration of the ChameleMon data plane.
//!
//! The **static** configuration ([`DataPlaneConfig`]) is fixed at compile
//! time on the switch: total buckets per array of the upstream (`m_uf`) and
//! downstream (`m_df`) flow encoders, classifier geometry, hash seeds.
//!
//! The **runtime** configuration ([`RuntimeConfig`]) is what the controller
//! rewrites every epoch *without recompilation* (§4.3): how the physical
//! encoders are partitioned into HH/HL/LL encoders, the classification
//! thresholds `Th`/`Tl`, and the LL sample rate.

use chm_common::hash::MAX_FAMILY;
use chm_fermat::FermatConfig;
use chm_tower::TowerConfig;

/// Static, compile-time data-plane parameters (§5.2 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct DataPlaneConfig {
    /// Flow classifier geometry.
    pub tower: TowerConfig,
    /// Number of bucket arrays `d` in every Fermat encoder (3 for the
    /// highest memory efficiency, §5.2), at most [`MAX_FAMILY`].
    pub arrays: usize,
    /// Buckets per array of the upstream flow encoder (`m_uf`, default 4096).
    pub m_uf: usize,
    /// Buckets per array of the downstream flow encoder (`m_df`, default
    /// 3072; must satisfy `m_df ≤ m_uf`).
    pub m_df: usize,
    /// Optional fingerprint bits in every encoder (§A.4; 0 on the testbed).
    pub fingerprint_bits: u32,
    /// Minimum buckets/array reserved for the HL encoders in the healthy
    /// state (512 on the testbed) — "to handle the potential small burst of
    /// victim flows" (§4.3.1).
    pub min_hl_buckets: usize,
    /// The fixed ill-state partition (testbed: HH 1024 / HL 2560 / LL 512).
    pub ill_partition: Partition,
    /// Master hash seed shared by every switch (upstream and downstream
    /// encoders must use identical hash functions, §3.1).
    pub seed: u64,
}

impl DataPlaneConfig {
    /// The §5.2 testbed parameter settings.
    pub fn paper_default(seed: u64) -> Self {
        DataPlaneConfig {
            tower: TowerConfig::paper_default(seed ^ 0x7031),
            arrays: 3,
            m_uf: 4096,
            m_df: 3072,
            fingerprint_bits: 0,
            min_hl_buckets: 512,
            ill_partition: Partition { m_hh: 1024, m_hl: 2560, m_ll: 512 },
            seed,
        }
    }

    /// A proportionally scaled-down configuration for fast tests/examples
    /// (1/8 of the testbed sizes).
    pub fn small(seed: u64) -> Self {
        DataPlaneConfig {
            tower: TowerConfig::sized(8192, seed ^ 0x7031),
            arrays: 3,
            m_uf: 512,
            m_df: 384,
            fingerprint_bits: 0,
            min_hl_buckets: 64,
            ill_partition: Partition { m_hh: 128, m_hl: 320, m_ll: 64 },
            seed,
        }
    }

    /// Validates the invariants the data plane relies on.
    pub fn validate(&self) -> Result<(), String> {
        if self.arrays == 0 || self.arrays > MAX_FAMILY {
            return Err(format!("arrays must be in 1..={MAX_FAMILY}, not {}", self.arrays));
        }
        if self.m_df > self.m_uf {
            return Err(format!("m_df {} > m_uf {}", self.m_df, self.m_uf));
        }
        let ill = &self.ill_partition;
        if ill.total() != self.m_uf {
            return Err(format!(
                "ill partition {} != m_uf {}",
                ill.total(),
                self.m_uf
            ));
        }
        if ill.m_hl + ill.m_ll > self.m_df {
            return Err("ill HL+LL exceeds downstream encoder".into());
        }
        if self.min_hl_buckets > self.m_df {
            return Err("min_hl_buckets exceeds m_df".into());
        }
        Ok(())
    }

    /// Fermat configuration for an encoder partition of `m` buckets/array
    /// with a role-specific salt (so HH/HL/LL use distinct hash functions
    /// but all switches share them).
    pub fn fermat_for(&self, m: usize, role_salt: u64) -> FermatConfig {
        FermatConfig {
            arrays: self.arrays,
            buckets_per_array: m,
            fingerprint_bits: self.fingerprint_bits,
            seed: self.seed ^ role_salt,
        }
    }
}

/// A division of the upstream flow encoder into HH/HL/LL encoders
/// (`m_hh + m_hl + m_ll = m_uf`); the downstream encoder holds the HL and LL
/// parts only (`m_hl + m_ll ≤ m_df`), §3.2.2–3.2.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// Buckets/array of the HH encoder (upstream only).
    pub m_hh: usize,
    /// Buckets/array of the HL encoders (upstream + downstream).
    pub m_hl: usize,
    /// Buckets/array of the LL encoders (upstream + downstream).
    pub m_ll: usize,
}

impl Partition {
    /// Total upstream buckets/array used.
    pub fn total(&self) -> usize {
        self.m_hh + self.m_hl + self.m_ll
    }
}

/// Runtime-reconfigurable state (§4.3). One instance is deployed network-
/// wide; reconfigurations take effect at the next epoch flip.
///
/// `Copy`: this is a handful of scalars — the epoch pipeline passes it by
/// value instead of cloning through `Arc` indirection, so sharing the
/// deployed configuration across edges and sketch groups is free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// Current encoder partition.
    pub partition: Partition,
    /// HH-candidate threshold `Th` (flows with classifier size ≥ `Th`).
    pub th: u64,
    /// HL-candidate threshold `Tl` (flows with classifier size < `Tl` are LL
    /// candidates; `1 ≤ Tl ≤ Th`; `Tl = 1` in the healthy state).
    pub tl: u64,
    /// LL sampling threshold quantized to 16 bits: a LL candidate is sampled
    /// iff `hash16(flow) < sample_threshold` (§D.1). `65536` = sample all.
    pub sample_threshold: u32,
}

impl RuntimeConfig {
    /// The initial (healthy, maximum-attention-to-accumulation) runtime:
    /// no LL encoder, minimum reserved HL memory, `Th = Tl = 1`.
    pub fn initial(cfg: &DataPlaneConfig) -> Self {
        RuntimeConfig {
            partition: Partition {
                m_hh: cfg.m_uf - cfg.min_hl_buckets,
                m_hl: cfg.min_hl_buckets,
                m_ll: 0,
            },
            th: 1,
            tl: 1,
            sample_threshold: 65_536,
        }
    }

    /// The effective LL sample rate in `[0, 1]`.
    pub fn sample_rate(&self) -> f64 {
        self.sample_threshold as f64 / 65_536.0
    }

    /// Sets the sample threshold from a desired rate (`ceil(65536·R)`).
    pub fn set_sample_rate(&mut self, rate: f64) {
        let r = rate.clamp(0.0, 1.0);
        self.sample_threshold = ((65_536.0 * r).ceil() as u32).min(65_536);
    }

    /// Validates against the static configuration.
    pub fn validate(&self, cfg: &DataPlaneConfig) -> Result<(), String> {
        if self.partition.total() != cfg.m_uf {
            return Err(format!(
                "partition total {} != m_uf {}",
                self.partition.total(),
                cfg.m_uf
            ));
        }
        if self.partition.m_hl + self.partition.m_ll > cfg.m_df {
            return Err("HL+LL exceeds downstream encoder".into());
        }
        if self.tl > self.th {
            return Err(format!("Tl {} > Th {}", self.tl, self.th));
        }
        if self.tl == 0 || self.th == 0 {
            return Err("thresholds must be >= 1".into());
        }
        if self.sample_threshold > 65_536 {
            return Err("sample threshold > 65536".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        let cfg = DataPlaneConfig::paper_default(1);
        cfg.validate().unwrap();
        RuntimeConfig::initial(&cfg).validate(&cfg).unwrap();
    }

    #[test]
    fn small_is_valid() {
        let cfg = DataPlaneConfig::small(1);
        cfg.validate().unwrap();
        RuntimeConfig::initial(&cfg).validate(&cfg).unwrap();
    }

    #[test]
    fn initial_runtime_shape() {
        let cfg = DataPlaneConfig::paper_default(2);
        let rt = RuntimeConfig::initial(&cfg);
        assert_eq!(rt.partition.m_ll, 0);
        assert_eq!(rt.partition.m_hl, 512);
        assert_eq!(rt.partition.m_hh, 4096 - 512);
        assert_eq!(rt.th, 1);
        assert_eq!(rt.tl, 1);
        assert_eq!(rt.sample_rate(), 1.0);
    }

    #[test]
    fn sample_rate_quantization() {
        let cfg = DataPlaneConfig::paper_default(3);
        let mut rt = RuntimeConfig::initial(&cfg);
        rt.set_sample_rate(0.5);
        assert_eq!(rt.sample_threshold, 32_768);
        rt.set_sample_rate(1e-9);
        assert_eq!(rt.sample_threshold, 1); // ceil keeps tiny rates non-zero
        rt.set_sample_rate(2.0);
        assert_eq!(rt.sample_threshold, 65_536);
    }

    #[test]
    fn invalid_partitions_rejected() {
        let cfg = DataPlaneConfig::paper_default(4);
        let mut rt = RuntimeConfig::initial(&cfg);
        rt.partition.m_hh += 1;
        assert!(rt.validate(&cfg).is_err());

        let mut rt2 = RuntimeConfig::initial(&cfg);
        rt2.partition = Partition { m_hh: 0, m_hl: 4096, m_ll: 0 };
        assert!(rt2.validate(&cfg).is_err(), "HL beyond m_df must fail");

        let mut rt3 = RuntimeConfig::initial(&cfg);
        rt3.tl = 5;
        rt3.th = 2;
        assert!(rt3.validate(&cfg).is_err());
    }

    #[test]
    fn bad_static_configs_rejected() {
        let mut cfg = DataPlaneConfig::paper_default(5);
        cfg.m_df = cfg.m_uf + 1;
        assert!(cfg.validate().is_err());

        let mut cfg2 = DataPlaneConfig::paper_default(6);
        cfg2.ill_partition.m_hh += 8;
        assert!(cfg2.validate().is_err());

        // Every Fermat encoder's hash family holds at most `MAX_FAMILY`
        // functions.
        for arrays in [0, MAX_FAMILY + 1] {
            let cfg3 = DataPlaneConfig { arrays, ..DataPlaneConfig::paper_default(7) };
            assert!(cfg3.validate().is_err(), "{arrays} arrays");
        }
        let cfg4 = DataPlaneConfig { arrays: MAX_FAMILY, ..DataPlaneConfig::paper_default(7) };
        assert_eq!(cfg4.validate(), Ok(()));
    }

    #[test]
    fn fermat_configs_differ_by_role_but_share_across_switches() {
        let cfg_a = DataPlaneConfig::paper_default(7);
        let cfg_b = DataPlaneConfig::paper_default(7);
        // Same role on two "switches": identical (required for add/sub).
        assert_eq!(cfg_a.fermat_for(100, 1), cfg_b.fermat_for(100, 1));
        // Different roles: different hash seeds.
        assert_ne!(cfg_a.fermat_for(100, 1).seed, cfg_a.fermat_for(100, 2).seed);
    }
}
