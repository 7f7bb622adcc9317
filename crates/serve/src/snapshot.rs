//! **Crash-consistent snapshots** of the streaming runtime.
//!
//! A [`ServeSnapshot`] captures the runtime's entire evolving decision
//! state at an epoch boundary: the stream position, the controller's
//! decision state (deployed runtime, network-state belief, failed-HL
//! blocklist, localizer EWMA tables), the watchdog, and the last-known-
//! good runtime the degraded mode falls back to. Everything else — edge
//! sketch state (empty at every boundary), the fault plan, the scenario —
//! is either reconstructible from static configuration or pure in
//! `(seed, epoch)`, so it deliberately stays out of the snapshot.
//!
//! The text encoding is built for *exactness*, not prettiness: every
//! `f64` is serialized as the hex of its IEEE-754 bit pattern, so a
//! snapshot round-trip is bit-identical — the crash/restore property
//! (`tests/service.rs`) asserts byte-equal metrics streams, and one ULP
//! of drift in a localizer EWMA would eventually flip a ranking.

use chamelemon::control::ControllerSnapshot;
use chamelemon::localize::LocalizerSnapshot;
use chamelemon::{NetworkState, Partition, RuntimeConfig};
use chm_netsim::{SwitchId, SwitchRole};

use crate::watchdog::WatchdogSnapshot;

/// Format marker; bump on incompatible changes.
const HEADER: &str = "chm-serve-snapshot v1";

/// The runtime's full evolving state at an epoch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSnapshot {
    /// Next epoch to serve (everything before it is fully processed).
    pub epoch: u64,
    /// The controller's decision state.
    pub controller: ControllerSnapshot,
    /// The watchdog's stall/recovery state.
    pub watchdog: WatchdogSnapshot,
    /// Last runtime staged from a healthy decode — the degraded hold.
    pub last_good: RuntimeConfig,
}

fn fmt_f64(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn parse_f64(s: &str) -> Result<f64, String> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("bad f64 bits {s:?}: {e}"))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what}: {s:?}"))
}

fn fmt_runtime(rt: &RuntimeConfig) -> String {
    format!(
        "{} {} {} {} {} {}",
        rt.partition.m_hh, rt.partition.m_hl, rt.partition.m_ll, rt.th, rt.tl, rt.sample_threshold
    )
}

fn parse_runtime(fields: &[&str]) -> Result<RuntimeConfig, String> {
    if fields.len() != 6 {
        return Err(format!("runtime needs 6 fields, got {}", fields.len()));
    }
    Ok(RuntimeConfig {
        partition: Partition {
            m_hh: parse_num(fields[0], "m_hh")?,
            m_hl: parse_num(fields[1], "m_hl")?,
            m_ll: parse_num(fields[2], "m_ll")?,
        },
        th: parse_num(fields[3], "th")?,
        tl: parse_num(fields[4], "tl")?,
        sample_threshold: parse_num(fields[5], "sample_threshold")?,
    })
}

fn fmt_switch_table(table: &[(SwitchId, f64)]) -> String {
    table
        .iter()
        .map(|(s, v)| format!("{}:{}:{}", s.role.label(), s.index, fmt_f64(*v)))
        .collect::<Vec<_>>()
        .join(" ")
}

fn parse_switch_table(fields: &[&str]) -> Result<Vec<(SwitchId, f64)>, String> {
    fields
        .iter()
        .map(|f| {
            let mut parts = f.split(':');
            let (Some(role), Some(index), Some(bits), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(format!("bad table entry {f:?}"));
            };
            let role = match role {
                "edge" => SwitchRole::Edge,
                "agg" => SwitchRole::Aggregation,
                "core" => SwitchRole::Core,
                other => return Err(format!("bad switch role {other:?}")),
            };
            Ok((
                SwitchId { role, index: parse_num(index, "switch index")? },
                parse_f64(bits)?,
            ))
        })
        .collect()
}

impl ServeSnapshot {
    /// Serializes to the line-oriented text format. Infallible; the result
    /// always [`parse`](Self::parse)s back to an equal snapshot.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        out.push_str(&format!("epoch {}\n", self.epoch));
        let state = match self.controller.state {
            NetworkState::Healthy => "healthy",
            NetworkState::Ill => "ill",
        };
        out.push_str(&format!("state {state}\n"));
        out.push_str(&format!("deployed {}\n", fmt_runtime(&self.controller.deployed)));
        out.push_str(&format!("last_good {}\n", fmt_runtime(&self.last_good)));
        let failed: Vec<String> =
            self.controller.failed_hl_sizes.iter().map(|s| s.to_string()).collect();
        out.push_str(&format!("failed_hl {}\n", failed.join(" ")));
        let w = &self.watchdog;
        out.push_str(&format!(
            "watchdog {} {} {} {}\n",
            u8::from(w.degraded),
            w.consecutive_bad,
            w.consecutive_good,
            w.recovery_needed
        ));
        if let Some(l) = &self.controller.localizer {
            out.push_str(&format!("localizer_decay {}\n", fmt_f64(l.decay)));
            out.push_str(&format!("blame {}\n", fmt_switch_table(&l.blame)));
            out.push_str(&format!("transit {}\n", fmt_switch_table(&l.transit)));
            out.push_str(&format!("telemetry {}\n", fmt_switch_table(&l.telemetry)));
        }
        out.push_str("end\n");
        out
    }

    /// Parses the text format back into a snapshot.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        if lines.next() != Some(HEADER) {
            return Err(format!("missing header {HEADER:?}"));
        }
        let mut epoch = None;
        let mut state = None;
        let mut deployed = None;
        let mut last_good = None;
        let mut failed_hl = Vec::new();
        let mut watchdog = None;
        let mut decay = None;
        let mut blame = None;
        let mut transit = None;
        let mut telemetry = None;
        let mut saw_end = false;
        for line in lines {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let Some((&key, rest)) = fields.split_first() else { continue };
            match key {
                "epoch" => epoch = Some(parse_num::<u64>(rest.first().unwrap_or(&""), "epoch")?),
                "state" => {
                    state = Some(match rest.first() {
                        Some(&"healthy") => NetworkState::Healthy,
                        Some(&"ill") => NetworkState::Ill,
                        other => return Err(format!("bad state {other:?}")),
                    })
                }
                "deployed" => deployed = Some(parse_runtime(rest)?),
                "last_good" => last_good = Some(parse_runtime(rest)?),
                "failed_hl" => {
                    failed_hl = rest
                        .iter()
                        .map(|s| parse_num::<usize>(s, "failed HL size"))
                        .collect::<Result<_, _>>()?
                }
                "watchdog" => {
                    if rest.len() != 4 {
                        return Err("watchdog needs 4 fields".to_string());
                    }
                    watchdog = Some(WatchdogSnapshot {
                        degraded: match rest[0] {
                            "0" => false,
                            "1" => true,
                            other => return Err(format!("bad watchdog degraded flag {other:?}")),
                        },
                        consecutive_bad: parse_num(rest[1], "consecutive_bad")?,
                        consecutive_good: parse_num(rest[2], "consecutive_good")?,
                        recovery_needed: parse_num(rest[3], "recovery_needed")?,
                    });
                }
                "localizer_decay" => {
                    decay = Some(parse_f64(rest.first().unwrap_or(&""))?)
                }
                "blame" => blame = Some(parse_switch_table(rest)?),
                "transit" => transit = Some(parse_switch_table(rest)?),
                "telemetry" => telemetry = Some(parse_switch_table(rest)?),
                "end" => {
                    saw_end = true;
                    break;
                }
                other => return Err(format!("unknown snapshot key {other:?}")),
            }
        }
        if !saw_end {
            return Err("truncated snapshot: no end marker".to_string());
        }
        let localizer = match (decay, blame, transit, telemetry) {
            (Some(decay), Some(blame), Some(transit), Some(telemetry)) => {
                Some(LocalizerSnapshot { blame, transit, telemetry, decay })
            }
            (None, None, None, None) => None,
            _ => return Err("partial localizer tables in snapshot".to_string()),
        };
        Ok(ServeSnapshot {
            epoch: epoch.ok_or("missing epoch")?,
            controller: ControllerSnapshot {
                deployed: deployed.ok_or("missing deployed runtime")?,
                state: state.ok_or("missing state")?,
                failed_hl_sizes: failed_hl,
                localizer,
            },
            watchdog: watchdog.ok_or("missing watchdog state")?,
            last_good: last_good.ok_or("missing last_good runtime")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServeSnapshot {
        let rt = RuntimeConfig {
            partition: Partition { m_hh: 448, m_hl: 64, m_ll: 0 },
            th: 9,
            tl: 1,
            sample_threshold: 65_536,
        };
        let e0 = SwitchId { role: SwitchRole::Edge, index: 0 };
        let c1 = SwitchId { role: SwitchRole::Core, index: 1 };
        ServeSnapshot {
            epoch: 17,
            controller: ControllerSnapshot {
                deployed: rt,
                state: NetworkState::Ill,
                failed_hl_sizes: vec![320, 480],
                localizer: Some(LocalizerSnapshot {
                    blame: vec![(e0, 1.25), (c1, 0.1 + 0.2)],
                    transit: vec![(c1, 1e-300)],
                    telemetry: vec![],
                    decay: 0.5,
                }),
            },
            watchdog: WatchdogSnapshot {
                degraded: true,
                consecutive_bad: 3,
                consecutive_good: 1,
                recovery_needed: 4,
            },
            last_good: rt,
        }
    }

    #[test]
    fn serialize_parse_is_bit_exact() {
        let snap = sample();
        let text = snap.serialize();
        let back = ServeSnapshot::parse(&text).expect("round trip parses");
        assert_eq!(back, snap);
        // Exactness includes awkward floats: 0.1 + 0.2 and subnormals
        // survive because the encoding is the raw bit pattern.
        assert_eq!(back.serialize(), text);
    }

    #[test]
    fn no_localizer_round_trips_too() {
        let mut snap = sample();
        snap.controller.localizer = None;
        let back = ServeSnapshot::parse(&snap.serialize()).expect("parses");
        assert_eq!(back, snap);
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        assert!(ServeSnapshot::parse("").is_err());
        assert!(ServeSnapshot::parse("chm-serve-snapshot v1\nepoch 3\n").is_err());
        let truncated = sample().serialize().replace("end\n", "");
        assert!(ServeSnapshot::parse(&truncated).is_err());
        let bad_key = sample().serialize().replace("watchdog", "watchcat");
        assert!(ServeSnapshot::parse(&bad_key).is_err());
    }
}
