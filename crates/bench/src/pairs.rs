//! `chm-bench pairs <file>` — the summary of a round of alternating
//! parent/change benchmark runs, read from their raw rows.
//!
//! A pairs file (`results/pairs/PR<n>.jsonl`) holds one JSON object per
//! line: the repo benchmark's result line for one run
//! (`{"correct":…,"metrics":{"<name>":{"value":…,"unit":…},…}}`) with the
//! run's `workload`, `seed`, `side` (`parent` or `change`), `order` (its
//! place in the sequence of runs) and `commit` added. Two runs adjacent in
//! `order` with the same workload and seed and different sides are a pair;
//! pairs are grouped by workload and the two commits.
//!
//! Per group and metric the summary prints both sides' median and quartiles
//! (interpolated linearly between order statistics), the change's relative
//! move, its wins and losses (pairs it is strictly better or worse in, in
//! the metric's direction from `BENCHMARK.json`), the median gap in that
//! direction against the parent's interquartile range, and whether the rule
//! for a claimed gain holds: wins in at least 9 of every 10 pairs, and a gap
//! larger than the parent's IQR.

use std::fmt::Write as _;

/// The benchmark declaration; its `end_to_end` rows give each metric's
/// direction.
const BENCHMARK: &str = include_str!("../../../BENCHMARK.json");

/// One run of a pairs file.
struct Run<'a> {
    workload: &'a str,
    seed: u64,
    side: &'a str,
    order: u64,
    commit: &'a str,
    metrics: Vec<(&'a str, f64)>,
}

/// The `(parent, change)` pairs of one workload and one pair of commits.
struct Group<'a> {
    workload: &'a str,
    parent: &'a str,
    change: &'a str,
    pairs: Vec<(&'a Run<'a>, &'a Run<'a>)>,
}

/// The text after `"key":` in `json`, leading whitespace skipped.
fn after<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let i = json.find(&format!("\"{key}\":"))?;
    Some(json[i + key.len() + 3..].trim_start())
}

/// The string value of `key`.
fn text<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    after(json, key)?.strip_prefix('"')?.split('"').next()
}

/// The number `s` starts with.
fn number(s: &str) -> Option<f64> {
    let end = s.find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)));
    s[..end.unwrap_or(s.len())].parse().ok()
}

fn parse_run(line: &str) -> Option<Run<'_>> {
    let mut metrics = Vec::new();
    let mut rest = after(line, "metrics")?;
    while let Some(i) = rest.find("\"value\":") {
        // `"<name>":{"value":…`: the name is the last string before the `{`.
        let head = rest[..i].trim_end().strip_suffix('{')?.trim_end().strip_suffix(':')?;
        let head = head.trim_end().strip_suffix('"')?;
        let name = &head[head.rfind('"')? + 1..];
        rest = &rest[i + "\"value\":".len()..];
        metrics.push((name, number(rest.trim_start())?));
    }
    Some(Run {
        workload: text(line, "workload")?,
        seed: number(after(line, "seed")?)? as u64,
        side: text(line, "side")?,
        order: number(after(line, "order")?)? as u64,
        commit: text(line, "commit")?,
        metrics,
    })
}

/// Whether `BENCHMARK.json` declares `metric` better higher.
fn higher_is_better(metric: &str) -> bool {
    let e2e = BENCHMARK.split("\"end_to_end\"").nth(1);
    let e2e = e2e.and_then(|s| s.split("\"per_layer\"").next());
    let row = e2e.and_then(|s| s.split_once(&format!("\"name\": \"{metric}\"")));
    row.and_then(|(_, rest)| text(rest, "better")) == Some("higher")
}

/// `(q1, median, q3)`, interpolated linearly between order statistics.
fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| {
        let pos = q * (s.len() - 1) as f64;
        let (lo, frac) = (pos.floor() as usize, pos.fract());
        s[lo] + (s[(lo + 1).min(s.len() - 1)] - s[lo]) * frac
    })
}

/// `x` to five significant digits.
fn sig(x: f64) -> String {
    let decimals = if x == 0.0 { 0 } else { (4 - x.abs().log10().floor() as i64).max(0) as usize };
    format!("{x:.decimals$}")
}

/// The summary of a pairs file, restricted to the seeds in `seeds` when
/// given. Errors name the first line that is not a run.
pub fn summarize(jsonl: &str, seeds: Option<(u64, u64)>) -> Result<String, String> {
    let mut runs = Vec::new();
    for (n, line) in jsonl.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        runs.push(parse_run(line).ok_or_else(|| format!("line {}: not a benchmark run", n + 1))?);
    }
    runs.sort_by_key(|r| r.order);
    let mut groups: Vec<Group> = Vec::new();
    let mut i = 0;
    while i + 1 < runs.len() {
        let (a, b) = (&runs[i], &runs[i + 1]);
        if (a.workload, a.seed) != (b.workload, b.seed) || a.side == b.side {
            i += 1;
            continue;
        }
        i += 2;
        let (p, c) = if a.side == "parent" { (a, b) } else { (b, a) };
        if seeds.is_some_and(|(lo, hi)| !(lo..=hi).contains(&p.seed)) {
            continue;
        }
        let key = (p.workload, p.commit, c.commit);
        match groups.iter_mut().find(|g| (g.workload, g.parent, g.change) == key) {
            Some(g) => g.pairs.push((p, c)),
            None => {
                let (workload, parent, change) = key;
                groups.push(Group { workload, parent, change, pairs: vec![(p, c)] });
            }
        }
    }
    let mut out = String::new();
    for Group { workload, parent, change, pairs } in &groups {
        let seeds = pairs.iter().map(|(p, _)| p.seed);
        let (lo, hi) = (seeds.clone().min().unwrap_or(0), seeds.max().unwrap_or(0));
        let n = pairs.len();
        let _ = writeln!(out, "{workload}: {change} vs {parent}, {n} pairs, seeds {lo}-{hi}");
        for &(name, _) in &pairs[0].1.metrics {
            let value = |r: &Run| r.metrics.iter().find(|m| m.0 == name).map(|m| m.1);
            let both: Vec<(f64, f64)> =
                pairs.iter().filter_map(|(p, c)| Some((value(p)?, value(c)?))).collect();
            let higher = higher_is_better(name);
            let better = |p: f64, c: f64| if higher { c > p } else { c < p };
            let wins = both.iter().filter(|&&(p, c)| better(p, c)).count();
            let losses = both.iter().filter(|&&(p, c)| better(c, p)).count();
            let [p1, pm, p3] = quartiles(&both.iter().map(|b| b.0).collect::<Vec<_>>());
            let [c1, cm, c3] = quartiles(&both.iter().map(|b| b.1).collect::<Vec<_>>());
            let gap = if higher { cm - pm } else { pm - cm };
            let holds = wins * 10 >= 9 * both.len() && gap > p3 - p1;
            let _ = writeln!(
                out,
                "  {name:<15} {:<6} parent {} [{}, {}]  change {} [{}, {}]  {:+.1} %  \
                 wins {wins}/{} ({losses} worse)  gap {} vs parent IQR {}  {}",
                if higher { "higher" } else { "lower" },
                sig(pm),
                sig(p1),
                sig(p3),
                sig(cm),
                sig(c1),
                sig(c3),
                if pm == 0.0 { 0.0 } else { (cm - pm) / pm * 100.0 },
                both.len(),
                sig(gap),
                sig(p3 - p1),
                if holds { "holds" } else { "does not hold" },
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(seed: u64, side: &str, order: u64, ms: f64, mops: f64) -> String {
        format!(
            "{{\"workload\":\"w\",\"seed\":{seed},\"side\":\"{side}\",\"order\":{order},\
             \"commit\":\"{side}-sha\",\"correct\":true,\"metrics\":{{\"op_ms_p50\":\
             {{\"value\":{ms},\"unit\":\"ms\"}},\"work_mops\":{{\"value\":{mops},\"unit\":\"Mop/s\"}}}}}}"
        )
    }

    #[test]
    fn directions_come_from_the_benchmark() {
        assert!(higher_is_better("work_mops") && higher_is_better("accuracy"));
        assert!(!higher_is_better("op_ms_p50") && !higher_is_better("peak_heap_mb"));
    }

    #[test]
    fn pairs_are_adjacent_runs_and_wins_follow_the_direction() {
        // Ten pairs, alternating which side runs first; the change is 1 ms
        // faster in nine and slower in one. A stray run pairs with nothing.
        let mut lines = vec![row(99, "parent", 0, 1.0, 1.0)];
        for s in 0..10u64 {
            let (p, c) = (
                10.0 + s as f64 * 0.1,
                if s == 3 { 12.0 } else { 9.0 + s as f64 * 0.1 },
            );
            let first = if s % 2 == 0 {
                ("parent", p)
            } else {
                ("change", c)
            };
            let second = if s % 2 == 0 {
                ("change", c)
            } else {
                ("parent", p)
            };
            lines.push(row(100 + s, first.0, 2 * s + 1, first.1, 1.0 / first.1));
            lines.push(row(100 + s, second.0, 2 * s + 2, second.1, 1.0 / second.1));
        }
        let out = summarize(&lines.join("\n"), None).expect("valid rows");
        assert!(
            out.starts_with("w: change-sha vs parent-sha, 10 pairs, seeds 100-109\n"),
            "{out}"
        );
        let ms = out
            .lines()
            .find(|l| l.contains("op_ms_p50"))
            .expect("an op_ms_p50 line");
        assert!(
            ms.contains("wins 9/10 (1 worse)")
                && ms.contains("parent 10.450")
                && ms.ends_with(" holds"),
            "{ms}"
        );
        let mops = out
            .lines()
            .find(|l| l.contains("work_mops"))
            .expect("a work_mops line");
        assert!(
            mops.contains("higher") && mops.contains("wins 9/10"),
            "{mops}"
        );
        let few = summarize(&lines.join("\n"), Some((102, 104))).expect("valid rows");
        assert!(
            few.contains("3 pairs, seeds 102-104") && few.contains("does not hold"),
            "{few}"
        );
        assert_eq!(
            summarize("{}", None),
            Err("line 1: not a benchmark run".to_string())
        );
    }

    /// The two committed rounds of `testbed_shift` pairs transcribed from
    /// CHANGES.md read back as the medians quoted there (seeds 101–110).
    #[test]
    fn transcribed_rounds_reproduce_their_quoted_medians() {
        let out = summarize(
            include_str!("../../../results/pairs/PR35.jsonl"),
            Some((101, 110)),
        )
        .expect("valid rows");
        let mut workload = "";
        let mut testbed = Vec::new();
        for line in out.lines() {
            match line.strip_prefix("  ") {
                None => workload = line,
                Some(m) if workload.starts_with("testbed_shift") && m.starts_with("op_ms_p50") => {
                    testbed.push(m)
                }
                Some(_) => {}
            }
        }
        assert_eq!(testbed.len(), 2, "{out}");
        assert!(
            testbed[0].contains("parent 22.800") && testbed[0].contains("change 17.015"),
            "{out}"
        );
        assert!(
            testbed[1].contains("parent 22.995") && testbed[1].contains("change 19.480"),
            "{out}"
        );
    }
}
