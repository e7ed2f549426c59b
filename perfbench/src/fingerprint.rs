//! The simulated-statistics fingerprint: instructions, cycles, cache and
//! DRAM counters, makespans and campaign outcome counts, one `key<TAB>value`
//! line each. A run compares the values it produced with the stored file
//! and prints every difference, but never fails on one: a simulator-only
//! change should leave them all equal, and a change that corrects the model
//! regenerates the file (`--write-fingerprint`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::{Opts, WORKLOADS};

/// Seed the stored file is generated at; keys of seeded results carry the
/// round seed, so other seeds compare only their seed-free values.
const SEED: u64 = 1;

/// Parses `key<TAB>value` lines (blank lines and `#` comments skipped).
pub fn parse(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once('\t'))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Keys present in both maps whose values differ: `(key, stored, now)`.
pub fn differences<'a>(
    stored: &'a BTreeMap<String, String>,
    now: &'a BTreeMap<String, String>,
) -> Vec<(&'a str, &'a str, &'a str)> {
    now.iter()
        .filter_map(|(k, v)| {
            let s = stored.get(k)?;
            (s != v).then_some((k.as_str(), s.as_str(), v.as_str()))
        })
        .collect()
}

/// Compares `now` with the file at `path` and reports on stderr.
pub fn compare(path: &Path, now: &BTreeMap<String, String>) {
    let stored = match std::fs::read_to_string(path) {
        Ok(text) => parse(&text),
        Err(e) => {
            eprintln!("perfbench: fingerprint {} not read: {e}", path.display());
            return;
        }
    };
    let compared = now.keys().filter(|k| stored.contains_key(*k)).count();
    let diffs = differences(&stored, now);
    for (k, s, v) in &diffs {
        eprintln!("perfbench: fingerprint differs: {k}: stored {s}, now {v}");
    }
    eprintln!(
        "perfbench: fingerprint: {compared} values compared, {} differ",
        diffs.len()
    );
}

/// Runs one round of every workload at [`SEED`] and writes the file;
/// returns the number of values written.
pub fn write(path: &Path) -> Result<usize, String> {
    let opts = Opts {
        seed: SEED,
        seconds: 0.0,
        out_dir: std::env::temp_dir(),
    };
    let mut all = BTreeMap::new();
    for w in WORKLOADS {
        eprintln!("perfbench: fingerprinting {w}");
        let out = match w {
            "campaign" => crate::campaign::run(&crate::campaign::PLAIN, &opts),
            "campaign_ckpt" => crate::campaign::run(&crate::campaign::CHECKPOINTED, &opts),
            "device_full" => crate::device::run(&opts),
            _ => crate::pipeline::run(&opts),
        };
        if !out.problems.is_empty() {
            return Err(format!("{w} failed its checks: {:?}", out.problems));
        }
        all.extend(out.fingerprint);
    }
    let mut text = String::from(
        "# Simulated results of one round of every workload at --seed 1.\n\
         # Regenerate with: python3 perfbench/run.py --write-fingerprint\n",
    );
    for (k, v) in &all {
        let _ = writeln!(text, "{k}\t{v}");
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(all.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_compare() {
        let stored = parse("# c\nsim.a\t1\nsim.b\tx y\n\nsim.c\t3\n");
        assert_eq!(stored.len(), 3);
        let now: BTreeMap<String, String> = [("sim.a", "1"), ("sim.b", "x z"), ("sim.d", "9")]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        assert_eq!(differences(&stored, &now), vec![("sim.b", "x y", "x z")]);
    }
}
