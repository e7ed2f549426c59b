//! The metrics the benchmark prints, declared once. `BENCHMARK.json` at the
//! repository root declares the same names, units and directions; a test
//! keeps the two equal, and [`result_line`] refuses to print a set that is
//! not exactly the declared one.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

fn m(name: &str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
    }
}

/// The 17 registry workloads, in registry order (a test checks this list
/// against the registry).
pub const REGISTRY: [&str; 17] = [
    "iterated_fma",
    "backprop",
    "bfs",
    "cfd",
    "dwt2d",
    "gaussian",
    "hotspot",
    "hotspot3D",
    "kmeans",
    "leukocyte",
    "lud",
    "myocyte",
    "nn",
    "nw",
    "pathfinder",
    "srad",
    "streamcluster",
];

/// Layers whose self time the traced run reports (`bench` is the
/// benchmark's own code between calls into the program).
pub const LAYERS: [&str; 6] = ["faults", "sim", "core", "workloads", "pipeline", "bench"];

/// Metrics of untraced runs (`--trace 0`), printed by every workload.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        m("setup_s", "s", "lower"),
        m("peak_rss_mb", "MiB", "lower"),
        m("ops_per_s", "1/s", "higher"),
        m("sim_mips", "warp-instr/us", "higher"),
        m("sim_mips_geomean", "warp-instr/us", "higher"),
    ]
}

/// Metrics of traced runs (`--trace 1`), printed by every workload; a
/// layer the workload does not enter reads 0.
pub fn per_layer() -> Vec<Metric> {
    let mut v = vec![
        m("faults.trial_us_p50", "us", "lower"),
        m("faults.trial_us_p99", "us", "lower"),
        m("faults.calibrate_ms", "ms", "lower"),
        m("faults.trials_simulated", "count", "lower"),
        m("faults.trials_skipped", "count", "higher"),
        m("faults.activated_per_simulated", "ratio", "higher"),
        m("faults.restores_per_trial", "count", "lower"),
        m("faults.pool_speedup", "ratio", "higher"),
        m("sim.ns_per_warp_instr", "ns", "lower"),
        m("sim.mcycles_per_s", "Mcycle/s", "higher"),
        m("sim.reset_us", "us", "lower"),
        m("sim.snapshot_us", "us", "lower"),
        m("sim.restore_us", "us", "lower"),
        m("sim.snapshot_kb", "KiB", "lower"),
        m("sim.instructions", "count", "lower"),
        m("sim.cycles", "count", "lower"),
        m("sim.ipc", "ratio", "higher"),
        m("sim.l1_hits", "count", "higher"),
        m("sim.l1_misses", "count", "lower"),
        m("sim.l2_hits", "count", "higher"),
        m("sim.l2_misses", "count", "lower"),
        m("sim.dram_accesses", "count", "lower"),
        m("sim.transactions", "count", "lower"),
        m("sim.sm_utilization", "ratio", "higher"),
        m("core.redundant_over_solo", "ratio", "lower"),
        m("core.makespan_overhead", "ratio", "lower"),
        m("workloads.build_ms", "ms", "lower"),
        m("workloads.reference_ms", "ms", "lower"),
        m("workloads.verify_ms", "ms", "lower"),
        m("pipeline.plan_ms", "ms", "lower"),
        m("pipeline.frame_ms.serial", "ms", "lower"),
        m("pipeline.frame_ms.overlapped", "ms", "lower"),
        m("pipeline.overlap_host_ratio", "ratio", "lower"),
        m("pipeline.makespan_cycles", "cycles", "lower"),
        m("pipeline.retries", "count", "lower"),
        m("pipeline.quarantined", "count", "higher"),
        m("trace.overhead", "ratio", "lower"),
        m("trace.wall_ms", "ms", "lower"),
        m("trace.attributed", "ratio", "higher"),
    ];
    v.extend(
        REGISTRY
            .iter()
            .map(|w| m(&format!("sim.mips.{w}"), "warp-instr/us", "higher")),
    );
    v.extend(
        LAYERS
            .iter()
            .map(|l| m(&format!("{l}.self_ms"), "ms", "lower")),
    );
    v
}

/// The result line: exactly the declared metrics of the run's kind, each
/// with its unit. A missing, extra or non-finite value is a benchmark bug
/// and is reported as an error instead of a line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    traced: bool,
    values: &BTreeMap<String, f64>,
) -> Result<String, String> {
    let declared = if traced { per_layer() } else { end_to_end() };
    let mut extra: Vec<&String> = values.keys().collect();
    extra.retain(|k| !declared.iter().any(|d| &d.name == *k));
    if !extra.is_empty() {
        return Err(format!("undeclared metrics: {extra:?}"));
    }
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, d) in declared.iter().enumerate() {
        let v = values
            .get(&d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", d.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal JSON reader, enough for `BENCHMARK.json`.
    #[derive(Debug, Clone, PartialEq)]
    enum Json {
        Str(String),
        Num(f64),
        Bool(bool),
        Null,
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
        fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                other => panic!("expected a string, got {other:?}"),
            }
        }
        fn arr(&self) -> &[Json] {
            match self {
                Json::Arr(a) => a,
                other => panic!("expected an array, got {other:?}"),
            }
        }
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(self.s[self.i], c, "at byte {}", self.i);
            self.i += 1;
        }
        fn value(&mut self) -> Json {
            self.ws();
            match self.s[self.i] {
                b'{' => {
                    self.i += 1;
                    let mut kv = Vec::new();
                    loop {
                        self.ws();
                        if self.s[self.i] == b'}' {
                            self.i += 1;
                            return Json::Obj(kv);
                        }
                        let Json::Str(k) = self.value() else {
                            panic!("object key")
                        };
                        self.eat(b':');
                        kv.push((k, self.value()));
                        self.ws();
                        if self.s[self.i] == b',' {
                            self.i += 1;
                        }
                    }
                }
                b'[' => {
                    self.i += 1;
                    let mut a = Vec::new();
                    loop {
                        self.ws();
                        if self.s[self.i] == b']' {
                            self.i += 1;
                            return Json::Arr(a);
                        }
                        a.push(self.value());
                        self.ws();
                        if self.s[self.i] == b',' {
                            self.i += 1;
                        }
                    }
                }
                b'"' => {
                    self.i += 1;
                    let start = self.i;
                    while self.s[self.i] != b'"' {
                        assert_ne!(self.s[self.i], b'\\', "escapes are not used");
                        self.i += 1;
                    }
                    self.i += 1;
                    Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
                }
                b't' | b'f' | b'n' => {
                    let word: String = self.s[self.i..]
                        .iter()
                        .take_while(|c| c.is_ascii_alphabetic())
                        .map(|&c| c as char)
                        .collect();
                    self.i += word.len();
                    match word.as_str() {
                        "true" => Json::Bool(true),
                        "false" => Json::Bool(false),
                        "null" => Json::Null,
                        w => panic!("unknown literal {w}"),
                    }
                }
                _ => {
                    let start = self.i;
                    while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                        self.i += 1;
                    }
                    let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                    Json::Num(text.parse().unwrap())
                }
            }
        }
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Parser {
            s: text.as_bytes(),
            i: 0,
        }
        .value()
    }

    fn declared(doc: &Json, key: &str) -> Vec<Metric> {
        doc.get(key)
            .expect(key)
            .arr()
            .iter()
            .map(|e| Metric {
                name: e.get("name").unwrap().str().to_string(),
                unit: Box::leak(e.get("unit").unwrap().str().to_string().into_boxed_str()),
                better: Box::leak(e.get("better").unwrap().str().to_string().into_boxed_str()),
            })
            .collect()
    }

    #[test]
    fn printed_metrics_are_exactly_the_declared_ones() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), end_to_end());
        assert_eq!(declared(&doc, "per_layer"), per_layer());
        for e in doc.get("end_to_end").unwrap().arr() {
            let Some(Json::Num(b)) = e.get("bound") else {
                panic!("every end-to-end metric has a bound")
            };
            assert!(*b > 0.0 && *b <= 0.25);
        }
    }

    #[test]
    fn declared_workloads_are_the_ones_the_binary_runs() {
        let doc = benchmark_json();
        let names: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .arr()
            .iter()
            .map(|w| w.get("name").unwrap().str())
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }

    #[test]
    fn result_line_prints_every_declared_metric_with_its_unit() {
        let values: BTreeMap<String, f64> = end_to_end()
            .into_iter()
            .enumerate()
            .map(|(i, d)| (d.name, 1.5 + i as f64))
            .collect();
        let line = result_line(true, 10, 1, false, &values).unwrap();
        let doc = Parser {
            s: line.as_bytes(),
            i: 0,
        }
        .value();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted"), Some(&Json::Num(10.0)));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics object")
        };
        assert_eq!(metrics.len(), end_to_end().len());
        for d in end_to_end() {
            let entry = doc.get("metrics").unwrap().get(&d.name).unwrap();
            assert_eq!(entry.get("unit").unwrap().str(), d.unit);
        }
    }

    #[test]
    fn result_line_refuses_missing_extra_or_non_finite_values() {
        let mut values: BTreeMap<String, f64> =
            end_to_end().into_iter().map(|d| (d.name, 1.0)).collect();
        values.remove("setup_s");
        assert!(result_line(true, 1, 0, false, &values).is_err());
        values.insert("setup_s".into(), f64::NAN);
        assert!(result_line(true, 1, 0, false, &values).is_err());
        values.insert("setup_s".into(), 1.0);
        values.insert("bogus".into(), 1.0);
        assert!(result_line(true, 1, 0, false, &values).is_err());
    }

    #[test]
    fn registry_list_matches_the_program_registry() {
        assert_eq!(crate::registry().names(), REGISTRY.to_vec());
    }
}
