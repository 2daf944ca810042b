//! Runs every workload of `BENCHMARK.json` at its smoke size, untraced and
//! traced, and checks that the result line passes its output checks and
//! carries exactly the metrics `BENCHMARK.json` names, each with its unit —
//! so a renamed or missing metric fails here, in seconds.

use std::path::Path;
use std::process::Command;

/// `(section, name, unit)` rows and workload names read from
/// `BENCHMARK.json`, which keeps one object per line.
struct Catalogue {
    workloads: Vec<String>,
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn field(line: &str, key: &str) -> Option<String> {
    let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
    let len = line[start..].find('"')?;
    Some(line[start..start + len].to_string())
}

fn catalogue() -> Catalogue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let mut cat = Catalogue {
        workloads: Vec::new(),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };
    let mut section = "";
    for line in text.lines() {
        for key in ["workloads", "end_to_end", "per_layer"] {
            if line.trim_start().starts_with(&format!("\"{key}\"")) {
                section = key;
            }
        }
        let Some(name) = field(line, "name") else {
            continue;
        };
        match (section, field(line, "unit")) {
            ("workloads", _) => cat.workloads.push(name),
            ("end_to_end", Some(unit)) => cat.end_to_end.push((name, unit)),
            ("per_layer", Some(unit)) => cat.per_layer.push((name, unit)),
            _ => panic!("unexpected catalogue line: {line}"),
        }
    }
    cat
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_botmeter-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
        .args(["--trace", &trace.to_string(), "--smoke", "--out"])
        .arg(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{workload} trace {trace} failed");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str, trace: u8, metrics: &[(String, String)]) {
    let line = run(workload, trace);
    assert!(
        line.starts_with("{\"correct\": true, "),
        "{workload}: {line}"
    );
    assert!(line.contains("\"failed\": 0, "), "{workload}: {line}");
    for (name, unit) in metrics {
        let value_at = line
            .find(&format!("\"{name}\": {{\"value\": "))
            .unwrap_or_else(|| panic!("{workload} trace {trace} lacks {name}"));
        let rest = &line[value_at..];
        let entry = &rest[..rest.find('}').expect("closed metric object")];
        assert!(
            entry.ends_with(&format!("\"unit\": \"{unit}\"")),
            "{workload}: {name} has the wrong unit: {entry}"
        );
    }
    assert_eq!(
        line.matches("\"value\": ").count(),
        metrics.len(),
        "{workload} trace {trace} prints metrics BENCHMARK.json does not name"
    );
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let cat = catalogue();
    assert_eq!(
        cat.workloads,
        ["scenario_stream", "border_chart", "border_durable"]
    );
    assert!(cat
        .end_to_end
        .iter()
        .any(|(n, u)| n == "setup_s" && u == "s"));
    for workload in &cat.workloads {
        check(workload, 0, &cat.end_to_end);
        check(workload, 1, &cat.per_layer);
    }
}
