//! The benchmark's own checks: every metric `BENCHMARK.json` names is
//! reported, finite and in its unit, and the correctness checks catch a
//! wrong price or a price below its reserve.

use pdm_linalg::Json;
use pdm_perfbench::driver::{below, Driver};
use pdm_perfbench::replay::{verify, Cut};
use pdm_perfbench::workload::{Inputs, Scale, Spec, WORKLOADS};
use pdm_perfbench::{build, run, Options, Outcome};
use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every metric listed under `section` in the
/// repository's `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("the section is a list")
        .iter()
        .map(|metric| {
            let field = |key| {
                metric
                    .get(key)
                    .and_then(Json::as_str)
                    .expect("metrics carry a name and a unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn tiny(workload: &str, trace: bool) -> Options {
    Options {
        workload: workload.to_owned(),
        seed: 7,
        seconds: 0.6,
        trace,
        scale: Scale::Tiny,
    }
}

fn assert_reports_all(outcome: &Outcome, section: &str, context: &str) {
    let declared = declared(section);
    assert_eq!(
        outcome.metrics.len(),
        declared.len(),
        "{context}: reports exactly the declared metrics"
    );
    for (name, unit) in declared {
        let metric = outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{context}: metric {name} is missing"));
        assert_eq!(metric.unit, unit, "{context}: unit of {name}");
        assert!(
            metric.value.is_finite(),
            "{context}: {name} = {}",
            metric.value
        );
    }
    assert!(outcome.attempted > 0, "{context}: traffic was attempted");
    assert_eq!(outcome.failed, 0, "{context}: no request failed");
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let outcome = run(&tiny(workload, false)).expect("a tiny run passes its checks");
        assert_reports_all(&outcome, "end_to_end", workload);
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric() {
    for workload in WORKLOADS {
        let outcome = run(&tiny(workload, true)).expect("a tiny traced run passes its checks");
        assert_reports_all(&outcome, "per_layer", workload);
        assert!(
            outcome.notes.iter().any(|n| n.starts_with("unattributed")),
            "{workload}: the reconciliation table has an unattributed row"
        );
    }
}

#[test]
fn a_flipped_price_bit_fails_the_serial_replay() {
    for workload in WORKLOADS {
        let spec = Spec::get(workload, Scale::Tiny).expect("a known workload");
        let inputs = Inputs::generate(&spec, 7);
        let schedule = spec.schedule();
        let mut service = build(&spec).expect("the service builds");
        let mut driver = Driver::new(&spec, &inputs, &schedule);
        for wave in 0..8 {
            driver.issue_wave(&service, wave).expect("ingest");
            driver.drain(&mut service).expect("the responses pass");
        }
        driver.settle(&mut service).expect("the outcomes pass");
        let snapshot = service.snapshot().expect("snapshot");
        let rounds: Vec<u64> = driver.tracks.iter().map(|track| track.rounds).collect();
        let cut = Cut {
            snapshot: &snapshot,
            rounds: &rounds,
        };
        verify(&spec, &inputs, &driver.tracks, &service, &cut).expect("the served run replays");
        // The first and the last tenant: a posted one, and in
        // mixed-durable an auction one.
        for id in [0, spec.tenants() - 1] {
            assert!(rounds[id] > 0, "{workload}: tenant-{id} was served");
            let mut tracks = driver.tracks.clone();
            tracks[id].hash ^= 1;
            let error = verify(&spec, &inputs, &tracks, &service, &cut).expect_err("must fail");
            assert!(
                error.starts_with("correctness:") && error.contains("served prices differ"),
                "{workload}: {error}"
            );
        }
    }
}

#[test]
fn a_price_below_its_reserve_fails_the_reserve_check() {
    assert!(below(0.5, 0.6));
    assert!(!below(0.6, 0.6));
    assert!(!below(0.7, 0.6));
    // A NaN on either side fails closed.
    assert!(below(f64::NAN, 0.6));
    assert!(below(0.7, f64::NAN));
}

#[test]
fn cli_prints_the_result_line_last() {
    let output = Command::new(env!("CARGO_BIN_EXE_pdm-perfbench"))
        .args([
            "--workload",
            "posted-hd",
            "--seed",
            "3",
            "--seconds",
            "0.5",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(stdout.starts_with("provenance {"), "{stdout}");
    let last = stdout.lines().last().expect("some output");
    let result = Json::parse(last).expect("the last line is JSON");
    let keys: Vec<&str> = match &result {
        Json::Obj(pairs) => pairs.iter().map(|(key, _)| key.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    let metrics = result.get("metrics").expect("metrics");
    for (name, unit) in declared("end_to_end") {
        let metric = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(unit.as_str())
        );
        assert!(metric
            .get("value")
            .and_then(Json::as_f64)
            .is_some_and(f64::is_finite));
    }
}

#[test]
fn cli_rejects_unknown_arguments() {
    let status = Command::new(env!("CARGO_BIN_EXE_pdm-perfbench"))
        .args(["--workload", "posted-hd", "--bogus", "1"])
        .status()
        .expect("the benchmark binary runs");
    assert_eq!(status.code(), Some(2));
}
