//! `pdm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.  The lines
//! before it are notes: provenance, sample counts, and (traced runs) the
//! layer reconciliation table.  Exits 1 when a correctness check fails, 2
//! on bad arguments.

use pdm_linalg::Json;
use pdm_perfbench::workload::{Scale, WORKLOADS};
use pdm_perfbench::{run, Options, Outcome};
use std::process::ExitCode;

/// A seed never used while the benchmark or a change is tuned; gain claims
/// are confirmed on it.
const HELD_OUT_SEED: u64 = 9_001;

fn usage(problem: &str) -> ExitCode {
    eprintln!("pdm-perfbench: {problem}");
    eprintln!(
        "usage: pdm-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("`{}` needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => options.workload.clone_from(value),
            "--seed" => options.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(options.seconds > 0.0 && options.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&options.workload.as_str()) {
        return Err(format!("unknown workload `{}`", options.workload));
    }
    Ok(options)
}

fn first_line(path: &str, key: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with(key))
                .and_then(|line| line.split(':').nth(1))
                .map(|value| value.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cache_size(level: &str) -> String {
    (0..8)
        .find_map(|index| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
            let found = std::fs::read_to_string(format!("{dir}/level")).ok()?;
            let kind = std::fs::read_to_string(format!("{dir}/type")).ok()?;
            (found.trim() == level && kind.trim() != "Instruction")
                .then(|| std::fs::read_to_string(format!("{dir}/size")).ok())
                .flatten()
                .map(|size| size.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `(steal, total)` CPU ticks from `/proc/stat`: time the hypervisor gave
/// this machine's vCPUs to someone else slows every timing in the run.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|field| field.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn provenance(options: &Options) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Json::obj(vec![
        ("workload", Json::str(&options.workload)),
        ("seed", Json::Num(options.seed as f64)),
        ("held_out_seed", Json::Num(HELD_OUT_SEED as f64)),
        ("trace", Json::Bool(options.trace)),
        ("nproc", Json::Num(nproc as f64)),
        ("cpu", Json::str(&first_line("/proc/cpuinfo", "model name"))),
        ("l2", Json::str(&cache_size("2"))),
        ("l3", Json::str(&cache_size("3"))),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC"))),
        ("git_sha", Json::str(env!("PERFBENCH_GIT_SHA"))),
    ])
}

fn result_line(outcome: &Outcome) -> Json {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let metric = Json::obj(vec![
                ("value", Json::Num(m.value)),
                ("unit", Json::str(m.unit)),
            ]);
            (m.name.to_owned(), metric)
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(problem) => return usage(&problem),
    };
    println!("provenance {}", provenance(&options).render());
    let before = cpu_ticks();
    match run(&options) {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("# {note}");
            }
            if let (Some((steal0, total0)), Some((steal1, total1))) = (before, cpu_ticks()) {
                let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
                println!("# cpu steal during the run: {:.1}%", share * 100.0);
            }
            if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
                eprintln!("pdm-perfbench: metric {} is not finite", bad.name);
                return ExitCode::FAILURE;
            }
            println!("{}", result_line(&outcome).render());
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("pdm-perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}
