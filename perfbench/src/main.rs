//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <vqe_ensemble|fleet_shared|service_pooled> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from `--seed`, repeats set-up + drive for
//! `--seconds`, checks every output against the first drive's (and the
//! substitution oracles), and prints as its last stdout line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `perfbench/README.md`.

mod fleet;
mod harness;
mod layers;
mod reference;
mod replica;
mod service;
mod stats;
mod trace;
mod vqe;

use harness::{Env, Measured, Metrics};
use layers::Layers;
use std::process::ExitCode;

/// What one run prints as its result line.
pub struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Option<Metrics>,
}

impl RunResult {
    /// An untraced run's result: the end-to-end metrics.
    pub fn end_to_end(m: &Measured) -> Self {
        RunResult {
            correct: m.correct(),
            attempted: m.attempted,
            failed: m.failed,
            metrics: harness::end_to_end(m),
        }
    }

    /// A traced run's result: the per-layer metrics, plus the tracing
    /// overhead against the interleaved untraced drives. `reconciled`
    /// says the child spans fit inside the drive wall time.
    pub fn traced(m: &Measured, mut layers: Layers, reconciled: bool) -> Self {
        let overhead = match (stats::median(&m.traced_run_s), stats::median(&m.run_s)) {
            (Some(t), Some(u)) => t / u - 1.0,
            _ => 0.0,
        };
        layers.set("trace.overhead_frac", overhead);
        if !reconciled {
            println!("# FAILED reconciliation: child spans exceed the drive wall time");
        }
        RunResult {
            correct: m.correct() && reconciled && !m.traced_run_s.is_empty(),
            attempted: m.attempted,
            failed: m.failed,
            metrics: Some(layers.into_metrics()),
        }
    }
}

/// Parses `--workload`, `--seed`, `--seconds` and `--trace`.
fn parse(args: &[String]) -> Result<Env, String> {
    let mut env = Env {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => env.workload = value.clone(),
            "--seed" => env.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => env.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                env.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(env.seconds.is_finite() && env.seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {}", env.seconds));
    }
    Ok(env)
}

/// `nproc`, CPU model, compiler and commit, for the record beside every
/// result.
fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "# host: nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" commit={}",
        run("rustc", &["-V"]),
        run("git", &["rev-parse", "--short", "HEAD"])
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let env = match parse(&args) {
        Ok(env) => env,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_line());
    println!(
        "# workload={} seed={} seconds={} trace={}",
        env.workload, env.seed, env.seconds, env.trace as u8
    );
    let result = match env.workload.as_str() {
        "vqe_ensemble" => vqe::run(&env),
        "fleet_shared" => fleet::run(&env),
        "service_pooled" => service::run(&env),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let Some(metrics) = result.metrics else {
        eprintln!("perfbench: no successful drive to measure");
        return ExitCode::FAILURE;
    };
    if let Some(bad) = metrics.0.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite", bad.name);
        return ExitCode::FAILURE;
    }
    println!(
        "{}",
        harness::result_json(result.correct, result.attempted, result.failed, &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("metric list");
        let end = json[start..].find(']').expect("list end") + start;
        json[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| {
                let field = |s: &str| s[..s.find('"').expect("quoted")].to_string();
                let unit = &s[s.find("\"unit\": \"").expect("unit") + 9..];
                (field(s), field(unit))
            })
            .collect()
    }

    /// The metrics a run prints must be exactly those `BENCHMARK.json`
    /// lists, in order and with the same units.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let json = include_str!("../../BENCHMARK.json");
        let reference = harness::Output {
            fingerprint: String::new(),
            epochs: 4,
            defects: Vec::new(),
            sim: harness::Sim::default(),
        };
        let m = Measured {
            setup_s: vec![0.5],
            run_s: vec![1.0],
            rss_mb: vec![8.0],
            references: vec![Some(reference)],
            ..Measured::default()
        };
        let printed = |metrics: Metrics| -> Vec<(String, String)> {
            metrics
                .0
                .into_iter()
                .map(|m| (m.name, m.unit.to_string()))
                .collect()
        };
        let e2e = harness::end_to_end(&m).expect("end-to-end metrics");
        assert_eq!(printed(e2e), listed(json, "end_to_end"));
        assert_eq!(
            printed(Layers::default().into_metrics()),
            listed(json, "per_layer")
        );
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let env = parse(&args(
            "--workload fleet_shared --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(env.workload, "fleet_shared");
        assert_eq!((env.seed, env.seconds, env.trace), (7, 10.0, true));
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--bogus 1")).is_err());
    }
}
