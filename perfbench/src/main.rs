//! The benchmark command.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep|sampled|market_reorg> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! The last line of standard output is the JSON result; earlier lines are
//! notes. The exit code is 0 only when every correctness gate passed.

use std::process::{Command, ExitCode};

use perfbench::workloads::{Scale, Workload};
use perfbench::{layers, run_untraced, stats, Options};

const USAGE: &str = "usage: perfbench --workload <sweep|sampled|market_reorg> --seed <n> \
                     --seconds <s> --trace <0|1> [--smoke]";

fn parse(args: &[String]) -> Result<(Options, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        if flag == "--smoke" {
            scale = Scale::Smoke;
            continue;
        }
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let options = Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        scale,
    };
    Ok((options, trace.ok_or("--trace is required")?))
}

/// Runs the box calibration loops in a child process, so their 64 MiB
/// buffer never counts towards this process's peak resident set.
fn calibrate() -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let output = Command::new(exe)
        .arg("--calibrate")
        .output()
        .map_err(|e| format!("running box calibration: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut values = text.split_whitespace().map(str::parse::<f64>);
    match (output.status.success(), values.next(), values.next()) {
        (true, Some(Ok(compute)), Some(Ok(memory))) => Ok((compute, memory)),
        _ => Err(format!("box calibration failed: {text}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--calibrate") {
        println!("{} {}", stats::compute_calibration_ms(), stats::memory_calibration_ms());
        return ExitCode::SUCCESS;
    }
    let (options, traced) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = || {
        let before = calibrate()?;
        let outcome = if traced { layers::run_traced(&options) } else { run_untraced(&options) };
        Ok::<_, String>((before, outcome, calibrate()?))
    };
    let (before, mut outcome, after) = match run() {
        Ok(result) => result,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "box calibration: compute {:.1} -> {:.1} ms, memory {:.1} -> {:.1} ms",
        before.0, after.0, before.1, after.1
    );
    if traced && outcome.correct {
        layers::add_box_metrics(&mut outcome, before, after);
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
