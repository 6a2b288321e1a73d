//! The benchmark command: runs one workload from a seed and prints its
//! metrics, one per line, then the result as a JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload central-scale --seed 1 --seconds 30 --trace 0
//! ```

use lmds_perfbench::report::result_line;
use lmds_perfbench::{central, finish_metrics, local, serve, trace, RunConfig, WORKLOADS};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: lmds-perfbench --workload <central-scale|local-views|serve-mix> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

/// Parsed command line.
struct Args {
    workload: String,
    config: RunConfig,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => trace = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (known: {})", WORKLOADS.join(", ")));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    let trace = match trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let config =
        RunConfig { seed: seed.unwrap_or(1), seconds: Duration::from_secs(seconds), trace };
    Ok(Args { workload, config })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = args.config;
    let outcome = match args.workload.as_str() {
        "central-scale" => central::run(&cfg),
        "local-views" => local::run(&cfg),
        _ => serve::run(&cfg),
    };
    let metrics = finish_metrics(&outcome, cfg.trace);
    if cfg.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.tsv", args.workload, cfg.seed));
        match trace::write_tsv(&path, &outcome.spans) {
            Ok(()) => eprintln!("{} spans written to {}", outcome.spans.len(), path.display()),
            Err(e) => eprintln!("warning: trace not written to {}: {e}", path.display()),
        }
    }
    for problem in &outcome.tally.problems {
        eprintln!("FAILED: {problem}");
    }
    let tally = &outcome.tally;
    println!("# {} seed={} trace={}", args.workload, cfg.seed, u8::from(cfg.trace));
    for m in &metrics {
        println!("{:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<28} {:>18.6} fraction ({} failed of {} attempted)",
        "fail_share",
        tally.fail_share(),
        tally.failed,
        tally.attempted
    );
    println!("{}", result_line(tally, &metrics));
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
