//! Benchmark command: runs one workload and prints its record, ending
//! with the one-line JSON result.
//!
//! ```text
//! zonal-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! A traced run writes its Chrome trace under [`TRACE_DIR`].
//!
//! Exit status: 0 when every answer was correct, 1 when one was not
//! (the result line is still printed), 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use zonal_perfbench::{run, Opts, Size, Workload, DEFAULT_SEED};

/// Where a traced run writes its Chrome trace, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_out";

fn usage(msg: &str) -> ExitCode {
    eprintln!("zonal-perfbench: {msg}");
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: zonal-perfbench --workload {{{}}} --seed N --seconds S --trace 0|1",
        workloads.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: Workload::BatchConus,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        trace_dir: Some(PathBuf::from(TRACE_DIR)),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    println!(
        "# workload {} seed {} seconds {} trace {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let outcome = run(&opts);
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        println!("# {:<34} {:>18} {}", m.name, m.value, m.unit);
    }
    println!(
        "# attempted {} failed {} fail_frac {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
