//! `perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Prints a manifest line, a summary line, and, last, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 0 when every
//! check passed, 1 when one failed, 2 on a bad command line.

use perfbench::runner::{self, Args};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = runner::run(args);
    println!("{}", report.manifest);
    println!("{}", report.summary);
    println!("{}", report.result);
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
