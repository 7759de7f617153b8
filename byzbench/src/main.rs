//! `byzbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints detail lines, then one JSON result line as the last line of
//! standard output.  Exits 2 on bad arguments and 1 when the workload
//! cannot be set up or no execution succeeded.

use byzbench::{run, Options};
use std::process::ExitCode;

fn usage(why: &str) -> ExitCode {
    eprintln!("byzbench: {why}");
    eprintln!(
        "usage: byzbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        byzbench::workloads::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        match (pair[0].as_str(), pair.get(1).map(String::as_str)) {
            ("--workload", Some(v)) => workload = Some(v.to_string()),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--seconds", Some(v)) => {
                seconds = v.parse::<f64>().ok().filter(|s| s.is_finite() && *s >= 0.0)
            }
            ("--trace", Some("0")) => trace = Some(false),
            ("--trace", Some("1")) => trace = Some(true),
            (flag, _) => return usage(&format!("bad argument `{flag}`")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        tiny: false,
    };
    println!(
        "byzbench: workload {} seed {} seconds {} trace {}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8
    );
    match run(&opts) {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("{note}");
            }
            println!("{}", outcome.json());
            if outcome.metrics.is_empty() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(why) => {
            eprintln!("byzbench: {why}");
            ExitCode::FAILURE
        }
    }
}
