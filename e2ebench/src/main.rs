//! `cachedse-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. Progress and the per-layer report go to standard error.

use std::process::ExitCode;

use cachedse_e2ebench::metrics::{END_TO_END, PER_LAYER};
use cachedse_e2ebench::{explore, out_dir, serve, KERNELS};
use cachedse_serve::TraceSide;

#[global_allocator]
static ALLOC: cachedse_bench::alloc_track::CountingAlloc =
    cachedse_bench::alloc_track::CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        // Job specs carry the seed as a JSON integer, which holds 63 bits.
        seed: seed & (u64::MAX >> 1),
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<String, String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    let explore_side = |side, variants| explore::Config {
        side,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        kernels: KERNELS.to_vec(),
        variants,
        setups: 5,
        min_rounds: 3,
    };
    let outcome = match args.workload.as_str() {
        "explore-data" => explore::run(&explore_side(TraceSide::Data, 2))?,
        "explore-instr" => explore::run(&explore_side(TraceSide::Instr, 1))?,
        "serve-mixed" => serve::run(&serve::Config::full(args.seed, args.seconds, args.trace))?,
        other => return Err(format!("unknown workload {other}")),
    };
    Ok(outcome.result_line(if args.trace { &PER_LAYER } else { &END_TO_END }))
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cachedse-e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
