//! `qsbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]`
//!
//! Runs one benchmark workload and prints the host line, one line per
//! operation (`op <world seed> <name>=<value> ...`), one line per
//! metric (`metric <name> <value> <unit>`) and, last, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. Failures go to
//! stderr. Exits 2 on a usage error.
//!
//! Each operation (one world) runs in a child process of this binary,
//! invoked with `--op <world seed>` (plus `--repeat` for a world the run
//! has measured before); it prints its report lines and exits.

use qsbench::{mem::CountingAlloc, run, run_op, Options, Workload};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: qsbench --workload <large-month|medium-month|medium-resume> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke]";

/// Parsed command line.
struct Args {
    opts: Options,
    /// `--op`: run this one world in-process.
    op: Option<u64>,
    /// `--repeat`: the world's first operation ran the one-off checks.
    repeat: bool,
}

fn parse_seed(value: &str) -> Option<u64> {
    match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => value.parse().ok(),
    }
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut op = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut repeat = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (key, inline) = match arg.split_once('=') {
            Some((k, v)) => (k, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        if key == "--smoke" {
            smoke = true;
            continue;
        }
        if key == "--repeat" {
            repeat = true;
            continue;
        }
        let value = match inline {
            Some(v) => v,
            None => it.next().ok_or(format!("{key} needs a value"))?.clone(),
        };
        let bad = |what: &str| format!("{key}: {what} `{value}`");
        match key {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(bad("unknown workload"))?)
            }
            "--seed" => seed = Some(parse_seed(&value).ok_or(bad("not a seed"))?),
            "--op" => op = Some(parse_seed(&value).ok_or(bad("not a seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("not a duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument `{arg}`")),
        }
    }
    let opts = Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    };
    Ok(Args { opts, op, repeat })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { opts, op, repeat } = match parse(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(world) = op {
        print!("{}", run_op(&opts, world, repeat).lines());
        return;
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this binary: {e}");
            std::process::exit(1);
        }
    };
    println!("# {}: {}", opts.workload.name(), opts.workload.why());
    let outcome = run(&opts, &exe);
    println!("{}", outcome.host_json(&opts));
    for e in &outcome.errors {
        eprintln!("failed: {e}");
    }
    for (world, samples) in &outcome.ops {
        let samples: Vec<String> = samples
            .iter()
            .map(|m| format!("{}={}", m.name, m.value))
            .collect();
        println!("op {world} {}", samples.join(" "));
    }
    for m in &outcome.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.result_json());
}
