//! The benchmark's command line.
//!
//! ```text
//! rmpi-perfbench --workload <rank_routed|score_hot|train_fully> --seed <n> --seconds <s> --trace <0|1>
//! rmpi-perfbench --repeat <n> [--sets <k>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! `--setup-only 1` with `--workload` and `--seed` only sets the workload
//! up, prints `setup done` and exits: a run starts itself that way to time
//! set-ups in fresh processes.
//!
//! A workload run prints human-readable lines, then as its last line one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. It exits
//! 1 when an output check or an operation failed and 2 on bad arguments.

use rmpi_perfbench::{run_workload, steady, Args, WORKLOADS};
use std::time::Instant;

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: rmpi-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         rmpi-perfbench --repeat <n> [--sets <k>] [--seed <n>] [--seconds <s>] [--trace <0|1>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: Vec<(String, String)> = Vec::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            usage(&format!("unexpected argument {flag:?}"))
        };
        let Some(value) = it.next() else { usage(&format!("--{name} needs a value")) };
        flags.push((name.to_owned(), value.clone()));
    }
    let get = |name: &str| flags.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str());
    for (name, _) in &flags {
        if !["workload", "seed", "seconds", "trace", "repeat", "sets", "setup-only"]
            .contains(&name.as_str())
        {
            usage(&format!("unknown flag --{name}"));
        }
    }
    let seed: u64 =
        get("seed").map_or(Ok(1), str::parse).unwrap_or_else(|_| usage("--seed takes an integer"));
    let seconds_text = get("seconds").unwrap_or("30");
    let seconds: f64 = seconds_text.parse().unwrap_or_else(|_| usage("--seconds takes a number"));
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage("--seconds must be in (0, 600]");
    }
    let trace = match get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => usage("--trace takes 0 or 1"),
    };

    if let Some(rounds) = get("repeat") {
        let rounds: usize = rounds.parse().unwrap_or_else(|_| usage("--repeat takes a count"));
        let sets: usize =
            get("sets").map_or(Ok(1), str::parse).unwrap_or_else(|_| usage("--sets takes a count"));
        let plan = steady::Plan {
            rounds,
            sets: sets.max(1),
            seconds: seconds_text.to_owned(),
            trace: if trace { "1" } else { "0" }.to_owned(),
            seed,
        };
        std::process::exit(steady::run(&plan));
    }

    let Some(workload) = get("workload") else { usage("--workload is required") };
    if !WORKLOADS.contains(&workload) {
        usage(&format!("unknown workload {workload:?}"));
    }
    if get("setup-only") == Some("1") {
        rmpi_perfbench::setup_only(workload, seed);
    }
    let args = Args { seed, seconds, trace, process_start };
    let result = run_workload(workload, &args).expect("known workload");
    println!("{}", result.to_json());
    // servers and sessions still hold threads; exiting here ends them all
    std::process::exit(if result.correct { 0 } else { 1 });
}
