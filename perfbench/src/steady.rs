//! Steadiness mode: run every workload `N` times as child processes, in
//! alternating order (A B C, C B A, ...) with a fresh seed per round, and
//! print each metric's median, quartiles and spread next to its bound from
//! `BENCHMARK.json`. Two sets (`--sets 2`) also compare their medians — the
//! evidence for the bounds and for "two sets of runs agree".

use crate::json::Json;
use crate::stats::{quartiles, spread};
use crate::WORKLOADS;
use std::collections::BTreeMap;
use std::process::Command;

/// What to repeat.
pub struct Plan {
    /// Rounds per set.
    pub rounds: usize,
    /// Sets of rounds.
    pub sets: usize,
    /// `--seconds` passed to each child.
    pub seconds: String,
    /// `--trace` passed to each child.
    pub trace: String,
    /// Seed of the first round; round `i` of set `s` uses `seed + s * rounds + i`.
    pub seed: u64,
}

type Values = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Run the plan; returns the process exit code.
pub fn run(plan: &Plan) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return 2;
        }
    };
    let bounds = read_bounds();
    let mut sets: Vec<Values> = Vec::new();
    let mut failures = 0;
    for s in 0..plan.sets {
        let mut values: Values = BTreeMap::new();
        for round in 0..plan.rounds {
            let mut order = WORKLOADS.to_vec();
            if round % 2 == 1 {
                order.reverse();
            }
            let seed = plan.seed + (s * plan.rounds + round) as u64;
            for w in &order {
                let out = Command::new(&exe)
                    .args(["--workload", w, "--seed", &seed.to_string()])
                    .args(["--seconds", &plan.seconds, "--trace", &plan.trace])
                    .output();
                let parsed = out.as_ref().ok().and_then(|o| {
                    let text = String::from_utf8_lossy(&o.stdout);
                    let last = text.lines().last()?.to_owned();
                    Json::parse(&last).ok().filter(|_| o.status.success())
                });
                let Some(result) = parsed else {
                    failures += 1;
                    eprintln!(
                        "set {s} round {round}: {w} seed {seed} failed ({:?})",
                        out.map(|o| o.status)
                    );
                    continue;
                };
                let mut line = format!("set {s} round {round}: {w:<12} seed {seed:<4}");
                if let Some(Json::Obj(metrics)) = result.get("metrics") {
                    for (name, m) in metrics {
                        if let Some(v) = m.get("value").and_then(Json::num) {
                            values
                                .entry(w.to_string())
                                .or_default()
                                .entry(name.clone())
                                .or_default()
                                .push(v);
                            line.push_str(&format!(" {name}={v:.4}"));
                        }
                    }
                }
                let failed = result.get("failed").and_then(Json::num).unwrap_or(-1.0);
                line.push_str(&format!(" failed={failed}"));
                println!("{line}");
            }
        }
        sets.push(values);
    }
    for (s, values) in sets.iter().enumerate() {
        println!("set {s}: median [q1, q3] spread (bound; spread/bound)");
        for (w, metrics) in values {
            for (name, v) in metrics {
                if v.len() < 2 {
                    continue;
                }
                let (q1, q2, q3) = quartiles(v);
                let spread = spread(v);
                let bound = bounds.get(name.as_str()).copied();
                let verdict = match bound {
                    Some(b) => format!("({b}; {:.2})", spread / b),
                    None => String::new(),
                };
                println!(
                    "  {w:<12} {name:<34} {q2:>14.4} [{q1:.4}, {q3:.4}] {spread:.4} {verdict}"
                );
            }
        }
    }
    if sets.len() >= 2 {
        println!("second set's median relative to the first's (bound):");
        for (w, metrics) in &sets[0] {
            for (name, v0) in metrics {
                let Some(v1) = sets[1].get(w).and_then(|m| m.get(name)) else { continue };
                if v0.len() < 2 || v1.len() < 2 {
                    continue;
                }
                let (m0, m1) = (quartiles(v0).1, quartiles(v1).1);
                let change = if m0 == 0.0 { 0.0 } else { (m1 - m0) / m0.abs() };
                let bound = bounds.get(name.as_str()).map_or(String::new(), |b| format!("({b})"));
                println!("  {w:<12} {name:<34} {change:+.4} {bound}");
            }
        }
    }
    i32::from(failures > 0)
}

/// `end_to_end` bounds from `BENCHMARK.json` in the working directory.
fn read_bounds() -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else { return out };
    let Ok(doc) = Json::parse(&text) else { return out };
    if let Some(Json::Arr(metrics)) = doc.get("end_to_end") {
        for m in metrics {
            if let (Some(n), Some(b)) =
                (m.get("name").and_then(Json::str), m.get("bound").and_then(Json::num))
            {
                out.insert(n.to_owned(), b);
            }
        }
    }
    out
}
