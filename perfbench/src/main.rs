//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a workload profile, the measured table and, as its last stdout
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exit 0 when every check passed, 1 when one failed, 2 on
//! usage errors.

use perfbench::drive::beside_exe;
use perfbench::e2e::{self, Ctx};
use perfbench::gen::{generate, Workload};
use perfbench::metrics::{per_layer, Report, END_TO_END};
use perfbench::{layers, oracle};
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload serve_hot|serve_cold|batch_check --seed N \
         --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> String {
        match args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)) {
            Some(v) => v.clone(),
            None => usage(),
        }
    };
    let workload = Workload::from_name(&flag("--workload")).unwrap_or_else(|| usage());
    let seed: u64 = flag("--seed").parse().unwrap_or_else(|_| usage());
    let seconds: f64 = flag("--seconds").parse().unwrap_or_else(|_| usage());
    let trace = match flag("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        usage();
    }

    let bin = beside_exe("cpo-experiments");
    if !bin.is_file() {
        eprintln!("missing {}: build the workspace first (see run.sh)", bin.display());
        std::process::exit(1);
    }
    let work = beside_exe("perfbench-work");
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let t0 = Instant::now();
    let g = generate(workload, seed);
    let wants = oracle::reference(&g, threads);
    let lines = if workload == Workload::ServeHot { 100_000 } else { g.pass.len() as u64 };
    let kinds: Vec<&str> = wants.iter().map(|e| e.kind).collect();
    println!("{}", g.profile(lines, &kinds));
    println!(
        "inputs and reference outcomes ready in {:.2} s ({threads} cores)",
        t0.elapsed().as_secs_f64()
    );

    let ctx = Ctx { g, wants, bin, work, seconds, threads };
    let mut report = Report::default();
    let outcome = if trace { layers::run(&ctx, &mut report) } else { e2e::run(&ctx, &mut report) };
    if let Err(e) = outcome {
        eprintln!("benchmark failed: {e}");
        std::process::exit(1);
    }

    let names: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    println!("{} ({}):", workload.name(), if trace { "traced, per layer" } else { "end to end" });
    for (name, unit) in &names {
        println!("  {name:<44} {:>16.6} {unit}", report.values.get(name).copied().unwrap_or(0.0));
    }
    if !trace {
        // Printed, not in the result line: see README.md.
        for (name, unit) in
            [("latency_p90_ms", "ms"), ("latency_p99_ms", "ms"), ("error_ratio", "ratio")]
        {
            println!("  {name:<44} {:>16.6} {unit}", report.values[name]);
        }
    }
    println!("{}", report.json(&names));
    std::process::exit(if report.correct() { 0 } else { 1 });
}
