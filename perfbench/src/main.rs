//! End-to-end and per-layer benchmark of the aigs serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload live-dag --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` replays the
//! same search stream down the layer ladder and prints the per-layer
//! metrics. A human-readable summary goes to stderr; the last line of
//! stdout is the JSON result. Any failed check exits non-zero without a
//! result. See `perfbench/README.md`.

mod backend;
mod check;
mod closed_loop;
mod e2e;
mod ladder;
mod stats;
mod workload;

use std::path::PathBuf;

use workload::{Workload, NAMES};

const USAGE: &str = "usage: perfbench --workload <live-dag|compiled-tree|wire-durable> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Scratch space for WAL directories, inside the working directory and
/// removed on drop (also when a check fails or a panic unwinds).
struct TempDir(PathBuf);

impl TempDir {
    fn new(workload: &str) -> Result<TempDir, String> {
        let dir =
            PathBuf::from(".perfbench_tmp").join(format!("{workload}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {dir:?}: {e}"))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent only when no concurrent run still uses it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

fn run(args: &Args) -> Result<stats::Report, String> {
    let built = std::time::Instant::now();
    let w = Workload::new(&args.workload, args.seed)?;
    eprintln!(
        "perfbench: {} seed {} ({} nodes, {} searches per pass) generated in {:.2?}",
        w.name,
        args.seed,
        w.dag.node_count(),
        w.pass,
        built.elapsed()
    );
    let tmp = TempDir::new(w.name)?;
    if args.trace {
        ladder::run(&w, &tmp.0)
    } else {
        e2e::run(&w, args.seconds, &tmp.0)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = run(&args).and_then(|r| r.json().map(|json| (r, json)));
    match result {
        Ok((report, json)) => {
            for note in &report.notes {
                eprintln!("  {note}");
            }
            for (name, value, unit) in &report.metrics {
                eprintln!("  {name:<40} {value:>14.4} {unit}");
            }
            println!("{json}");
        }
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            std::process::exit(1);
        }
    }
}
