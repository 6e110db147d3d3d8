//! `adya-ledger` — the verdict-path benchmark.
//!
//! ```sh
//! # one workload, one mode: what the driver runs
//! adya-ledger --workload stream-hot --seed 11 --seconds 10 --trace 0
//! # every workload, both modes, as one JSON document
//! adya-ledger run --seed 11 [--quick] [--out FILE]
//! # A/B (or A/A) two such documents; exit 1 on any `worse`
//! adya-ledger compare a.json b.json
//! # the contract, rendered from src/spec.rs
//! adya-ledger spec
//! ```
//!
//! Inputs are generated inside the harness from the seed; the programs
//! under test (`adya-check`, `adya-serve`, built from the repo's own
//! workspace) only ever see the generated files and lines.

mod gen;
mod json;
mod layers;
mod ledger;
mod proc;
mod result;
mod serve;
mod spec;
mod stats;
mod stream;
mod trace;

use std::process::ExitCode;

use spec::{Kind, Workload};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// One run of one workload in one mode.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    /// The measuring window.
    pub seconds: f64,
    /// ≈1 % sizes, for smoke tests.
    pub quick: bool,
    /// `false`: end-to-end metrics against the real binaries.
    /// `true`: per-layer metrics from the traced in-process pass.
    pub traced: bool,
}

/// Runs one workload once. An untraced run that could not measure
/// every end-to-end metric is an error, not a result with holes in it.
pub fn run_once(args: &RunArgs, programs: &proc::Programs) -> Result<result::RunResult, String> {
    let res = match args.workload.kind {
        Kind::Stream | Kind::Batch => stream::run(args, programs),
        _ => serve::run(args, programs),
    }?;
    match res.metrics.unmeasured().first() {
        Some(name) if !args.traced => Err(format!(
            "{}: {name} could not be measured: {}",
            args.workload.name,
            res.notes.join("; ")
        )),
        _ => Ok(res),
    }
}

const USAGE: &str = "usage: adya-ledger --workload NAME --seed N --seconds S --trace 0|1 [--quick]
       adya-ledger run --seed N [--quick] [--out FILE]
       adya-ledger compare A.json B.json
       adya-ledger spec";

/// `--flag value` pairs plus bare flags, order-free.
pub struct Flags(Vec<String>);

impl Flags {
    pub fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    pub fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag) {
            None if self.has(flag) => Err(format!("{flag} needs a value")),
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot read {v:?}")),
        }
    }

    fn workload(&self) -> Result<&'static Workload, String> {
        let name = self.value("--workload").ok_or("--workload is required")?;
        spec::workload(name).ok_or_else(|| {
            let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; one of {}", names.join(", "))
        })
    }
}

fn single_run(flags: &Flags) -> Result<ExitCode, String> {
    let quick = flags.has("--quick");
    let args = RunArgs {
        workload: flags.workload()?,
        seed: flags.parsed("--seed")?.unwrap_or(11),
        seconds: flags.parsed("--seconds")?.unwrap_or(if quick {
            2.0
        } else {
            spec::RUN_SECONDS as f64
        }),
        quick,
        traced: match flags.value("--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace is 0 or 1, not {other:?}")),
        },
    };
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} is out of range", args.seconds));
    }
    let programs = proc::build_programs()?;
    let res = run_once(&args, &programs)?;
    eprint!("{}", res.describe());
    println!("{}", res.driver_line());
    // A wrong verdict is reported in the result line, not by the exit
    // code: the driver reads `correct`/`failed`.
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags(argv.clone());
    let outcome = match argv.first().map(String::as_str) {
        Some("run") => ledger::run(&flags),
        Some("compare") => match (argv.get(1), argv.get(2)) {
            (Some(a), Some(b)) => ledger::compare_files(a, b),
            _ => Err(USAGE.to_string()),
        },
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        Some("--help" | "-h") | None => Err(USAGE.to_string()),
        Some(_) => single_run(&flags),
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("adya-ledger: {msg}");
            ExitCode::from(2)
        }
    }
}
