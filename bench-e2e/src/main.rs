//! `e2e`: the end-to-end performance ledger (see the crate docs).

use pcg_e2e::parent::{self, SetConfig};
use pcg_e2e::workload::{self, ChildSpec, Scale, Workload, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: e2e [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
  NAME: quick | threaded | variants | replay (default: all four)
  --seed N      input seed (default 20240501)
  --seconds S   keep starting runs of a workload for S seconds (default 20)
  --trace 0|1   1 follows the runs with one traced run and reports per-layer metrics";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args.first().map(String::as_str) {
        Some("--child") => parse_child(&args[1..]).map(|spec| {
            workload::run_child(&spec);
            ExitCode::SUCCESS
        }),
        _ => parse_parent(&args).map(run_parent),
    };
    parsed.unwrap_or_else(|e| {
        eprintln!("e2e: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

struct ParentArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_parent(args: &[String]) -> Result<ParentArgs, String> {
    let mut out = ParentArgs {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w =
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
                if !out.workloads.contains(&w) {
                    out.workloads.push(w);
                }
            }
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds.is_finite() && out.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        out.trace = true;
                        continue;
                    }
                };
                it.next();
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.workloads.is_empty() {
        out.workloads = Workload::ALL.to_vec();
    }
    Ok(out)
}

fn parse_child(args: &[String]) -> Result<ChildSpec, String> {
    let mut it = args.iter();
    let name = it.next().ok_or("--child needs a workload")?;
    let mut spec = ChildSpec {
        workload: Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
        seed: DEFAULT_SEED,
        jobs: 1,
        scale: Scale::Bench,
        trace_out: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--seed" => spec.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--jobs" => spec.jobs = value()?.parse().map_err(|e| format!("--jobs: {e}"))?,
            "--trace-out" => spec.trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => spec.scale = Scale::Smoke,
            other => return Err(format!("unknown child argument `{other}`")),
        }
    }
    Ok(spec)
}

fn run_parent(args: ParentArgs) -> ExitCode {
    let out_dir = match std::env::current_dir() {
        Ok(d) => d.join("target").join("pcgbench-e2e"),
        Err(e) => {
            eprintln!("e2e: no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_correct = true;
    for w in args.workloads {
        let cfg = SetConfig::new(w, args.seed, args.seconds, args.trace, out_dir.clone());
        let result = parent::run_set(&cfg);
        print!("{}", parent::render_table(&result));
        match parent::append_ledger(&result) {
            Ok(path) => println!("ledger: {}", path.display()),
            Err(e) => eprintln!("e2e: could not write the ledger: {e}"),
        }
        println!("{}", parent::result_line(&result));
        all_correct &= result.correct;
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
