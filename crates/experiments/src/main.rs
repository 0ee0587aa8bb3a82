//! Reproduction harness: one subcommand per table/figure of
//! "Inspector Gadget" (Heo et al., VLDB 2020).
//!
//! ```text
//! ig-experiments <experiment> [--scale tiny|quick|medium|paper]
//!                [--seed N] [--out DIR] [--store DIR]
//!                [--budget BYTES] [--health-exit]
//!
//! experiments: table1 table2 table3 table4 table5 table6
//!              fig9 fig10 fig11 combine chaos ooc all
//!              ("combine" is an extra ablation of the box-combination
//!              strategy from Section 3, not a numbered paper table;
//!              "chaos" is the fault-injection / recovery harness;
//!              "ooc" is the out-of-core streaming demo)
//! ```
//!
//! `--scale medium` (default) keeps the paper's class ratios at reduced
//! dataset sizes so a full `all` run finishes in CPU-minutes; `paper`
//! uses Table 1's exact N; `tiny` is the CI smoke alias of `quick`.
//! `--budget BYTES` is the resident-set budget of the `ooc` driver's
//! stream, the only driver that reads it (default `0`, one shard);
//! `ooc --scale paper --budget 268435456` streams the paper-scale KSDD
//! corpus through the stage graph in 256 MiB shards. Outputs go to
//! stdout and `<out>/<exp>.{txt,json}`, plus a run-wide
//! `<out>/health.json` (fault summary + event log).
//!
//! Every run builds one [`ExpEnv`] whose [`ig_core::RunContext`] is
//! shared by all drivers it dispatches: datasets, pattern banks and
//! feature matrices memoize in the context's artifact store, so an `all`
//! run generates each dataset once and matches a bank against a batch
//! once across experiments.
//!
//! `--store DIR` adds a crash-safe on-disk tier beneath the in-memory
//! store: durable stages (dataset generation, clean feature matrices)
//! persist as checksummed artifacts, so a rerun pointed at the same
//! directory warm-starts from whatever a killed sweep already computed.
//! Because every stage is a pure function of its key, the resumed run's
//! result files are byte-identical to an uninterrupted one.
//!
//! `--health-exit` turns the health summary into the exit code: 0 for a
//! clean run, 3 for completed-with-recovered-faults, 4 when any fault
//! had no recovery — so sweep schedulers can distinguish "trust it",
//! "trust it but inspect the log", and "rerun it" without parsing JSON.

mod ablation_combine;
mod chaos;
mod common;
mod fig10;
mod fig11;
mod fig9;
mod json;
mod ooc;
mod scale;
mod table1;
mod table2;
mod table3;
mod table4;
mod table5;
mod table6;

use common::ExpEnv;
use ig_core::{HealthReport, RunContext};
use ig_runtime::DiskStore;
use json::{Json, ToJson};
use scale::Scale;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str =
    "usage: ig-experiments <table1..table6|fig9|fig10|fig11|combine|chaos|ooc|all> \
     [--scale tiny|quick|medium|paper] [--seed N] [--out DIR] [--store DIR] \
     [--budget BYTES] [--health-exit]";

/// A driver: runs one experiment and writes its results. A failure it
/// detects in its own output (as `ooc`'s bit-identity check) is its exit
/// code.
type Driver = fn(&ExpEnv) -> ExitCode;

/// Every experiment by name, with its driver. `all` runs them in this
/// order, every one but the last: `ooc`, the out-of-core streaming demo,
/// runs only when named.
const EXPERIMENTS: [(&str, Driver); 12] = [
    ("table1", table1::run),
    ("table2", table2::run),
    ("table3", table3::run),
    ("table4", table4::run),
    ("table5", table5::run),
    ("table6", table6::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("combine", ablation_combine::run),
    ("chaos", chaos::run),
    ("ooc", ooc::run),
];

/// The drivers `experiment` names, in run order: its own, or every
/// experiment's but `ooc`'s for `all`. Empty for an unknown name.
fn drivers(experiment: &str) -> Vec<(&'static str, Driver)> {
    EXPERIMENTS
        .into_iter()
        .filter(|&(name, _)| match experiment {
            "all" => name != "ooc",
            _ => name == experiment,
        })
        .collect()
}

/// What the command line asks for.
enum Command {
    /// `--help` or `-h` anywhere: print the usage line and exit 0.
    Help,
    Run(Args),
}

struct Args {
    experiment: String,
    drivers: Vec<(&'static str, Driver)>,
    scale: Scale,
    budget: u64,
    seed: u64,
    out: String,
    store: Option<String>,
    health_exit: bool,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let argv: Vec<String> = argv.into_iter().collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Command::Help);
    }
    let mut args = argv.into_iter();
    let experiment = args.next().ok_or("missing experiment name")?;
    let drivers = drivers(&experiment);
    if drivers.is_empty() {
        return Err(format!("unknown experiment {experiment}"));
    }
    let mut scale = Scale::Medium;
    let mut budget = 0;
    let mut seed = 42u64;
    let mut out = "results".to_string();
    let mut store = None;
    let mut health_exit = false;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                scale = Scale::parse(&v)?;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--out" => {
                out = args.next().ok_or("--out needs a value")?;
            }
            "--store" => {
                store = Some(args.next().ok_or("--store needs a value")?);
            }
            "--budget" => {
                let v = args.next().ok_or("--budget needs a value (bytes)")?;
                budget = v.parse().map_err(|_| format!("bad budget {v}"))?;
            }
            "--health-exit" => {
                health_exit = true;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Command::Run(Args {
        experiment,
        drivers,
        scale,
        budget,
        seed,
        out,
        store,
        health_exit,
    }))
}

/// Serialize the run-wide health report to `<out>/health.json`: the
/// machine-readable summary first, then the full event log. CI's crash
/// drill excludes this one file from its byte-compare — store hit/miss
/// recovery events legitimately differ between a cold run and a resumed
/// one, while every other result file must not.
fn write_health_json(out_dir: &str, health: &HealthReport) {
    let doc = Json::object([
        ("summary", health.summary().to_json()),
        ("events", health.events().to_json()),
    ]);
    if std::fs::create_dir_all(out_dir).is_err() {
        return;
    }
    let _ = std::fs::write(
        std::path::Path::new(out_dir).join("health.json"),
        doc.pretty(),
    );
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Command::Run(a)) => a,
        Ok(Command::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut ctx = RunContext::new(args.seed);
    // Resuming is nothing more than rerunning over a store directory that
    // already holds a previous (possibly killed) run's artifacts.
    let mut disk = None;
    if let Some(dir) = &args.store {
        match DiskStore::open(dir) {
            Ok(store) => {
                let store = Arc::new(store);
                ctx = ctx.with_disk(Arc::clone(&store));
                println!("[store: durable tier at {dir}]");
                disk = Some(store);
            }
            Err(e) => {
                eprintln!("error: cannot open durable store at {dir}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let env = ExpEnv {
        ctx,
        scale: args.scale,
        budget: args.budget,
        out: args.out.clone(),
    };
    let all = args.experiment == "all";
    let mut status = ExitCode::SUCCESS;
    for &(name, driver) in &args.drivers {
        let started = std::time::Instant::now();
        if all {
            println!("\n===================== {name} =====================");
        }
        status = driver(&env);
        if all {
            println!("[{name} took {:.1}s]", started.elapsed().as_secs_f32());
        }
        if status != ExitCode::SUCCESS {
            break;
        }
    }
    let store = env.ctx.store();
    println!(
        "[runtime: artifact store {} entries, {} hits / {} misses]",
        store.len(),
        store.hits(),
        store.misses()
    );
    if let Some(disk) = &disk {
        let s = disk.stats();
        println!(
            "[store: {} disk hits / {} misses, {} writes, {} quarantined, {} stale locks broken, \
             {} flight waits]",
            s.hits, s.misses, s.writes, s.quarantined, s.locks_broken, s.flight_waits
        );
    }
    let summary = env.ctx.health().summary();
    write_health_json(&env.out, env.ctx.health());
    println!(
        "[health: {} fault(s), {} recovered, {} unrecovered -> {}/health.json]",
        summary.total_faults, summary.recovered, summary.unrecovered, env.out
    );
    if status != ExitCode::SUCCESS {
        return status;
    }
    if args.health_exit {
        // 0 = clean, 3 = completed with every fault recovered, 4 = at
        // least one fault had no recovery action — "trust it", "inspect
        // the log", "rerun it".
        if summary.unrecovered > 0 {
            return ExitCode::from(4);
        }
        if summary.total_faults > 0 {
            return ExitCode::from(3);
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Command, String> {
        parse_args(argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn help_flags_ask_for_the_usage_line() {
        for argv in [
            &["--help"][..],
            &["-h"],
            &["table1", "--help"],
            &["ooc", "--seed", "3", "-h"],
            &["no-such-experiment", "--help"],
        ] {
            assert!(matches!(parse(argv), Ok(Command::Help)), "{argv:?}");
        }
    }

    #[test]
    fn unknown_experiments_and_flags_are_errors() {
        let err = |argv: &[&str]| parse(argv).err().unwrap_or_default();
        assert_eq!(err(&["tabel1"]), "unknown experiment tabel1");
        assert_eq!(err(&["--seed"]), "unknown experiment --seed");
        assert_eq!(err(&[]), "missing experiment name");
        assert_eq!(err(&["table1", "--bogus"]), "unknown flag --bogus");
        assert_eq!(err(&["ooc", "--budget", "lots"]), "bad budget lots");
        // Retired switches are errors (exit 2): the memoization switch,
        // the `--store <out>/store` alias and the `ooc` tier, which is
        // `--scale paper --budget 268435456`.
        assert_eq!(err(&["all", "--no-memo"]), "unknown flag --no-memo");
        assert_eq!(err(&["all", "--resume"]), "unknown flag --resume");
        assert!(err(&["ooc", "--scale", "ooc"]).starts_with("unknown scale tier `ooc`"));
    }

    #[test]
    fn every_experiment_name_parses_with_its_flags() {
        for name in EXPERIMENTS.iter().map(|&(name, _)| name).chain(["all"]) {
            let argv = [
                name,
                "--seed",
                "7",
                "--out",
                "o",
                "--store",
                "s",
                "--scale",
                "paper",
                "--budget",
                "268435456",
                "--health-exit",
            ];
            let Ok(Command::Run(args)) = parse(&argv) else {
                panic!("{name} did not parse");
            };
            assert_eq!(args.experiment, name);
            assert_eq!((args.seed, args.out.as_str()), (7, "o"));
            assert_eq!(args.store.as_deref(), Some("s"));
            assert!(args.health_exit);
            assert_eq!((args.scale, args.budget), (Scale::Paper, 256 << 20));
            let ran: Vec<&str> = args.drivers.iter().map(|&(ran, _)| ran).collect();
            if name == "all" {
                assert_eq!(ran.len(), EXPERIMENTS.len() - 1);
                assert!(!ran.contains(&"ooc"));
            } else {
                assert_eq!(ran, [name]);
            }
        }
    }
}
