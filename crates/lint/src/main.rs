//! CLI for the workspace analyzer.
//!
//! ```text
//! cargo run -p ig-lint -- check [--root DIR] [--report PATH] [--baseline PATH] [--quiet]
//! cargo run -p ig-lint -- baseline [--root DIR] [--budget N] [--out PATH]
//! cargo run -p ig-lint -- callgraph [--root DIR] [--out PATH]
//! cargo run -p ig-lint -- threads [--root DIR] [--out PATH]
//! cargo run -p ig-lint -- rules [--markdown] [--check [--readme PATH]]
//! ```
//!
//! `check` exits 0 when the workspace upholds every invariant, 1 when any
//! violation (including a malformed allow annotation or a busted
//! suppression budget) survives, and 2 on usage or I/O errors. A
//! machine-readable report is written to `results/lint_report.json` (for
//! local inspection; it is not committed) unless `--report` overrides the
//! path.
//!
//! `baseline` regenerates the committed suppression-debt record from the
//! current workspace state. `callgraph` dumps the byte-stable workspace
//! call graph for local inspection; `threads` dumps the thread topology
//! (every spawn site with its closure-capture escape set) the same way,
//! and that dump is committed under `results/` and drift-checked in CI.
//! `rules --markdown` prints the catalog as a markdown table, and
//! `rules --check` fails when the `README.md` rule table (the block
//! between the `<!-- ig-lint-rules -->` markers) has drifted from it.
//! `--help` or `-h` anywhere prints the usage and exits 0.

use std::path::PathBuf;
use std::process::ExitCode;

use ig_lint::baseline::Baseline;
use ig_lint::rules::rule_catalog;

struct CheckOpts {
    root: PathBuf,
    report_path: PathBuf,
    baseline_path: Option<PathBuf>,
    quiet: bool,
}

struct BaselineOpts {
    root: PathBuf,
    budget: Option<usize>,
    out: PathBuf,
}

/// Options of the two dump commands, `callgraph` and `threads`.
struct DumpOpts {
    root: PathBuf,
    out: PathBuf,
}

struct RulesOpts {
    markdown: bool,
    check: bool,
    readme: PathBuf,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match args.first().map(String::as_str) {
        Some("check") => match parse_check_opts(&args[1..]) {
            Ok(opts) => run_check(&opts),
            Err(e) => usage_error(&e),
        },
        Some("baseline") => match parse_baseline_opts(&args[1..]) {
            Ok(opts) => run_baseline(&opts),
            Err(e) => usage_error(&e),
        },
        Some("callgraph") => match parse_dump_opts(&args[1..], "results/callgraph.json") {
            Ok(opts) => run_dump(&opts, "call graph", ig_lint::callgraph_json),
            Err(e) => usage_error(&e),
        },
        Some("threads") => match parse_dump_opts(&args[1..], "results/threads.json") {
            Ok(opts) => run_dump(&opts, "thread topology", ig_lint::threads_json),
            Err(e) => usage_error(&e),
        },
        Some("rules") => match parse_rules_opts(&args[1..]) {
            Ok(opts) => run_rules(&opts),
            Err(e) => usage_error(&e),
        },
        Some(other) => usage_error(&format!("unknown command `{other}`")),
        None => usage_error("missing command"),
    }
}

const USAGE: &str = "usage: ig-lint check [--root DIR] [--report PATH] [--baseline PATH] [--quiet]\n       ig-lint baseline [--root DIR] [--budget N] [--out PATH]\n       ig-lint callgraph [--root DIR] [--out PATH]\n       ig-lint threads [--root DIR] [--out PATH]\n       ig-lint rules [--markdown] [--check [--readme PATH]]";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("ig-lint: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn parse_check_opts(args: &[String]) -> Result<CheckOpts, String> {
    let mut opts = CheckOpts {
        root: PathBuf::from("."),
        report_path: PathBuf::from("results/lint_report.json"),
        baseline_path: None,
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                opts.root = it
                    .next()
                    .map(PathBuf::from)
                    .ok_or("--root requires a directory")?;
            }
            "--report" => {
                opts.report_path = it
                    .next()
                    .map(PathBuf::from)
                    .ok_or("--report requires a path")?;
            }
            "--baseline" => {
                opts.baseline_path = Some(
                    it.next()
                        .map(PathBuf::from)
                        .ok_or("--baseline requires a path")?,
                );
            }
            "--quiet" => opts.quiet = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

fn parse_baseline_opts(args: &[String]) -> Result<BaselineOpts, String> {
    let mut opts = BaselineOpts {
        root: PathBuf::from("."),
        budget: None,
        out: PathBuf::from("results/lint_baseline.json"),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                opts.root = it
                    .next()
                    .map(PathBuf::from)
                    .ok_or("--root requires a directory")?;
            }
            "--budget" => {
                let n = it.next().ok_or("--budget requires a number")?;
                opts.budget = Some(n.parse().map_err(|_| format!("bad budget `{n}`"))?);
            }
            "--out" => {
                opts.out = it
                    .next()
                    .map(PathBuf::from)
                    .ok_or("--out requires a path")?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

fn run_check(opts: &CheckOpts) -> ExitCode {
    let report = match ig_lint::check_workspace(&opts.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ig-lint: scanning {}: {e}", opts.root.display());
            return ExitCode::from(2);
        }
    };

    if !opts.quiet {
        for d in &report.violations {
            eprintln!("{}\n", d.render());
        }
    }

    if let Err(e) = write_file(&opts.report_path, &report.to_json()) {
        eprintln!(
            "ig-lint: writing report {}: {e}",
            opts.report_path.display()
        );
        return ExitCode::from(2);
    }

    // Suppression-debt budget: live allow count vs. the committed ceiling.
    let mut budget_failures = Vec::new();
    if let Some(path) = &opts.baseline_path {
        match std::fs::read_to_string(path) {
            Ok(text) => match Baseline::parse(&text) {
                Ok(baseline) => budget_failures = baseline.enforce(&report),
                Err(e) => {
                    eprintln!("ig-lint: baseline {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!("ig-lint: reading baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    for f in &budget_failures {
        eprintln!("ig-lint: {f}");
    }

    let counts = report.counts();
    let summary: Vec<String> = counts.iter().map(|(r, n)| format!("{r}: {n}")).collect();
    if report.violations.is_empty() && budget_failures.is_empty() {
        if !opts.quiet {
            println!(
                "ig-lint: {} files clean, {} allow annotation(s) on record",
                report.files_scanned,
                report.allows.len()
            );
        }
        ExitCode::SUCCESS
    } else {
        if !report.violations.is_empty() {
            eprintln!(
                "ig-lint: {} violation(s) in {} files scanned ({})",
                report.violations.len(),
                report.files_scanned,
                summary.join(", ")
            );
        }
        ExitCode::FAILURE
    }
}

fn run_baseline(opts: &BaselineOpts) -> ExitCode {
    let report = match ig_lint::check_workspace(&opts.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ig-lint: scanning {}: {e}", opts.root.display());
            return ExitCode::from(2);
        }
    };
    // Default budget: current debt — growth fails immediately, shrink is
    // always welcome.
    let budget = opts.budget.unwrap_or(report.allows.len());
    let baseline = Baseline::from_report(&report, budget);
    if let Err(e) = write_file(&opts.out, &baseline.render()) {
        eprintln!("ig-lint: writing {}: {e}", opts.out.display());
        return ExitCode::from(2);
    }
    println!(
        "ig-lint: baseline written to {} (budget {budget}, {} allows on record)",
        opts.out.display(),
        baseline.recorded_allows
    );
    ExitCode::SUCCESS
}

fn parse_dump_opts(args: &[String], default_out: &str) -> Result<DumpOpts, String> {
    let mut opts = DumpOpts {
        root: PathBuf::from("."),
        out: PathBuf::from(default_out),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                opts.root = it
                    .next()
                    .map(PathBuf::from)
                    .ok_or("--root requires a directory")?;
            }
            "--out" => {
                opts.out = it
                    .next()
                    .map(PathBuf::from)
                    .ok_or("--out requires a path")?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

fn parse_rules_opts(args: &[String]) -> Result<RulesOpts, String> {
    let mut opts = RulesOpts {
        markdown: false,
        check: false,
        readme: PathBuf::from("README.md"),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--markdown" => opts.markdown = true,
            "--check" => opts.check = true,
            "--readme" => {
                opts.readme = it
                    .next()
                    .map(PathBuf::from)
                    .ok_or("--readme requires a path")?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

/// Write one byte-stable dump (`what` names it in the status line).
fn run_dump(
    opts: &DumpOpts,
    what: &str,
    dump: fn(&std::path::Path) -> std::io::Result<String>,
) -> ExitCode {
    let json = match dump(&opts.root) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("ig-lint: scanning {}: {e}", opts.root.display());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = write_file(&opts.out, &json) {
        eprintln!("ig-lint: writing {}: {e}", opts.out.display());
        return ExitCode::from(2);
    }
    println!("ig-lint: {what} written to {}", opts.out.display());
    ExitCode::SUCCESS
}

/// The README's generated rule table, marker lines included.
fn rules_markdown() -> String {
    let mut s = String::from(RULES_BEGIN);
    s.push('\n');
    s.push_str("| ID | Name | Family | Scope | Invariant |\n");
    s.push_str("|----|------|--------|-------|-----------|\n");
    for r in rule_catalog() {
        s.push_str(&format!(
            "| {} | `{}` | {} | {} | {} |\n",
            r.id,
            r.name,
            r.family,
            r.scope,
            r.description
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }
    s.push_str(RULES_END);
    s.push('\n');
    s
}

const RULES_BEGIN: &str = "<!-- ig-lint-rules:begin (generated: `ig-lint rules --markdown`) -->";
const RULES_END: &str = "<!-- ig-lint-rules:end -->";

fn run_rules(opts: &RulesOpts) -> ExitCode {
    if opts.check {
        let text = match std::fs::read_to_string(&opts.readme) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("ig-lint: reading {}: {e}", opts.readme.display());
                return ExitCode::from(2);
            }
        };
        let expected = rules_markdown();
        let begin = text.find(RULES_BEGIN);
        let end = text.find(RULES_END);
        let block = match (begin, end) {
            (Some(b), Some(e)) if e > b => text.get(b..e + RULES_END.len() + 1),
            _ => None,
        };
        return match block {
            Some(b) if b == expected => {
                println!(
                    "ig-lint: {} rule table matches the catalog",
                    opts.readme.display()
                );
                ExitCode::SUCCESS
            }
            Some(_) => {
                eprintln!(
                    "ig-lint: {} rule table has drifted from the catalog — replace the \
                     block between the ig-lint-rules markers with the output of \
                     `cargo run -p ig-lint -- rules --markdown`",
                    opts.readme.display()
                );
                ExitCode::FAILURE
            }
            None => {
                eprintln!(
                    "ig-lint: {} has no ig-lint-rules marker block to check",
                    opts.readme.display()
                );
                ExitCode::FAILURE
            }
        };
    }
    if opts.markdown {
        print!("{}", rules_markdown());
        return ExitCode::SUCCESS;
    }
    println!(
        "{:<4} {:<25} {:<15} {:<55} DESCRIPTION",
        "ID", "NAME", "FAMILY", "SCOPE"
    );
    for r in rule_catalog() {
        println!(
            "{:<4} {:<25} {:<15} {:<55} {}",
            r.id,
            r.name,
            r.family,
            r.scope,
            r.description
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    ExitCode::SUCCESS
}

/// Write `contents` to `path`, creating its parent directory first.
fn write_file(path: &std::path::Path, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, contents)
}
