//! `circ` — the command-line race checker.
//!
//! Subcommands: `check` (one file), `batch` (a corpus), `serve` (a
//! resident daemon), `client` (its counterpart), `compile` and
//! `baselines`. Every flag is declared once in [`FLAGS`], with the
//! subcommands that act on it; a subcommand rejects any other flag as
//! a usage error, and `circ --help` prints the table as a synopsis.
//!
//! Exit codes: 0 = all checked variables race-free, 1 = a race was
//! found, 2 = inconclusive (the analysis gave up within its own
//! bounds), 3 = inconclusive because a resource budget ran out
//! (`--timeout-secs` / `--mem-limit-mb` / cancellation), 64 = usage
//! error, 65 = compile error. A race (1) dominates; among inconclusive
//! variables, budget exhaustion (3) dominates plain inconclusive (2).
//! For `batch`, a compile error in any file (65) dominates budget
//! exhaustion and inconclusive rows, and a race still dominates all.
//! `serve` exits 3 after a clean drain and 74 when it cannot bind its
//! socket or port; `client` exits with the worst `exit` field across
//! its check responses, 75 when the service shed a request
//! (overloaded or shutting down), and 74 when it cannot connect.
//!
//! `check`, `check --row-json`, `batch` and `serve` share one check
//! path in `circ-batch`: one warm-start loader, one per-variable step
//! ([`circ_batch::check_var`]) and, for `batch` and `serve`, one
//! retry/containment loop. `--row-json` is the isolation protocol's
//! child mode: check one file exactly as a batch worker would and
//! print the report row as one JSON line (exit code as above).

use circ_batch::{check_var, BatchConfig, CheckCtx, VarCheck};
use circ_core::{AbsCache, CircConfig, CircEvent, CircOutcome, FaultPlan, PredStore, Property};
use circ_governor::RetryPolicy;
use circ_ir::{dot, Cfa, EdgeId, MtProgram};
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        return usage();
    };
    if matches!(name.as_str(), "--help" | "-h" | "help") {
        print_help();
        return ExitCode::SUCCESS;
    }
    let Some(cmd) = Cmd::ALL.into_iter().find(|c| c.name() == name) else {
        eprintln!("unknown command `{name}`");
        return usage();
    };
    let parsed = match parse_flags(cmd, &args[1..]) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    match cmd {
        Cmd::Check => cmd_check(&parsed),
        Cmd::Batch => cmd_batch(&parsed),
        Cmd::Serve => cmd_serve(&parsed),
        Cmd::Client => cmd_client(&parsed),
        Cmd::Compile => cmd_compile(&parsed),
        Cmd::Baselines => cmd_baselines(&parsed),
    }
}

/// A subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmd {
    Check,
    Batch,
    Serve,
    Client,
    Compile,
    Baselines,
}

impl Cmd {
    const ALL: [Cmd; 6] =
        [Cmd::Check, Cmd::Batch, Cmd::Serve, Cmd::Client, Cmd::Compile, Cmd::Baselines];

    fn name(self) -> &'static str {
        match self {
            Cmd::Check => "check",
            Cmd::Batch => "batch",
            Cmd::Serve => "serve",
            Cmd::Client => "client",
            Cmd::Compile => "compile",
            Cmd::Baselines => "baselines",
        }
    }

    /// The operands the subcommand takes besides its flags.
    fn operands(self) -> &'static str {
        match self {
            Cmd::Check | Cmd::Compile | Cmd::Baselines => "<file.nesl>",
            Cmd::Batch => "<dir|manifest.json|file.nesl>",
            Cmd::Serve => "",
            Cmd::Client => "[paths...]",
        }
    }

    /// Whether the subcommand acts on `flag`.
    fn takes(self, flag: &str) -> bool {
        FLAGS.iter().any(|f| f.name == flag && f.cmds.contains(&self))
    }
}

/// One flag: its spelling, the value it expects (empty for a switch),
/// and the subcommands that act on it.
struct Flag {
    name: &'static str,
    value: &'static str,
    cmds: &'static [Cmd],
}

/// The subcommands that run the checker.
const ENGINE: &[Cmd] = &[Cmd::Check, Cmd::Batch, Cmd::Serve];

/// Every flag of every subcommand.
const FLAGS: &[Flag] = &[
    Flag { name: "--mode", value: "circ|omega", cmds: ENGINE },
    Flag { name: "--asserts", value: "", cmds: &[Cmd::Check] },
    Flag { name: "--k", value: "N", cmds: ENGINE },
    Flag { name: "--jobs", value: "N", cmds: ENGINE },
    Flag { name: "--print-acfa", value: "", cmds: &[Cmd::Check] },
    Flag { name: "--trace", value: "", cmds: &[Cmd::Check] },
    Flag { name: "--stats", value: "", cmds: &[Cmd::Check, Cmd::Client] },
    Flag { name: "--json", value: "", cmds: &[Cmd::Check, Cmd::Batch] },
    Flag { name: "--no-cache", value: "", cmds: ENGINE },
    Flag { name: "--row-json", value: "", cmds: &[Cmd::Check] },
    Flag { name: "--timeout-secs", value: "N", cmds: ENGINE },
    Flag { name: "--timeout-millis", value: "N", cmds: ENGINE },
    Flag { name: "--mem-limit-mb", value: "N", cmds: ENGINE },
    Flag { name: "--mem-limit-bytes", value: "N", cmds: ENGINE },
    Flag { name: "--cache-dir", value: "DIR", cmds: ENGINE },
    Flag { name: "--pred-store", value: "", cmds: ENGINE },
    Flag { name: "--no-pred-store", value: "", cmds: ENGINE },
    Flag { name: "--triage", value: "", cmds: ENGINE },
    Flag { name: "--no-triage", value: "", cmds: ENGINE },
    Flag { name: "--journal", value: "FILE", cmds: &[Cmd::Batch] },
    Flag { name: "--resume", value: "", cmds: &[Cmd::Batch] },
    Flag { name: "--isolate", value: "", cmds: &[Cmd::Batch] },
    Flag { name: "--retries", value: "N", cmds: &[Cmd::Batch, Cmd::Serve] },
    Flag { name: "--socket", value: "PATH", cmds: &[Cmd::Serve, Cmd::Client] },
    Flag { name: "--port", value: "N", cmds: &[Cmd::Serve, Cmd::Client] },
    Flag { name: "--max-inflight", value: "N", cmds: &[Cmd::Serve] },
    Flag { name: "--queue-depth", value: "N", cmds: &[Cmd::Serve] },
    Flag { name: "--health", value: "", cmds: &[Cmd::Client] },
    Flag { name: "--dot", value: "", cmds: &[Cmd::Compile] },
];

/// One usage line for `cmd`, generated from [`FLAGS`] and wrapped.
fn synopsis(cmd: Cmd) -> String {
    let mut out = format!("  circ {} {}", cmd.name(), cmd.operands()).trim_end().to_string();
    let mut width = out.len();
    for f in FLAGS.iter().filter(|f| f.cmds.contains(&cmd)) {
        let item = if f.value.is_empty() {
            format!("[{}]", f.name)
        } else {
            format!("[{} {}]", f.name, f.value)
        };
        if width + 1 + item.len() > 88 {
            out.push_str("\n       ");
            width = 7;
        } else {
            out.push(' ');
            width += 1;
        }
        out.push_str(&item);
        width += item.len();
    }
    out
}

fn print_help() {
    println!("circ — race checking by context inference (PLDI 2004 reproduction)\n\nUSAGE:");
    for cmd in Cmd::ALL {
        println!("{}", synopsis(cmd));
    }
    println!(
        "\n\
         The input file declares globals, `#race` variables, and one `thread`.\n\
         `check` proves the absence of data races for UNBOUNDEDLY many copies\n\
         of the thread, or returns a concrete racy schedule. `batch` checks a\n\
         whole corpus (a directory of .nesl files, a JSON manifest listing\n\
         paths, or one file) on a worker pool and prints one aggregate\n\
         report; its exit code is worst-wins across files.\n\n\
         `--stats` prints per-phase counters, cache hit rates, and wall-time\n\
         spans after each verdict; `--json` prints them as one JSON line\n\
         instead (implies `--stats`); `--no-cache` disables the entailment\n\
         and solver caches (same verdict, useful for timing differentials);\n\
         `--jobs N` runs on N worker threads (0 = all cores, default 1) —\n\
         pipeline phases for `check`, whole files for `batch` — with\n\
         bit-identical verdicts and statistics at any setting;\n\
         `--timeout-secs N` / `--mem-limit-mb N` bound the whole run's wall\n\
         clock / accounted memory, split evenly across files and then across\n\
         each file's race variables; on exhaustion the verdict is\n\
         INCONCLUSIVE with partial statistics and exit code 3;\n\
         `--cache-dir DIR` persists the entailment and solver caches across\n\
         runs: loaded on start (a damaged file degrades to a logged cold\n\
         start), written back on exit. `--k N` (N >= 1) sets the initial\n\
         thread-counter parameter. A flag the subcommand does not act on\n\
         is a usage error (exit 64).\n\n\
         Incremental re-checking: with `--cache-dir`, each check's discovered\n\
         predicate set and final k are persisted to a predicate store\n\
         (preds.store) keyed by a structural digest of the lowered automaton\n\
         plus a config fingerprint, and future checks of the same program are\n\
         seeded from it — skipping rediscovery while still running the full\n\
         algorithm (stale seeds degrade to ordinary refinement; verdicts are\n\
         never replayed). On by default with a cache dir; `--no-pred-store`\n\
         disables it, `--pred-store` asserts it (usage error without\n\
         `--cache-dir`). `--stats` reports `preds seeded` and\n\
         `refine rounds saved`.\n\n\
         Tiered triage: `--triage` runs two cheap stages before the engine.\n\
         Stage 0 (flow) certifies a race variable SAFE when the sound static\n\
         flow check draws zero findings for it; stage 1 (sched) certifies\n\
         RACE when a bounded, seeded random schedule reaches a race state —\n\
         the concrete trace is replay-validated before it is trusted.\n\
         Everything else falls through to full CIRC, so verdicts are\n\
         identical with or without `--triage`; only the number of engine\n\
         runs changes. Batch rows carry a `stage` attribution column\n\
         (flow/sched/circ) and the stats gain `triage_*` counters.\n\
         `--no-triage` forces every variable to stage 2 (the default).\n\n\
         Crash safety (batch): `--journal FILE` appends every completed row to\n\
         a JSONL journal keyed by a digest of the input bytes; `--resume`\n\
         replays journaled rows for unchanged inputs and re-checks the rest\n\
         (torn or stale journal lines degrade to re-checks). SIGINT/SIGTERM\n\
         shut down gracefully: in-flight files drain at their next budget\n\
         poll, the partial report and cache files are still written, and a\n\
         second signal force-kills. `--isolate` checks each file in a child\n\
         process (`circ check --row-json`) so a crash or OOM kill in one\n\
         input becomes a single internal-error row carrying the child's\n\
         stderr; `--retries N` re-runs transient internal errors up to N\n\
         extra times with deterministic, budget-bounded backoff, and files\n\
         that still fail are listed under `quarantine` in the report.\n\
         `--timeout-millis` / `--mem-limit-bytes` are fine-grained budget\n\
         variants (used by the isolation protocol to forward carved\n\
         per-file slices).\n\n\
         Service mode: `serve` keeps one process resident with warm caches\n\
         behind a line-delimited JSON protocol (one request object per line\n\
         in, one response per line out) on a unix socket or localhost TCP\n\
         port. Requests: {{\"op\":\"check\",\"source\":...|\"path\":...}},\n\
         {{\"op\":\"stats\"}}, {{\"op\":\"health\"}}. `--max-inflight` bounds\n\
         concurrent checks, `--queue-depth` bounds waiters, and anything\n\
         beyond both is shed with a structured `overloaded` response; the\n\
         `--timeout-secs` / `--mem-limit-mb` envelope is carved per admitted\n\
         request. SIGINT/SIGTERM drain gracefully (in-flight requests finish\n\
         or degrade to cancelled rows, queued ones get `shutting-down`,\n\
         caches flush, exit 3); SIGHUP flushes the caches without draining.\n\
         A stale socket file left by a crash is detected by a connect probe\n\
         and reclaimed; a live one is refused with exit 74. `client` submits\n\
         server-side paths (or `--stats` / `--health` probes) and exits\n\
         worst-wins across the responses."
    );
}

fn usage() -> ExitCode {
    print_help();
    ExitCode::from(64)
}

/// The parsed command line. Fields for flags a subcommand does not
/// take keep their defaults.
#[derive(Debug, Default)]
struct Parsed {
    /// Operands: the input file for `check`/`batch`/`compile`/
    /// `baselines`, the paths to submit for `client`.
    paths: Vec<String>,
    mode_omega: bool,
    asserts: bool,
    initial_k: u32,
    print_acfa: bool,
    trace: bool,
    dot: bool,
    stats: bool,
    stats_json: bool,
    no_cache: bool,
    jobs: usize,
    timeout_secs: Option<u64>,
    timeout_millis: Option<u64>,
    mem_limit_mb: Option<u64>,
    mem_limit_bytes: Option<u64>,
    cache_dir: Option<PathBuf>,
    /// Tri-state: `--pred-store` forces on (usage error without a
    /// cache dir), `--no-pred-store` forces off, unset follows the
    /// default (on whenever `--cache-dir` is set).
    pred_store: Option<bool>,
    /// Tri-state: `--triage` runs the cheap-stage pipeline in front
    /// of the engine, `--no-triage` forces every variable straight to
    /// stage 2 (full CIRC), unset follows the default (off).
    triage: Option<bool>,
    row_json: bool,
    journal: Option<PathBuf>,
    resume: bool,
    isolate: bool,
    retries: u32,
    socket: Option<PathBuf>,
    port: Option<u16>,
    max_inflight: usize,
    queue_depth: usize,
    health: bool,
}

impl Parsed {
    /// The effective wall-clock budget (`--timeout-secs` or its
    /// millisecond-granularity variant; the parser rejects both at
    /// once).
    fn timeout(&self) -> Option<Duration> {
        self.timeout_secs
            .map(Duration::from_secs)
            .or(self.timeout_millis.map(Duration::from_millis))
    }

    /// The effective memory ceiling in bytes.
    fn mem_limit(&self) -> Option<u64> {
        self.mem_limit_mb.map(|mb| mb * 1024 * 1024).or(self.mem_limit_bytes)
    }

    /// The retry policy: none unless `--retries N` asks for one.
    fn retry(&self) -> RetryPolicy {
        if self.retries > 0 {
            RetryPolicy::with_retries(self.retries, 0x5eed_c1bc)
        } else {
            RetryPolicy::none()
        }
    }

    /// The checker configuration `check` and `batch` run under.
    fn batch_config(&self) -> BatchConfig {
        BatchConfig {
            omega: self.mode_omega,
            initial_k: self.initial_k,
            use_cache: !self.no_cache,
            jobs: self.jobs,
            timeout: self.timeout(),
            mem_limit_bytes: self.mem_limit(),
            cache_dir: self.cache_dir.clone(),
            pred_store: self.pred_store.unwrap_or(true),
            triage: self.triage.unwrap_or(false),
            journal: self.journal.clone(),
            resume: self.resume,
            isolate: self.isolate,
            retry: self.retry(),
            ..BatchConfig::default()
        }
    }
}

/// Parses the value after `flag`.
fn value<T: FromStr>(
    it: &mut std::slice::Iter<String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    let v = it.next().ok_or(format!("{flag} expects {what}"))?;
    v.parse().map_err(|_| format!("{flag} expects {what}, got `{v}`"))
}

/// Sets one side of an on/off flag pair; naming both sides is an error.
fn either(slot: &mut Option<bool>, on: bool, pair: &str) -> Result<(), String> {
    if *slot == Some(!on) {
        return Err(format!("{pair} are contradictory"));
    }
    *slot = Some(on);
    Ok(())
}

/// The one flag parser. A flag `cmd` does not act on is a usage error,
/// and so is every conflicting combination.
fn parse_flags(cmd: Cmd, args: &[String]) -> Result<Parsed, String> {
    let mut p = Parsed {
        mode_omega: true,
        initial_k: 1,
        jobs: 1,
        max_inflight: 2,
        queue_depth: 16,
        ..Parsed::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        if !flag.starts_with('-') {
            p.paths.push(arg.clone());
            continue;
        }
        if !FLAGS.iter().any(|f| f.name == flag) {
            return Err(format!("unknown flag `{flag}`"));
        }
        if !cmd.takes(flag) {
            return Err(format!("`circ {}` does not take `{flag}`", cmd.name()));
        }
        match flag {
            "--mode" => {
                p.mode_omega = match value::<String>(&mut it, flag, "circ|omega")?.as_str() {
                    "circ" => false,
                    "omega" => true,
                    other => return Err(format!("--mode expects circ|omega, got `{other}`")),
                }
            }
            "--k" => {
                p.initial_k = value(&mut it, flag, "a number")?;
                // k counts context threads; the abstraction is only
                // defined for k >= 1 (§3.2's counter domain starts at
                // "one context thread"), so 0 is a usage error, not a
                // config we can silently run with.
                if p.initial_k == 0 {
                    return Err("--k must be at least 1 (0 context threads is not a valid counter abstraction)".into());
                }
            }
            "--jobs" => p.jobs = value(&mut it, flag, "a number")?,
            "--timeout-secs" => p.timeout_secs = Some(value(&mut it, flag, "a number")?),
            "--timeout-millis" => p.timeout_millis = Some(value(&mut it, flag, "a number")?),
            "--mem-limit-mb" => p.mem_limit_mb = Some(value(&mut it, flag, "a number")?),
            "--mem-limit-bytes" => p.mem_limit_bytes = Some(value(&mut it, flag, "a number")?),
            "--cache-dir" => p.cache_dir = Some(value(&mut it, flag, "a directory")?),
            "--journal" => p.journal = Some(value(&mut it, flag, "a file path")?),
            "--retries" => p.retries = value(&mut it, flag, "a number")?,
            "--socket" => p.socket = Some(value(&mut it, flag, "a path")?),
            "--port" => p.port = Some(value(&mut it, flag, "a number")?),
            "--max-inflight" => {
                p.max_inflight = value(&mut it, flag, "a number")?;
                if p.max_inflight == 0 {
                    return Err("--max-inflight must be at least 1".into());
                }
            }
            "--queue-depth" => p.queue_depth = value(&mut it, flag, "a number")?,
            "--pred-store" => either(&mut p.pred_store, true, "--pred-store and --no-pred-store")?,
            "--no-pred-store" => {
                either(&mut p.pred_store, false, "--pred-store and --no-pred-store")?
            }
            "--triage" => either(&mut p.triage, true, "--triage and --no-triage")?,
            "--no-triage" => either(&mut p.triage, false, "--triage and --no-triage")?,
            "--asserts" => p.asserts = true,
            "--print-acfa" => p.print_acfa = true,
            "--trace" => p.trace = true,
            "--dot" => p.dot = true,
            "--stats" => p.stats = true,
            "--json" => p.stats_json = true,
            "--no-cache" => p.no_cache = true,
            "--row-json" => p.row_json = true,
            "--resume" => p.resume = true,
            "--isolate" => p.isolate = true,
            "--health" => p.health = true,
            _ => unreachable!("every flag in FLAGS has an arm"),
        }
    }
    // `--json` selects the stats *format*; asking for a format is
    // asking for the stats.
    p.stats |= p.stats_json;
    let conflicts = [
        (
            p.cache_dir.is_some() && p.no_cache,
            "--cache-dir and --no-cache are contradictory (nothing to persist)",
        ),
        (
            p.pred_store == Some(true) && p.cache_dir.is_none(),
            "--pred-store needs --cache-dir DIR (the store lives there)",
        ),
        (
            p.triage == Some(true) && p.asserts,
            "--triage and --asserts are contradictory (the cheap stages decide the race property only)",
        ),
        (
            p.row_json && (p.asserts || p.print_acfa || p.trace || p.stats),
            "--row-json prints one race-property report row; it takes no --asserts, --print-acfa, \
             --trace, --stats or --json",
        ),
        (
            p.timeout_secs.is_some() && p.timeout_millis.is_some(),
            "--timeout-secs and --timeout-millis are two spellings of one budget — pass only one",
        ),
        (
            p.mem_limit_mb.is_some() && p.mem_limit_bytes.is_some(),
            "--mem-limit-mb and --mem-limit-bytes are two spellings of one budget — pass only one",
        ),
        (
            p.resume && p.journal.is_none(),
            "--resume needs --journal FILE (there is nothing to resume from)",
        ),
        (
            p.socket.is_some() && p.port.is_some(),
            "--socket and --port are two addresses for one listener — pass only one",
        ),
    ];
    if let Some((_, msg)) = conflicts.iter().find(|(hit, _)| *hit) {
        return Err(msg.to_string());
    }
    match cmd {
        Cmd::Serve | Cmd::Client if p.socket.is_none() && p.port.is_none() => {
            Err("pass --socket PATH or --port N".into())
        }
        Cmd::Serve if !p.paths.is_empty() => {
            Err("`serve` takes no paths (they belong to `client`)".into())
        }
        Cmd::Client if p.paths.is_empty() && !p.stats && !p.health => {
            Err("`client` needs at least one path to check, or --stats / --health".into())
        }
        Cmd::Check | Cmd::Batch | Cmd::Compile | Cmd::Baselines if p.paths.is_empty() => {
            Err("missing input file".into())
        }
        Cmd::Check | Cmd::Batch | Cmd::Compile | Cmd::Baselines if p.paths.len() > 1 => {
            Err("multiple input files".into())
        }
        _ => Ok(p),
    }
}

fn load(path: &str) -> Result<circ_frontend::Compiled, ExitCode> {
    let src = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read `{path}`: {e}");
        ExitCode::from(65)
    })?;
    circ_frontend::compile(&src).map_err(|e| {
        eprintln!("{path}: {e}");
        ExitCode::from(65)
    })
}

/// Substitutes `v<i>` placeholders with source-level variable names.
fn named(cfa: &Cfa, mut s: String) -> String {
    // longest index first so `v10` is not mangled by `v1`
    let mut ixs: Vec<usize> = (0..cfa.vars().len()).collect();
    ixs.sort_by_key(|i| std::cmp::Reverse(*i));
    for ix in ixs {
        s = s.replace(&format!("v{ix}"), &cfa.vars()[ix].name);
    }
    s
}

/// Prints a concrete schedule, one `thread  operation` line per step.
fn print_steps(cfa: &Cfa, steps: impl IntoIterator<Item = (impl Display, EdgeId)>) {
    for (i, (tid, eid)) in steps.into_iter().enumerate() {
        let op = named(cfa, format!("{}", cfa.edge(eid).op));
        println!("  {i:>3}. T{tid}  {op}");
    }
}

fn warn(warnings: &[String]) {
    for w in warnings {
        eprintln!("warning: {w}");
    }
}

fn cmd_check(p: &Parsed) -> ExitCode {
    let config = p.batch_config();
    if p.row_json {
        // Isolation-protocol child mode: check one file exactly the
        // way a batch worker would (read-only cache seeding) and emit
        // the report row as one JSON line on stdout — the supervising
        // parent parses it back.
        let (row, warnings) = circ_batch::check_single(Path::new(&p.paths[0]), &config);
        warn(&warnings);
        println!("{}", circ_batch::render_row_json(&row));
        return ExitCode::from(row.verdict.exit_code());
    }
    let compiled = match load(&p.paths[0]) {
        Ok(c) => c,
        Err(code) => return code,
    };
    if compiled.race_vars.is_empty() {
        eprintln!("{}: no `#race` directive — nothing to check", p.paths[0]);
        return ExitCode::from(65);
    }
    // With `--cache-dir`, warm-start from disk. The checked variables
    // share one cache, so the flush writes back the union of what
    // they learned.
    let io = circ_store::Store::real();
    let cache_dir = config.cache_dir.as_deref();
    if let Some(dir) = cache_dir {
        warn(&io.sweep_stale_tmps(dir).1);
    }
    let warm = circ_batch::load_warm_start(&io, cache_dir, config.pred_store);
    warn(&warm.warnings);
    let cache =
        if config.use_cache { AbsCache::with_seed(&warm.abs_seed) } else { AbsCache::disabled() };
    let faults = FaultPlan::inert();
    let ctx = CheckCtx {
        config: &config,
        file_timeout: config.timeout,
        file_mem: config.mem_limit_bytes,
        cache: &cache,
        persist: &warm.persist,
        pred_seed: warm.preds.as_ref(),
        faults: &faults,
    };
    // Assertions are a program-wide property: one run suffices.
    let vars = if p.asserts { &compiled.race_vars[..1] } else { &compiled.race_vars[..] };
    // The budget is for the whole run, split evenly across the checked
    // variables exactly as `--row-json` and `batch` split it.
    let cfg = CircConfig {
        jobs: p.jobs,
        property: if p.asserts { Property::Assertions } else { Property::Race },
        ..ctx.var_config(vars.len())
    };
    let mut learned = PredStore::new();
    // 1 (race) dominates everything; 3 (budget exhausted) dominates 2
    // (plain inconclusive); 0 only survives if every variable is safe.
    let mut worst: u8 = 0;
    for &var in vars {
        let program = MtProgram::new(compiled.cfa.clone(), var);
        let vname = compiled.cfa.var_name(var);
        let outcome = match check_var(&ctx, &program, &cfg, &mut learned) {
            VarCheck::Flow => {
                println!(
                    "{vname}: SAFE — race-free for any number of threads \
                     (triage stage 0: every access is atomic)"
                );
                continue;
            }
            VarCheck::Sched(w) => {
                println!(
                    "{vname}: RACE — {} threads, {} steps \
                     (triage stage 1: random schedule, replay validated)",
                    w.n_threads,
                    w.steps.len()
                );
                print_steps(&compiled.cfa, w.steps.iter().map(|&(tid, eid, _)| (tid.0, eid)));
                worst = 1;
                continue;
            }
            VarCheck::Circ(outcome) => *outcome,
        };
        if p.trace {
            if config.triage {
                eprintln!("[{vname}] triage: undecided, running full CIRC");
            }
            print_trace(vname, &outcome.log().events);
        }
        match &outcome {
            CircOutcome::Safe(report) => {
                let what = if p.asserts { "assertions hold" } else { "race-free" };
                println!(
                    "{vname}: SAFE — {what} for any number of threads \
                     ({} predicates, {}-location context, k = {}, {:.2?})",
                    report.preds.len(),
                    report.acfa.num_locs(),
                    report.k,
                    report.stats.elapsed
                );
                if p.print_acfa {
                    let text = report.acfa.display_with(
                        &|i| named(&compiled.cfa, format!("{}", report.preds[i.index()])),
                        &|v| compiled.cfa.var_name(v).to_string(),
                    );
                    println!("{text}");
                }
            }
            CircOutcome::Unsafe(report) => {
                println!(
                    "{vname}: RACE — {} threads, {} steps (replay validated: {})",
                    report.cex.n_threads,
                    report.cex.steps.len(),
                    report.cex.replay_ok
                );
                print_steps(
                    &compiled.cfa,
                    report.cex.steps.iter().map(|&(tid, eid, _)| (tid, eid)),
                );
                worst = 1;
            }
            CircOutcome::Unknown(report) => {
                println!("{vname}: INCONCLUSIVE — {:?}", report.reason);
                let code = if report.reason.is_budget_exhausted() { 3 } else { 2 };
                if worst != 1 {
                    worst = worst.max(code);
                }
            }
        }
        if p.stats {
            let stats = outcome.stats();
            if p.stats_json {
                println!("{}", stats.pipeline.to_json());
            } else {
                println!("{vname}: statistics ({:.2?} total)", stats.elapsed);
                print!("{}", stats.pipeline.render_table());
            }
        }
    }
    if let Some(dir) = cache_dir {
        let preds = warm.preds.map(|mut store| {
            store.absorb(learned);
            store
        });
        let outcome =
            circ_batch::flush_caches_in(&io, dir, &cache.snapshot(), &warm.persist, preds.as_ref());
        warn(&outcome.warnings);
    }
    ExitCode::from(worst)
}

/// Narrates a run's event log on stderr (`--trace`).
fn print_trace(vname: &str, events: &[CircEvent]) {
    for e in events {
        match e {
            CircEvent::OuterStart { preds, k } => {
                eprintln!("[{vname}] round: P = {{{}}}, k = {k}", preds.join(", "))
            }
            CircEvent::ReachDone { arg_locs, .. } => {
                eprintln!("[{vname}]   reach ok, ARG {arg_locs} locations")
            }
            CircEvent::SimChecked { holds } => eprintln!("[{vname}]   guarantee: {holds}"),
            CircEvent::Collapsed { size, .. } => {
                eprintln!("[{vname}]   collapsed to {size} locations")
            }
            CircEvent::AbstractRace { trace_len } => {
                eprintln!("[{vname}]   abstract race ({trace_len} steps)")
            }
            CircEvent::Refined { verdict, .. } => eprintln!("[{vname}]   refine: {verdict}"),
            CircEvent::OmegaCheck { good } => eprintln!("[{vname}]   ω-check: {good}"),
        }
    }
}

fn cmd_batch(p: &Parsed) -> ExitCode {
    let inputs = match circ_batch::collect_inputs(Path::new(&p.paths[0])) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(65);
        }
    };
    let cancel = circ_governor::CancelToken::new();
    // Graceful shutdown: first SIGINT/SIGTERM trips the batch's cancel
    // token so in-flight files drain at their next budget poll and the
    // partial report + caches still get written; the shim restores the
    // default disposition, so a second signal force-kills. Failure to
    // install (non-Unix, or a double install under test harnesses) is
    // a warning, not an error — the batch just runs without it.
    {
        let token = cancel.clone();
        if let Err(e) = sigshim::install(&[sigshim::SIGINT, sigshim::SIGTERM], move |sig| {
            eprintln!("signal {sig}: draining batch (send again to force-kill)");
            token.cancel();
        }) {
            eprintln!("warning: no graceful shutdown: {e}");
        }
    }
    let report = circ_batch::run_batch(&inputs, &BatchConfig { cancel, ..p.batch_config() });
    warn(&report.warnings);
    if p.stats_json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_table());
    }
    ExitCode::from(report.exit)
}

fn cmd_serve(p: &Parsed) -> ExitCode {
    let cancel = circ_governor::CancelToken::new();
    let flush = circ_serve::FlushTrigger::new();
    // SIGINT/SIGTERM drain the service (one-shot: a second signal
    // force-kills); SIGHUP flushes the warm caches to --cache-dir
    // without draining, and stays installed so it works repeatedly.
    {
        let token = cancel.clone();
        let latch = flush.clone();
        if let Err(e) = sigshim::install_mixed(
            &[sigshim::SIGINT, sigshim::SIGTERM],
            &[sigshim::SIGHUP],
            move |sig| {
                if sig == sigshim::SIGHUP {
                    latch.set();
                } else {
                    eprintln!("signal {sig}: draining service (send again to force-kill)");
                    token.cancel();
                }
            },
        ) {
            eprintln!("warning: no graceful shutdown: {e}");
        }
    }
    let config = circ_serve::ServeConfig {
        bind: match (&p.socket, p.port) {
            (Some(path), _) => circ_serve::BindTo::Socket(path.clone()),
            (None, port) => circ_serve::BindTo::Port(port.expect("parser requires one address")),
        },
        jobs: p.jobs,
        max_inflight: p.max_inflight,
        queue_depth: p.queue_depth,
        envelope: circ_governor::Envelope { timeout: p.timeout(), mem_limit_bytes: p.mem_limit() },
        omega: p.mode_omega,
        initial_k: p.initial_k,
        use_cache: !p.no_cache,
        pred_store: p.pred_store.unwrap_or(true),
        triage: p.triage.unwrap_or(false),
        cache_dir: p.cache_dir.clone(),
        retry: p.retry(),
        cancel,
        flush,
        ..circ_serve::ServeConfig::default()
    };
    match circ_serve::serve(config) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("circ serve: {e}");
            ExitCode::from(74)
        }
    }
}

/// A client connection over either transport.
enum ClientConn {
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
    Tcp(std::net::TcpStream),
}

impl ClientConn {
    fn connect(flags: &Parsed) -> Result<ClientConn, String> {
        match (&flags.socket, flags.port) {
            (Some(path), _) => {
                #[cfg(unix)]
                {
                    std::os::unix::net::UnixStream::connect(path)
                        .map(ClientConn::Unix)
                        .map_err(|e| format!("cannot connect to `{}`: {e}", path.display()))
                }
                #[cfg(not(unix))]
                {
                    Err(format!(
                        "unix sockets are not supported on this platform (`{}`); use --port",
                        path.display()
                    ))
                }
            }
            (None, Some(port)) => std::net::TcpStream::connect(("127.0.0.1", port))
                .map(ClientConn::Tcp)
                .map_err(|e| format!("cannot connect to 127.0.0.1:{port}: {e}")),
            (None, None) => unreachable!("parser requires one address"),
        }
    }

    fn roundtrip(&mut self, request: &str) -> Result<String, String> {
        use std::io::{BufRead, BufReader, Write};
        let (mut w, r): (Box<dyn Write>, Box<dyn std::io::Read>) = match self {
            #[cfg(unix)]
            ClientConn::Unix(s) => (
                Box::new(s.try_clone().map_err(|e| e.to_string())?),
                Box::new(s.try_clone().map_err(|e| e.to_string())?),
            ),
            ClientConn::Tcp(s) => (
                Box::new(s.try_clone().map_err(|e| e.to_string())?),
                Box::new(s.try_clone().map_err(|e| e.to_string())?),
            ),
        };
        writeln!(w, "{request}").map_err(|e| format!("cannot send request: {e}"))?;
        w.flush().map_err(|e| format!("cannot send request: {e}"))?;
        let mut line = String::new();
        BufReader::new(r).read_line(&mut line).map_err(|e| format!("cannot read response: {e}"))?;
        if line.trim().is_empty() {
            return Err("connection closed before a response arrived".into());
        }
        Ok(line.trim_end().to_string())
    }
}

fn cmd_client(flags: &Parsed) -> ExitCode {
    let mut conn = match ClientConn::connect(flags) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("circ client: {e}");
            return ExitCode::from(74);
        }
    };
    let mut requests = Vec::new();
    if flags.health {
        requests.push("{\"op\":\"health\"}".to_string());
    }
    if flags.stats {
        requests.push("{\"op\":\"stats\"}".to_string());
    }
    for path in &flags.paths {
        requests
            .push(format!("{{\"op\":\"check\",\"path\":\"{}\"}}", circ_batch::json_escape(path)));
    }
    // Worst-wins across responses, mirroring batch: check responses
    // carry the server's own worst-wins `exit`; shed requests
    // (overloaded / shutting-down) map to EX_TEMPFAIL.
    let mut worst: u8 = 0;
    for request in &requests {
        let line = match conn.roundtrip(request) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("circ client: {e}");
                return ExitCode::from(74);
            }
        };
        println!("{line}");
        use circ_batch::mjson::{self, Value};
        let code = match mjson::parse(&line) {
            Ok(v) => {
                if v.get("ok") == Some(&Value::Bool(true)) {
                    v.get("exit").and_then(Value::as_u64).unwrap_or(0) as u8
                } else {
                    match v.get("error").and_then(Value::as_str) {
                        Some("overloaded") | Some("shutting-down") => 75,
                        Some("bad-request") => 64,
                        _ => 2,
                    }
                }
            }
            Err(e) => {
                eprintln!("circ client: unparseable response: {e}");
                2
            }
        };
        // The verdict exit ranks don't apply across response kinds;
        // plain max keeps 75 (shed) above every verdict code except
        // none — shed work is retryable, so callers must see it.
        worst = worst.max(code);
    }
    ExitCode::from(worst)
}

fn cmd_compile(parsed: &Parsed) -> ExitCode {
    let compiled = match load(&parsed.paths[0]) {
        Ok(c) => c,
        Err(code) => return code,
    };
    if parsed.dot {
        print!("{}", dot::cfa_to_dot(&compiled.cfa));
    } else {
        print!("{}", dot::cfa_to_text(&compiled.cfa));
        println!(
            "race variables: {}",
            compiled
                .race_vars
                .iter()
                .map(|v| compiled.cfa.var_name(*v))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    ExitCode::SUCCESS
}

fn cmd_baselines(parsed: &Parsed) -> ExitCode {
    let compiled = match load(&parsed.paths[0]) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let flow = circ_baselines::flow_check(&compiled.cfa);
    for &var in &compiled.race_vars {
        let vname = compiled.cfa.var_name(var);
        println!(
            "flow-based:  {vname}: {}",
            if flow.flags(var) { "POTENTIAL RACE" } else { "clean" }
        );
        let program = MtProgram::new(compiled.cfa.clone(), var);
        let dynamic = circ_baselines::eraser(&program, 3, 500, 10, 7);
        println!(
            "lockset:     {vname}: {} ({} accesses monitored)",
            if dynamic.flags(var) { "POTENTIAL RACE" } else { "clean" },
            dynamic.accesses
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{parse_flags, Cmd, Parsed, FLAGS};

    fn parse(cmd: Cmd, args: &[&str]) -> Result<Parsed, String> {
        parse_flags(cmd, &args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn flags(args: &[&str]) -> Result<Parsed, String> {
        parse(Cmd::Check, args)
    }

    #[test]
    fn json_implies_stats() {
        let p = flags(&["m.nesl", "--json"]).unwrap();
        assert!(p.stats, "--json must imply --stats");
        assert!(p.stats_json);
        // --stats alone stays table-formatted.
        let p = flags(&["m.nesl", "--stats"]).unwrap();
        assert!(p.stats && !p.stats_json);
    }

    #[test]
    fn budget_flags_parse() {
        let p = flags(&["m.nesl", "--timeout-secs", "7", "--mem-limit-mb", "64"]).unwrap();
        assert_eq!(p.timeout_secs, Some(7));
        assert_eq!(p.mem_limit_mb, Some(64));
        // Unset by default.
        let p = flags(&["m.nesl"]).unwrap();
        assert_eq!(p.timeout_secs, None);
        assert_eq!(p.mem_limit_mb, None);
    }

    #[test]
    fn budget_flags_reject_garbage() {
        assert!(flags(&["m.nesl", "--timeout-secs", "soon"]).is_err());
        assert!(flags(&["m.nesl", "--mem-limit-mb"]).is_err());
    }

    #[test]
    fn k_zero_is_a_usage_error() {
        let err = flags(&["m.nesl", "--k", "0"]).unwrap_err();
        assert!(err.contains("--k must be at least 1"), "unhelpful message: {err}");
        assert!(flags(&["m.nesl", "--k", "-1"]).is_err());
        assert!(flags(&["m.nesl", "--k", "two"]).is_err());
        assert_eq!(flags(&["m.nesl", "--k", "2"]).unwrap().initial_k, 2);
        // The default stays 1 — the paper's experiments start there.
        assert_eq!(flags(&["m.nesl"]).unwrap().initial_k, 1);
    }

    #[test]
    fn fine_grained_budget_flags_parse_and_conflict_with_coarse_ones() {
        let p = flags(&["m.nesl", "--timeout-millis", "250", "--mem-limit-bytes", "4096"]).unwrap();
        assert_eq!(p.timeout(), Some(std::time::Duration::from_millis(250)));
        assert_eq!(p.mem_limit(), Some(4096));
        // The coarse spellings still resolve through the same helpers…
        let p = flags(&["m.nesl", "--timeout-secs", "2", "--mem-limit-mb", "3"]).unwrap();
        assert_eq!(p.timeout(), Some(std::time::Duration::from_secs(2)));
        assert_eq!(p.mem_limit(), Some(3 * 1024 * 1024));
        // …and mixing the two spellings of one budget is a usage error.
        assert!(flags(&["m.nesl", "--timeout-secs", "2", "--timeout-millis", "9"]).is_err());
        assert!(flags(&["m.nesl", "--mem-limit-mb", "1", "--mem-limit-bytes", "9"]).is_err());
    }

    #[test]
    fn supervision_flags_parse() {
        let batch = |args: &[&str]| parse(Cmd::Batch, args);
        let p =
            batch(&["corpus", "--journal", "j.jsonl", "--resume", "--isolate", "--retries", "2"])
                .unwrap();
        assert_eq!(p.journal.as_deref(), Some(std::path::Path::new("j.jsonl")));
        assert!(p.resume && p.isolate);
        assert_eq!(p.retries, 2);
        assert!(batch(&["corpus", "--retries", "many"]).is_err());
        assert!(batch(&["corpus", "--journal"]).is_err());
        assert!(flags(&["m.nesl", "--row-json"]).unwrap().row_json);
    }

    #[test]
    fn resume_requires_a_journal() {
        let batch = |args: &[&str]| parse(Cmd::Batch, args);
        let err = batch(&["corpus", "--resume"]).unwrap_err();
        assert!(err.contains("--journal"), "unhelpful message: {err}");
        assert!(batch(&["corpus", "--resume", "--journal", "j.jsonl"]).is_ok());
    }

    #[test]
    fn subcommands_reject_flags_they_do_not_act_on() {
        let rejects = |cmd: Cmd, args: &[&str]| {
            let err = parse(cmd, args).unwrap_err();
            assert!(err.contains("does not take"), "{args:?}: {err}");
        };
        // `batch` checks the race property and prints a report; it
        // renders no per-variable output.
        for flag in ["--asserts", "--print-acfa", "--trace", "--dot", "--row-json", "--stats"] {
            rejects(Cmd::Batch, &["corpus", flag]);
        }
        // `check` has no journal, isolation or retries.
        for args in [
            &["m.nesl", "--journal", "j"][..],
            &["m.nesl", "--resume"],
            &["m.nesl", "--isolate"],
            &["m.nesl", "--retries", "1"],
            &["m.nesl", "--dot"],
        ] {
            rejects(Cmd::Check, args);
        }
        rejects(Cmd::Serve, &["--port", "9", "--stats"]);
        rejects(Cmd::Client, &["--port", "9", "--jobs", "2", "a.nesl"]);
        rejects(Cmd::Compile, &["m.nesl", "--mode", "circ"]);
        rejects(Cmd::Baselines, &["m.nesl", "--dot"]);
        assert!(flags(&["m.nesl", "--frobnicate"]).unwrap_err().contains("unknown flag"));
        // The child mode renders one row, for the race property only.
        for flag in ["--asserts", "--print-acfa", "--trace", "--stats", "--json"] {
            assert!(flags(&["m.nesl", "--row-json", flag]).is_err(), "{flag}");
        }
    }

    #[test]
    fn isolated_child_flags_stay_accepted() {
        // The flags `circ batch --isolate` spawns `circ check` with.
        let child = |cache: &[&str]| {
            let mut args = vec!["m.nesl", "--row-json", "--mode", "circ", "--k", "2"];
            args.extend_from_slice(cache);
            args.extend(["--no-pred-store", "--triage"]);
            args.extend(["--timeout-millis", "250", "--mem-limit-bytes", "4096"]);
            flags(&args).unwrap()
        };
        let p = child(&["--cache-dir", "d"]);
        assert!(p.row_json && !p.mode_omega && p.initial_k == 2);
        assert_eq!((p.pred_store, p.triage), (Some(false), Some(true)));
        assert!(child(&["--no-cache"]).no_cache);
    }

    #[test]
    fn every_declared_flag_has_a_parser_arm() {
        for flag in FLAGS {
            for &cmd in flag.cmds {
                let value = if flag.name == "--mode" { "circ" } else { "1" };
                let mut args = vec!["m.nesl", flag.name];
                if !flag.value.is_empty() {
                    args.push(value);
                }
                // Conflict and operand errors are fine; a missing arm
                // would panic.
                let _ = parse(cmd, &args);
            }
        }
    }

    #[test]
    fn pred_store_flags_parse_and_conflict() {
        // Default: unset (resolved to "on with a cache dir" downstream).
        assert_eq!(flags(&["m.nesl"]).unwrap().pred_store, None);
        let p = flags(&["m.nesl", "--cache-dir", "d", "--pred-store"]).unwrap();
        assert_eq!(p.pred_store, Some(true));
        let p = flags(&["m.nesl", "--cache-dir", "d", "--no-pred-store"]).unwrap();
        assert_eq!(p.pred_store, Some(false));
        // Forcing the store on without a place to put it is a usage
        // error; forcing it off without a cache dir is a no-op.
        let err = flags(&["m.nesl", "--pred-store"]).unwrap_err();
        assert!(err.contains("--cache-dir"), "unhelpful message: {err}");
        assert!(flags(&["m.nesl", "--no-pred-store"]).is_ok());
        assert!(flags(&["m.nesl", "--cache-dir", "d", "--pred-store", "--no-pred-store"]).is_err());
        assert!(flags(&["m.nesl", "--cache-dir", "d", "--no-pred-store", "--pred-store"]).is_err());
    }

    #[test]
    fn triage_flags_parse_and_conflict() {
        // Default: unset (resolved to "off" downstream).
        assert_eq!(flags(&["m.nesl"]).unwrap().triage, None);
        assert_eq!(flags(&["m.nesl", "--triage"]).unwrap().triage, Some(true));
        assert_eq!(flags(&["m.nesl", "--no-triage"]).unwrap().triage, Some(false));
        assert!(flags(&["m.nesl", "--triage", "--no-triage"]).is_err());
        assert!(flags(&["m.nesl", "--no-triage", "--triage"]).is_err());
        // The cheap stages decide the race property only.
        let err = flags(&["m.nesl", "--triage", "--asserts"]).unwrap_err();
        assert!(err.contains("--asserts"), "unhelpful message: {err}");
        assert!(flags(&["m.nesl", "--no-triage", "--asserts"]).is_ok());
    }

    #[test]
    fn serve_flags_require_exactly_one_address() {
        let sflags = |args: &[&str]| parse(Cmd::Serve, args);
        assert!(sflags(&[]).unwrap_err().contains("--socket PATH or --port N"));
        assert!(parse(Cmd::Client, &["--stats"])
            .unwrap_err()
            .contains("--socket PATH or --port N"));
        assert!(sflags(&["--socket", "s", "--port", "9"]).unwrap_err().contains("only one"));
        let f = sflags(&["--socket", "/tmp/c.sock", "--max-inflight", "4", "--queue-depth", "8"])
            .unwrap();
        assert_eq!(f.socket.as_deref(), Some(std::path::Path::new("/tmp/c.sock")));
        assert_eq!((f.max_inflight, f.queue_depth), (4, 8));
        let f = parse(Cmd::Client, &["--port", "7777", "--stats", "a.nesl", "b.nesl"]).unwrap();
        assert_eq!(f.port, Some(7777));
        assert!(f.stats && !f.health);
        assert_eq!(f.paths, vec!["a.nesl", "b.nesl"]);
        assert!(parse(Cmd::Client, &["--port", "9"]).is_err(), "client needs work");
        assert!(sflags(&["--port", "9", "a.nesl"]).is_err(), "serve takes no paths");
        assert!(sflags(&["--port", "9", "--max-inflight", "0"]).is_err());
        assert!(sflags(&["--port", "9", "--cache-dir", "d", "--no-cache"]).is_err());
        assert!(sflags(&["--port", "9", "--pred-store"]).is_err());
        assert!(sflags(&["--port", "9", "--k", "0"]).is_err());
    }

    #[test]
    fn cache_dir_parses_and_conflicts_with_no_cache() {
        let p = flags(&["m.nesl", "--cache-dir", ".circ-cache"]).unwrap();
        assert_eq!(p.cache_dir.as_deref(), Some(std::path::Path::new(".circ-cache")));
        assert!(flags(&["m.nesl", "--cache-dir"]).is_err());
        assert!(flags(&["m.nesl", "--cache-dir", "d", "--no-cache"]).is_err());
    }
}
