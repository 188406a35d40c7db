//! `circ-perf`: runs one benchmark workload and prints its metrics.
//!
//! ```text
//! circ-perf --workload <ring|corpus_cold|corpus_warm|serve> --seed <n>
//!           --seconds <s> --trace <0|1>
//! circ-perf --emit-ring <n>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1`
//! the per-layer ones; the last stdout line is one JSON object. The exit
//! code is 1 when a verdict, a replay, or an exact counter is wrong, and
//! 64 on bad usage.

use circ_batch::{check_source, mjson, run_batch, BatchConfig, CheckCtx};
use circ_core::{AbsCache, FaultPlan, SolverPersist};
use circ_perf::gen::{self, Program};
use circ_perf::measure::{self, Ended};
use circ_perf::replay::{self, ReplayCounts};
use circ_perf::trace::{self, Recorder};
use circ_serve::{serve, BindTo, ServeConfig};
use circ_stats::PipelineStats;
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Where runs keep their scratch files and traces, relative to the
/// working directory (the checkout root).
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Cli {
    Run(Args),
    EmitRing(u32),
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Cli, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--emit-ring" => {
                let n = value()?.parse().map_err(|_| "--emit-ring takes a ring size")?;
                return if n > 0 {
                    Ok(Cli::EmitRing(n))
                } else {
                    Err("ring size must be > 0".into())
                };
            }
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(value()?.parse::<f64>().map_err(|_| "--seconds takes a number")?)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["ring", "corpus_cold", "corpus_warm", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Cli::Run(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.unwrap_or(false),
    }))
}

/// What one pass over a workload's fixed work produced.
#[derive(Default)]
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    /// Per-check times: a check call, a batch row, or a round trip.
    latencies_ms: Vec<f64>,
    ended: Vec<Ended>,
    /// One message per verdict that differs from its known answer.
    wrong: Vec<String>,
    pipeline: PipelineStats,
    row_time_sum_s: f64,
    store_bytes: u64,
    /// `VmHWM` right after the pass.
    peak_rss_mb: f64,
    /// The host's speed during the pass, by wall and by CPU time: see
    /// [`speeds`].
    speed: f64,
    cpu_speed: f64,
    /// Serve only: server-side `time_s` and the rest of the round trip.
    server_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
}

impl Pass {
    fn judge(&mut self, name: &str, verdict: &str, expect_safe: bool) {
        let ended = measure::ended_of_verdict(verdict);
        self.ended.push(ended);
        let want = if expect_safe { "safe" } else { "race" };
        if ended == Ended::Verdict && verdict != want {
            self.wrong.push(format!("{name}: got {verdict}, expected {want}"));
        }
    }

    /// The counters that must repeat exactly for a seed.
    fn exact(&self) -> [u64; 6] {
        let p = &self.pipeline;
        [
            p.abs.cache_misses,
            p.solver.cache_misses,
            p.solver.theory_rounds,
            p.arg_nodes,
            p.sim_edge_pairs,
            p.collapse_iterations,
        ]
    }
}

/// Runs `f` and returns its result with the wall and CPU seconds it took.
fn clocked<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let (c0, t0) = (measure::cpu_seconds(), Instant::now());
    let out = f();
    (out, t0.elapsed().as_secs_f64(), measure::cpu_seconds() - c0)
}

/// Per-layer figures a workload reports beyond its passes.
#[derive(Default)]
struct Extras {
    store_load_ms: f64,
    store_flush_ms: f64,
    serve_overloaded: f64,
    serve_abs_hit_rate: f64,
}

trait Workload {
    /// Prepares inputs (and caches or the daemon) for the timed passes.
    fn setup(&mut self) -> Result<(), String>;
    /// One pass over the fixed work.
    fn pass(&mut self, rec: &Recorder) -> Result<Pass, String>;
    /// Worker slots the pass can keep busy.
    fn slots(&self) -> usize;
    /// The programs one pass checks.
    fn programs(&self) -> Vec<Program>;
    /// Whether one untimed pass precedes the timed ones.
    fn warm_up(&self) -> bool {
        false
    }
    /// Whether per-pass counters must repeat exactly.
    fn deterministic(&self) -> bool {
        true
    }
    /// Traced store and service figures, gathered after the passes.
    fn extras(&mut self, _rec: &Recorder) -> Result<Extras, String> {
        Ok(Extras::default())
    }
    /// Stops anything setup started.
    fn teardown(&mut self) {}
}

// ---------------------------------------------------------------- ring

struct Ring {
    seed: u64,
    inputs: Vec<Program>,
}

impl Workload for Ring {
    fn setup(&mut self) -> Result<(), String> {
        self.inputs = gen::ring_sizes(self.seed)
            .into_iter()
            .map(|n| Program {
                name: format!("ring{n}.nesl"),
                source: circ_nesc::token_ring_source(n),
                expect_safe: true,
            })
            .collect();
        compile_all(&Recorder::new(false), &self.inputs).map(|_| ())
    }

    fn pass(&mut self, rec: &Recorder) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let config = BatchConfig { jobs: 1, ..BatchConfig::default() };
        let faults = FaultPlan::inert();
        let (c0, t0) = (measure::cpu_seconds(), Instant::now());
        for p in &self.inputs {
            let (cache, persist) = (AbsCache::new(), SolverPersist::inert());
            let ctx = CheckCtx {
                config: &config,
                file_timeout: None,
                file_mem: None,
                cache: &cache,
                persist: &persist,
                pred_seed: None,
                faults: &faults,
            };
            let ((row, _), wall, _) = clocked(|| {
                rec.span("batch.check_source", || check_source(&p.name, &p.source, &ctx))
            });
            pass.latencies_ms.push(wall * 1e3);
            pass.judge(&p.name, row.verdict.name(), p.expect_safe);
            pass.pipeline.add(&row.pipeline);
            pass.row_time_sum_s += row.time_s;
        }
        pass.wall_s = t0.elapsed().as_secs_f64();
        pass.cpu_s = measure::cpu_seconds() - c0;
        Ok(pass)
    }

    fn slots(&self) -> usize {
        1
    }

    fn programs(&self) -> Vec<Program> {
        self.inputs.clone()
    }
}

// -------------------------------------------------------------- corpus

struct Corpus {
    seed: u64,
    warm: bool,
    dir: PathBuf,
    programs: Vec<Program>,
    paths: Vec<PathBuf>,
    passes: u64,
}

const CORPUS_JOBS: usize = 2;

impl Corpus {
    fn cache_dir(&self) -> PathBuf {
        self.dir.join("cache")
    }

    /// The warm workload's cache directory as setup's cold run left it.
    fn filled_dir(&self) -> PathBuf {
        self.dir.join("filled")
    }

    fn config(&self, cache_dir: PathBuf) -> BatchConfig {
        BatchConfig { jobs: CORPUS_JOBS, cache_dir: Some(cache_dir), ..BatchConfig::default() }
    }

    /// Empties `dst` and, when `src` is given, copies its files in.
    fn reset_dir(dst: &Path, src: Option<&Path>) -> Result<(), String> {
        let _ = fs::remove_dir_all(dst);
        fs::create_dir_all(dst).map_err(|e| format!("{}: {e}", dst.display()))?;
        if let Some(src) = src {
            for entry in fs::read_dir(src).map_err(|e| e.to_string())? {
                let entry = entry.map_err(|e| e.to_string())?;
                fs::copy(entry.path(), dst.join(entry.file_name())).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|rd| rd.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

impl Workload for Corpus {
    fn setup(&mut self) -> Result<(), String> {
        self.programs = gen::pool();
        let src_dir = self.dir.join("corpus");
        Corpus::reset_dir(&src_dir, None)?;
        self.paths = self.programs.iter().map(|p| src_dir.join(&p.name)).collect();
        compile_all(&Recorder::new(false), &self.programs)?;
        for (p, path) in self.programs.iter().zip(&self.paths) {
            fs::write(path, &p.source).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        if self.warm {
            let filled = self.filled_dir();
            Corpus::reset_dir(&filled, None)?;
            let report = run_batch(&self.paths, &self.config(filled));
            if report.rows.len() != self.programs.len() {
                return Err("warm-up run lost rows".into());
            }
        }
        Ok(())
    }

    fn warm_up(&self) -> bool {
        true
    }

    fn pass(&mut self, rec: &Recorder) -> Result<Pass, String> {
        let filled = self.filled_dir();
        Corpus::reset_dir(&self.cache_dir(), self.warm.then_some(filled.as_path()))?;
        let config = self.config(self.cache_dir());
        let order = gen::order(self.seed, self.passes, self.paths.len());
        self.passes += 1;
        let paths: Vec<PathBuf> = order.iter().map(|&i| self.paths[i].clone()).collect();
        let (report, wall, cpu) =
            clocked(|| rec.span("batch.run_batch", || run_batch(&paths, &config)));
        let mut pass = Pass { wall_s: wall, cpu_s: cpu, ..Pass::default() };
        if report.rows.len() != paths.len() {
            return Err(format!("{} rows for {} files", report.rows.len(), paths.len()));
        }
        for (row, p) in report.rows.iter().zip(order.iter().map(|&i| &self.programs[i])) {
            pass.latencies_ms.push(row.time_s * 1e3);
            pass.judge(&p.name, row.verdict.name(), p.expect_safe);
            pass.row_time_sum_s += row.time_s;
        }
        pass.pipeline = report.totals.pipeline.clone();
        pass.store_bytes = dir_bytes(&self.cache_dir());
        Ok(pass)
    }

    fn slots(&self) -> usize {
        CORPUS_JOBS
    }

    fn programs(&self) -> Vec<Program> {
        self.programs.clone()
    }

    fn extras(&mut self, rec: &Recorder) -> Result<Extras, String> {
        // The last pass left its flushed cache dir behind: load it the
        // way a run does, then flush what was loaded the way this
        // workload's runs do (into an empty dir cold, merged warm).
        let io = circ_store::Store::real();
        let dir = self.cache_dir();
        let (loaded, load_s, _) =
            clocked(|| rec.span("store.load_caches_in", || circ_batch::load_caches_in(&io, &dir)));
        let preds =
            circ_core::pred_store::load_pred_store_in(&io, &dir.join(circ_batch::PRED_STORE_FILE))
                .map_err(|e| format!("pred store: {e:?}"))?
                .unwrap_or_default();
        let target = self.dir.join("flush");
        let filled = self.filled_dir();
        Corpus::reset_dir(&target, self.warm.then_some(filled.as_path()))?;
        let persist = SolverPersist::with_seed(loaded.solver_seed);
        let (out, flush_s, _) = clocked(|| {
            rec.span("store.flush_caches_in", || {
                circ_batch::flush_caches_in(&io, &target, &loaded.abs_seed, &persist, Some(&preds))
            })
        });
        if out.flush_errors > 0 {
            return Err(format!("flush failed: {:?}", out.warnings));
        }
        Ok(Extras {
            store_load_ms: load_s * 1e3,
            store_flush_ms: flush_s * 1e3,
            ..Extras::default()
        })
    }
}

// --------------------------------------------------------------- serve

struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(path: &Path) -> std::io::Result<Client> {
        let writer = UnixStream::connect(path)?;
        Ok(Client { reader: BufReader::new(writer.try_clone()?), writer })
    }

    fn call(&mut self, line: &str) -> Result<mjson::Value, String> {
        self.writer.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
        let mut resp = String::new();
        self.reader.read_line(&mut resp).map_err(|e| e.to_string())?;
        mjson::parse(resp.trim()).map_err(|e| format!("bad response `{}`: {e}", resp.trim()))
    }
}

/// A daemon running on a thread of this process.
struct Daemon {
    cancel: circ_core::CancelToken,
    thread: std::thread::JoinHandle<Result<u8, circ_serve::ServeError>>,
}

impl Daemon {
    fn stop(self) -> Result<(), String> {
        self.cancel.cancel();
        match self.thread.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("serve failed: {e:?}")),
            Err(_) => Err("serve thread panicked".into()),
        }
    }
}

struct Serve {
    seed: u64,
    socket: PathBuf,
    pool: Vec<Program>,
    stream: Vec<usize>,
    next_round: usize,
    daemon: Option<Daemon>,
    clients: Vec<Client>,
}

/// Request rounds generated per run; far more than a run can send.
const SERVE_ROUNDS: usize = 2000;
const SERVE_CLIENTS: usize = 2;

impl Serve {
    fn start(&self) -> Result<(Daemon, Vec<Client>), String> {
        let config =
            ServeConfig { bind: BindTo::Socket(self.socket.clone()), ..Default::default() };
        let cancel = config.cancel.clone();
        let thread = std::thread::spawn(move || serve(config));
        let daemon = Daemon { cancel, thread };
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut probe = loop {
            match Client::connect(&self.socket) {
                Ok(c) => break c,
                Err(_) if Instant::now() < deadline && !daemon.thread.is_finished() => {
                    std::thread::sleep(Duration::from_micros(200))
                }
                Err(e) => {
                    let _ = daemon.stop();
                    return Err(format!("daemon did not come up: {e}"));
                }
            }
        };
        let health = probe.call("{\"op\":\"health\"}\n")?;
        if health.get("ok") != Some(&mjson::Value::Bool(true)) {
            return Err("daemon failed its health probe".into());
        }
        let mut clients = vec![probe];
        while clients.len() < SERVE_CLIENTS {
            clients.push(Client::connect(&self.socket).map_err(|e| e.to_string())?);
        }
        Ok((daemon, clients))
    }
}

/// One request's outcome as the client saw it.
struct Sent {
    ix: usize,
    round_trip_ms: f64,
    response: Result<mjson::Value, String>,
}

impl Workload for Serve {
    fn setup(&mut self) -> Result<(), String> {
        self.teardown();
        self.pool = gen::pool();
        self.stream = gen::request_stream(self.seed, SERVE_ROUNDS);
        compile_all(&Recorder::new(false), &self.pool)?;
        self.next_round = 0;
        let (daemon, clients) = self.start()?;
        self.daemon = Some(daemon);
        self.clients = clients;
        Ok(())
    }

    fn pass(&mut self, rec: &Recorder) -> Result<Pass, String> {
        let n = self.pool.len();
        let start = self.next_round * n;
        let round = self.stream.get(start..start + n).ok_or("request stream exhausted")?;
        self.next_round += 1;
        let next = AtomicUsize::new(0);
        let (pool, next) = (&self.pool, &next);
        let client_loop = |client: &mut Client| -> Vec<Sent> {
            let mut sent = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&ix) = round.get(i) else { return sent };
                let line = gen::request_line(start + i, &pool[ix]);
                let t = Instant::now();
                let response = rec.span("serve.request", || client.call(&line));
                sent.push(Sent { ix, round_trip_ms: t.elapsed().as_secs_f64() * 1e3, response });
            }
        };
        let (mine, theirs) = self.clients.split_at_mut(1);
        let (results, wall, cpu) = clocked(|| {
            std::thread::scope(|s| {
                let other = s.spawn(|| client_loop(&mut theirs[0]));
                let mut all = client_loop(&mut mine[0]);
                all.extend(other.join().expect("client thread panicked"));
                all
            })
        });
        let mut pass = Pass { wall_s: wall, cpu_s: cpu, ..Pass::default() };
        for sent in results {
            let p = &pool[sent.ix];
            pass.latencies_ms.push(sent.round_trip_ms);
            let v = match sent.response {
                Ok(v) => v,
                Err(e) => return Err(format!("{}: {e}", p.name)),
            };
            if v.get("ok") != Some(&mjson::Value::Bool(true)) {
                let kind = v.get("error").and_then(mjson::Value::as_str).unwrap_or("");
                let shed = matches!(kind, "overloaded" | "shutting-down");
                pass.ended.push(if shed { Ended::Shed } else { Ended::Errored });
                continue;
            }
            let server_s = v.get("time_s").and_then(mjson::Value::as_f64).unwrap_or(0.0);
            pass.server_ms.push(server_s * 1e3);
            pass.queue_wait_ms.push(sent.round_trip_ms - server_s * 1e3);
            pass.row_time_sum_s += server_s;
            match v.get("rows") {
                Some(mjson::Value::Arr(rows)) if rows.len() == 1 => {
                    let verdict = rows[0].get("verdict").and_then(mjson::Value::as_str);
                    pass.judge(&p.name, verdict.unwrap_or("?"), p.expect_safe);
                    if let Some(pj) = rows[0].get("pipeline") {
                        pass.pipeline.add(&circ_batch::journal::pipeline_from_json(pj)?);
                    }
                }
                _ => pass.ended.push(Ended::Errored),
            }
        }
        Ok(pass)
    }

    fn slots(&self) -> usize {
        ServeConfig::default().max_inflight
    }

    fn programs(&self) -> Vec<Program> {
        self.pool.clone()
    }

    fn deterministic(&self) -> bool {
        false
    }

    fn extras(&mut self, _rec: &Recorder) -> Result<Extras, String> {
        let v = self.clients[0].call("{\"op\":\"stats\"}\n")?;
        let service = v.get("stats").and_then(|s| s.get("service")).ok_or("stats: no service")?;
        let num = |v: Option<&mjson::Value>| v.and_then(mjson::Value::as_f64).unwrap_or(0.0);
        let hit_rate = service.get("totals").and_then(|t| t.get("pipeline"));
        Ok(Extras {
            serve_overloaded: num(service.get("overloaded")),
            serve_abs_hit_rate: num(hit_rate.and_then(|p| p.get("abs_hit_rate"))),
            ..Extras::default()
        })
    }

    fn teardown(&mut self) {
        self.clients.clear();
        if let Some(d) = self.daemon.take() {
            if let Err(e) = d.stop() {
                eprintln!("circ-perf: {e}");
            }
        }
    }
}

// -------------------------------------------------------------- runner

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

/// About what [`measure::reference`] takes, in wall and in CPU seconds
/// per thread, on the 2-core machine the bounds were set on. The
/// end-to-end timings but `setup_s` are given at this speed: each pass's
/// times are scaled by this over the reference times measured around it,
/// with as many threads as the workload keeps busy. The shared host's
/// speed swings by up to half for minutes at a time, and the scaling
/// takes that swing out of the figures.
const REFERENCE_NOMINAL_S: f64 = 0.02;

/// The host's speed between two reference runs, by wall time (scales
/// wall times) and by CPU time (scales CPU times): [`REFERENCE_NOMINAL_S`]
/// over the mean of the two runs' times.
fn speeds(before: measure::Reference, after: measure::Reference) -> (f64, f64) {
    let speed = |a: f64, b: f64| 2.0 * REFERENCE_NOMINAL_S / (a + b);
    (speed(before.wall_s, after.wall_s), speed(before.cpu_s, after.cpu_s))
}

fn timed_passes(w: &mut dyn Workload, rec: &Recorder, seconds: f64) -> Result<Vec<Pass>, String> {
    if w.warm_up() {
        w.pass(&Recorder::new(false))?;
    }
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut before = measure::reference(w.slots());
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut pass = w.pass(rec)?;
        pass.peak_rss_mb = measure::peak_rss_mb();
        let after = measure::reference(w.slots());
        (pass.speed, pass.cpu_speed) = speeds(before, after);
        before = after;
        passes.push(pass);
    }
    Ok(passes)
}

/// A traced run reads `peak_rss_mb` after this many of its untraced
/// passes (or the last), so that it measures a fixed amount of work: the
/// daemon's memory grows with every request served, and a slower host
/// would serve fewer.
const RSS_AFTER_PASSES: usize = 8;

fn peak_rss_mb(passes: &[Pass]) -> f64 {
    passes[RSS_AFTER_PASSES.min(passes.len()) - 1].peak_rss_mb
}

fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    measure::median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Verdict, replay, and exact-counter failures of a set of passes.
fn problems(w: &dyn Workload, passes: &[Pass]) -> Vec<String> {
    let mut out: Vec<String> = passes.iter().flat_map(|p| p.wrong.iter().cloned()).collect();
    if w.deterministic() {
        if let Some(first) = passes.first() {
            for (i, p) in passes.iter().enumerate().skip(1) {
                if p.exact() != first.exact() {
                    out.push(format!(
                        "pass {i}: exact counters {:?} != {:?}",
                        p.exact(),
                        first.exact()
                    ));
                }
            }
        }
    }
    out
}

/// Times of compiling the workload's programs; `frontend.compile_ms`
/// is the median of this many.
const COMPILE_REPS: usize = 5;

/// Compiles every program once, each in a span; returns the total ms.
/// Setup uses it (untraced) to validate the generated inputs.
fn compile_all(rec: &Recorder, programs: &[Program]) -> Result<f64, String> {
    let mut total = 0.0;
    for p in programs {
        let (compiled, wall, _) =
            clocked(|| rec.span("frontend.compile", || circ_frontend::compile(&p.source)));
        let compiled = compiled.map_err(|e| format!("{}: {e}", p.name))?;
        if compiled.race_vars.is_empty() {
            return Err(format!("{}: no #race variable", p.name));
        }
        total += wall * 1e3;
    }
    Ok(total)
}

/// Replays every Safe check of one pass; returns the summed counts.
fn replay_pass(rec: &Recorder, programs: &[Program]) -> Result<ReplayCounts, String> {
    let mut total = ReplayCounts::default();
    for p in programs.iter().filter(|p| p.expect_safe) {
        let counts =
            replay::replay_source(rec, &p.source).map_err(|e| format!("{}: {e}", p.name))?;
        total.add(&counts);
    }
    Ok(total)
}

fn make(args: &Args, scratch: &Path) -> Box<dyn Workload> {
    let seed = args.seed;
    match args.workload.as_str() {
        "ring" => Box::new(Ring { seed, inputs: Vec::new() }),
        "serve" => Box::new(Serve {
            seed,
            socket: scratch.join("serve.sock"),
            pool: Vec::new(),
            stream: Vec::new(),
            next_round: 0,
            daemon: None,
            clients: Vec::new(),
        }),
        w => Box::new(Corpus {
            seed,
            warm: w == "corpus_warm",
            dir: scratch.to_path_buf(),
            programs: Vec::new(),
            paths: Vec::new(),
            passes: 0,
        }),
    }
}

/// Set-up repeats at least this often and for at least this long;
/// `setup_s` is the median. Short set-ups repeat many times, so that the
/// median spans the host's speed swings; over 1 s, the median of
/// `corpus_cold`'s 2 ms set-up still moved by half from run to run.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_TIME: Duration = Duration::from_secs(3);

fn run(args: &Args, w: &mut dyn Workload) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let start = Instant::now();
    while setups.len() < SETUP_MIN_REPS || start.elapsed() < SETUP_MIN_TIME {
        // Stopping the previous repetition's daemon is not set-up.
        w.teardown();
        let (done, wall, _) = clocked(|| w.setup());
        done?;
        setups.push(wall);
    }
    let off = Recorder::new(false);
    if !args.trace {
        let passes = timed_passes(w, &off, args.seconds)?;
        return Ok(end_to_end(w, &passes, measure::median(&setups)));
    }
    // Traced run: untraced passes for the overhead baseline, traced
    // passes, then the replays and store/service probes.
    let half = args.seconds / 2.0;
    let plain = timed_passes(w, &off, half)?;
    let rec = Recorder::new(true);
    let traced = timed_passes(w, &rec, half)?;
    let programs = w.programs();
    let compile_ms = measure::median(
        &(0..COMPILE_REPS).map(|_| compile_all(&rec, &programs)).collect::<Result<Vec<_>, _>>()?,
    );
    let counts = replay_pass(&rec, &programs)?;
    let again = replay_pass(&off, &programs)?;
    let extras = w.extras(&rec)?;
    let spans = rec.spans();
    let path = trace_path(args);
    fs::write(&path, trace::chrome_json(&spans)).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = per_layer(w, &plain, &traced, &spans, &counts, &extras, compile_ms);
    if counts != again {
        out.correct = false;
        out.notes.push(format!("replay counters differ between runs: {counts:?} vs {again:?}"));
    }
    out.notes.push(format!("trace written to {}", path.display()));
    Ok(out)
}

fn trace_path(args: &Args) -> PathBuf {
    Path::new(OUT_DIR).join(format!("trace-{}-seed{}.json", args.workload, args.seed))
}

/// Checks attempted, checks failed, and `fail_frac`.
fn failures(passes: &[Pass]) -> (usize, usize, f64) {
    let ended: Vec<Ended> = passes.iter().flat_map(|p| p.ended.iter().copied()).collect();
    let failed = ended.iter().filter(|e| **e != Ended::Verdict).count();
    (ended.len(), failed, measure::fail_frac(&ended))
}

/// Every pass's latencies, scaled to the reference speed.
fn latencies(passes: &[Pass]) -> Vec<f64> {
    passes.iter().flat_map(|p| p.latencies_ms.iter().map(|l| l * p.speed)).collect()
}

fn end_to_end(w: &dyn Workload, passes: &[Pass], setup_s: f64) -> Outcome {
    let wall_s = median_of(passes, |p| p.wall_s * p.speed);
    let cpu_s = median_of(passes, |p| p.cpu_s * p.cpu_speed);
    let lat = latencies(passes);
    let tail = match measure::tail_percentile(lat.len(), 0.9) {
        Some(p) if p < 0.9 => {
            format!("fewer than 10 beyond it; the highest percentile with 10 is p{:.1}", p * 100.0)
        }
        Some(_) => "at least 10 samples lie beyond it".to_string(),
        None => "fewer than 10 beyond it, and no percentile above the median has 10".to_string(),
    };
    let (attempted, failed, fail_frac) = failures(passes);
    let notes = problems(w, passes);
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    Outcome {
        correct: notes.is_empty(),
        attempted,
        failed,
        metrics: vec![
            Metric { name: "wall_s", value: wall_s, unit: "s" },
            Metric { name: "cpu_s", value: cpu_s, unit: "s" },
            Metric { name: "latency_p50_ms", value: measure::median(&lat), unit: "ms" },
            Metric { name: "latency_p90_ms", value: measure::percentile(&lat, 0.9), unit: "ms" },
            Metric { name: "ok_frac", value: 1.0 - fail_frac, unit: "ratio" },
            Metric { name: "setup_s", value: setup_s, unit: "s" },
        ],
        notes: [
            format!(
                "{} passes on {threads} cores at a median host speed of {:.3} (wall) and {:.3} \
                 (CPU); unscaled pass wall_s median {:.4} min {:.4} max {:.4}",
                passes.len(),
                median_of(passes, |p| p.speed),
                median_of(passes, |p| p.cpu_speed),
                median_of(passes, |p| p.wall_s),
                passes.iter().map(|p| p.wall_s).fold(f64::INFINITY, f64::min),
                passes.iter().map(|p| p.wall_s).fold(0.0, f64::max),
            ),
            format!("latency over {} samples; latency_p90_ms: {tail}", lat.len()),
        ]
        .into_iter()
        .chain(notes)
        .collect(),
    }
}

fn per_layer(
    w: &dyn Workload,
    plain: &[Pass],
    traced: &[Pass],
    spans: &[trace::Span],
    counts: &ReplayCounts,
    extras: &Extras,
    compile_ms: f64,
) -> Outcome {
    let totals = trace::totals(spans);
    let ms = |name: &str| totals.get(name).map_or(0.0, |t| t.0 / 1e3);
    let self_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.1 / 1e3);
    // Counters come from the first traced pass (serve: a warm one).
    let pass = if w.deterministic() { &traced[0] } else { traced.last().expect("a pass") };
    let p = &pass.pipeline;
    let s = |d: Duration| d.as_secs_f64();
    let scaled_wall = |passes: &[Pass]| median_of(passes, |p| p.wall_s * p.speed);
    let (attempted, failed, fail_frac) = failures(traced);
    let lat = latencies(traced);
    let mut notes = problems(w, plain);
    notes.extend(problems(w, traced));
    if w.deterministic() && plain[0].exact() != traced[0].exact() {
        notes.push("exact counters differ between untraced and traced passes".into());
    }
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let c = |name: &'static str, value: u64| Metric { name, value: value as f64, unit: "count" };
    let metrics = vec![
        m("frontend.compile_ms", compile_ms, "ms"),
        m("core.reach.time_s", s(p.phases.reach), "s"),
        c("core.reach.runs", p.reach_runs),
        c("core.reach.arg_nodes", p.arg_nodes),
        m("trace.core.reach_and_build_ms", ms("core.reach_and_build"), "ms"),
        c("core.abs.queries", p.abs.queries),
        c("core.abs.misses", p.abs.cache_misses),
        m("core.abs.hit_rate", p.abs.hit_rate(), "ratio"),
        m("core.refine.time_s", s(p.phases.refine), "s"),
        c("core.refine.rounds", p.refine_rounds),
        c("core.outer_rounds", p.outer_rounds),
        c("core.k_increments", p.k_increments),
        c("core.pred_store.preds_seeded", p.preds_seeded),
        c("core.pred_store.rounds_saved", p.refine_rounds_saved),
        c("smt.queries", p.solver.queries),
        c("smt.misses", p.solver.cache_misses),
        c("smt.theory_rounds", p.solver.theory_rounds),
        m("smt.hit_rate", p.solver.hit_rate(), "ratio"),
        m("acfa.sim.time_s", s(p.phases.sim), "s"),
        c("acfa.sim.checks", p.sim_checks),
        c("acfa.sim.edge_pairs", p.sim_edge_pairs),
        m("trace.acfa.check_sim_ms", ms("acfa.check_sim"), "ms"),
        c("trace.core.region_contained_calls", counts.region_contained_calls),
        m("trace.core.region_contained_ms", ms("core.region_contained"), "ms"),
        m("trace.acfa.check_sim_self_ms", self_ms("acfa.check_sim"), "ms"),
        m("acfa.collapse.time_s", s(p.phases.collapse), "s"),
        c("acfa.collapse.runs", p.collapse_runs),
        c("acfa.collapse.iterations", p.collapse_iterations),
        m("trace.acfa.collapse_ms", ms("acfa.collapse"), "ms"),
        m("acfa.omega.time_s", s(p.phases.omega), "s"),
        m("trace.acfa.context_reach_ms", ms("acfa.context_reach"), "ms"),
        c("trace.acfa.context_reach_configs", counts.context_reach_configs),
        m("batch.row_time_sum_s", pass.row_time_sum_s, "s"),
        m("par.busy_frac", pass.row_time_sum_s / (pass.wall_s * w.slots() as f64), "ratio"),
        m("trace.store.load_ms", extras.store_load_ms, "ms"),
        m("trace.store.flush_ms", extras.store_flush_ms, "ms"),
        m("store.bytes", pass.store_bytes as f64, "bytes"),
        c("store.recoveries", p.store_recoveries),
        c("store.flush_errors", p.flush_errors),
        m("serve.server_ms", measure::median(&pass.server_ms), "ms"),
        m("serve.queue_wait_ms", measure::median(&pass.queue_wait_ms), "ms"),
        m("serve.overloaded", extras.serve_overloaded, "count"),
        m("serve.abs_hit_rate", extras.serve_abs_hit_rate, "ratio"),
        m("trace.overhead_frac", scaled_wall(traced) / scaled_wall(plain) - 1.0, "ratio"),
        m("peak_rss_mb", peak_rss_mb(plain), "MB"),
        m("fail_frac", fail_frac, "ratio"),
        c("trace.replays", counts.replays),
        c("latency.samples", lat.len() as u64),
        m("latency.tail_p", measure::tail_percentile(lat.len(), 0.9).unwrap_or(0.0), "ratio"),
    ];
    Outcome { correct: notes.is_empty(), attempted, failed, metrics, notes }
}

fn print(out: &Outcome) {
    for n in &out.notes {
        println!("# {n}");
    }
    let mut json = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        println!("{:<36} {:>16} {}", m.name, format!("{:.6}", m.value), m.unit);
        let sep = if i == 0 { "" } else { ", " };
        json.push_str(&format!(
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.correct, out.attempted, out.failed
    );
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Cli::EmitRing(n)) => {
            print!("{}", circ_nesc::token_ring_source(n));
            return ExitCode::SUCCESS;
        }
        Ok(Cli::Run(args)) => args,
        Err(e) => {
            eprintln!("circ-perf: {e}");
            return ExitCode::from(64);
        }
    };
    let scratch = Path::new(OUT_DIR).join(format!("tmp-{}", std::process::id()));
    if let Err(e) = fs::create_dir_all(&scratch) {
        eprintln!("circ-perf: {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let mut w = make(&args, &scratch);
    let result = run(&args, w.as_mut());
    w.teardown();
    let _ = fs::remove_dir_all(&scratch);
    match result {
        Ok(out) => {
            print(&out);
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("circ-perf: {e}");
            ExitCode::FAILURE
        }
    }
}
