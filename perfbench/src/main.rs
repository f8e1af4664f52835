//! End-to-end benchmark of `drdesync`.
//!
//! ```text
//! python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! One run measures one workload (`paper_cores` or `region_mesh`) in its
//! own process, through the same public calls the CLI `desync` /
//! `simulate` arms and `drd_serve` make:
//!
//! 1. set-up: `vlib90` library build + `Desynchronizer::new`, repeated;
//! 2. `desync` jobs: parse the Verilog text, nine passes, `into_result`,
//!    write the Verilog and render the report;
//! 3. `simulate` jobs: the flow, `handshake_spec`, `elaborate`, nominal
//!    cycle times and a Monte-Carlo campaign;
//! 4. serve: closed-loop `Server::handle_line`, then an open-loop rate
//!    ladder through `serve_stream` (see `serve.rs`).
//!
//! Every workload runs all four, on one schedule (serve before desync and
//! simulate); the workloads differ in the designs of the desync phase.
//! Outputs are checked off the clock (goldens, recorded digests, repeat
//! identity, the liveness, co-simulation and handshake-timing oracles,
//! cold/warm serve bytes). The last stdout line is one JSON object:
//! end-to-end metrics with `--trace 0`, per-layer metrics (from spans
//! around each call) with `--trace 1`. Failed checks make `correct`
//! false and the exit code 1.

mod flow;
mod host;
mod inputs;
mod serve;
mod stats;
mod trace;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use drd_check::Rng;
use drd_core::{DesyncResult, Desynchronizer};
use drd_liberty::{vlib90, Library};
use drd_netlist::hash::content_hash128;

use inputs::{Design, Inputs, CHIPS, LADDER, LIMIT_MS, PHASE_SHARES, STEPS};
use stats::{geomean, median, quantile};
use trace::Tracer;

/// Set-up repetitions per batch. A batch runs before the first job, then
/// between jobs at most every `SETUP_EVERY` through the closed-loop
/// serve, desync and simulate phases, and once more at the end, so
/// `setup_s` (the median of all repetitions) samples the whole run rather
/// than one instant of a shared host.
const SETUP_BATCH: usize = 8;
const SETUP_EVERY: Duration = Duration::from_millis(250);
/// Host-speed probe calls after each set-up batch (`host.rs`).
const PROBES_PER_BATCH: usize = 2;
/// Flow and Monte-Carlo workers (`DRD_WORKERS`) of every job, the CLI's
/// and the server's alike.
const FLOW_WORKERS: &str = "1";
/// `verify_result` co-simulation cap: larger designs are left to the
/// cheaper oracles.
const COSIM_MAX_CELLS: usize = 6000;
/// Windows of the open-loop base step that each serve percentile is
/// taken over before the median across them is reported.
const WINDOWS: usize = 9;

/// Digests of every flow's artifacts, recorded at the commit that added
/// the benchmark: `workload key digest`, key `*` for seed-independent
/// inputs, else the seed.
const RECORDED_DIGESTS: &str = include_str!("../digests.txt");

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = value("--workload")?;
    let workload = inputs::WORKLOADS
        .into_iter()
        .find(|w| *w == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed expects an integer")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, found `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One measured metric, printed by name with its unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn put(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        });
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    Desync,
    Sim,
}

/// One timed flow job.
struct JobSample {
    phase: Phase,
    design: usize,
    job: u32,
    traced: bool,
    wall_ns: f64,
    counts: flow::Counts,
}

/// One prepared tool per distinct library of the workload's designs.
struct Tools<'a>(Vec<(&'a Library, Desynchronizer<'a>)>);

impl<'a> Tools<'a> {
    fn new(libs: &[&'a Library]) -> Result<Self, String> {
        libs.iter()
            .map(|&lib| Ok((lib, Desynchronizer::new(lib).map_err(|e| e.to_string())?)))
            .collect::<Result<_, String>>()
            .map(Tools)
    }

    /// The library and tool a design is run with: the tool built for the
    /// design's own library.
    fn of(&self, d: &Design) -> (&'a Library, &Desynchronizer<'a>) {
        let (lib, tool) = self
            .0
            .iter()
            .find(|(lib, _)| lib.name() == d.lib.name())
            .expect("a tool is built for every design's library");
        (*lib, tool)
    }
}

/// The set-up repetitions of one run: library build + `Desynchronizer::new`
/// for every library the workload uses, in batches spread over the run.
struct Setup<'a> {
    libs: Vec<&'a Library>,
    /// Start and end of every repetition.
    reps: Vec<(Instant, Instant)>,
    /// Duration (ns) of every host-speed probe call (`host.rs`).
    probe: Vec<f64>,
    last: Instant,
    error: Option<String>,
}

impl<'a> Setup<'a> {
    fn new(libs: Vec<&'a Library>) -> Self {
        let mut s = Setup {
            libs,
            reps: Vec::new(),
            probe: Vec::new(),
            last: Instant::now(),
            error: None,
        };
        s.batch();
        s
    }

    /// One batch. `vlib90`'s constructors parse once per process and clone
    /// the parsed library from then on, so cloning the design's library is
    /// the library build a warm CLI process pays.
    fn batch(&mut self) {
        for _ in 0..SETUP_BATCH {
            let t0 = Instant::now();
            for lib in &self.libs {
                let lib = (*lib).clone();
                match Desynchronizer::new(&lib) {
                    Ok(tool) => {
                        std::hint::black_box(&tool);
                    }
                    Err(e) => self.error = Some(format!("set-up: {e}")),
                }
            }
            self.reps.push((t0, Instant::now()));
        }
        for _ in 0..PROBES_PER_BATCH {
            let t0 = Instant::now();
            std::hint::black_box(host::probe());
            self.probe.push(t0.elapsed().as_nanos() as f64);
        }
        self.last = Instant::now();
    }

    /// A batch, if the last one is `SETUP_EVERY` old.
    fn tick(&mut self) {
        if self.last.elapsed() >= SETUP_EVERY {
            self.batch();
        }
    }

    /// The host-speed factor of the run: the reference probe time over
    /// the median probe time. A time measured in the run times this
    /// factor is the time at the reference speed.
    fn speed(&self) -> f64 {
        host::REFERENCE_NS / median(&self.probe)
    }

    fn median_ns(&self) -> f64 {
        let ns: Vec<f64> = self
            .reps
            .iter()
            .map(|(a, b)| (*b - *a).as_nanos() as f64)
            .collect();
        median(&ns)
    }
}

/// Run-wide bookkeeping: jobs attempted, failures, kept first results.
struct Ledger {
    attempted: usize,
    failures: Vec<String>,
    next_job: u32,
    samples: Vec<JobSample>,
}

fn shuffled(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.range(0, i + 1));
    }
    order
}

fn digest(parts: &[&str]) -> u128 {
    let mut buf = Vec::with_capacity(parts.iter().map(|p| p.len() + 1).sum());
    for p in parts {
        buf.extend_from_slice(p.as_bytes());
        buf.push(0);
    }
    content_hash128(&buf)
}

/// Records a job's output digest; a repeat must reproduce the first.
fn note_digest(slot: &mut Option<u128>, d: u128, what: &str, ledger: &mut Ledger) {
    match slot {
        None => *slot = Some(d),
        Some(first) if *first == d => {}
        Some(_) => ledger
            .failures
            .push(format!("{what}: output differs from the first repeat")),
    }
}

/// The `desync` jobs, in rounds: every design once per round, in a seeded
/// order. With tracing on, traced and untraced rounds alternate per
/// design, so the overhead shows.
struct DesyncJobs {
    digests: Vec<Option<u128>>,
    kept: Vec<Option<DesyncResult>>,
    rounds: usize,
}

impl DesyncJobs {
    fn new(designs: usize) -> Self {
        DesyncJobs {
            digests: vec![None; designs],
            kept: (0..designs).map(|_| None).collect(),
            rounds: 0,
        }
    }

    fn round(
        &mut self,
        tools: &Tools<'_>,
        setup: &mut Setup<'_>,
        designs: &[Design],
        rng: &mut Rng,
        traced: &mut Tracer,
        ledger: &mut Ledger,
    ) {
        let mut plain = Tracer::new(false);
        for i in shuffled(rng, designs.len()) {
            let d = &designs[i];
            let (lib, tool) = tools.of(d);
            let on = traced.on() && (self.rounds + i).is_multiple_of(2);
            let job = ledger.next_job;
            ledger.next_job += 1;
            ledger.attempted += 1;
            let tr = if on { &mut *traced } else { &mut plain };
            match flow::desync_job(lib, tool, d, tr, job) {
                Ok(o) => {
                    ledger.samples.push(JobSample {
                        phase: Phase::Desync,
                        design: i,
                        job,
                        traced: on,
                        wall_ns: o.wall_ns as f64,
                        counts: o.counts,
                    });
                    let trace = o.trace.to_json_deterministic();
                    let h = digest(&[&o.verilog, &o.result.sdc, &o.report, &trace]);
                    note_digest(
                        &mut self.digests[i],
                        h,
                        &format!("desync {}", d.name),
                        ledger,
                    );
                    if self.kept[i].is_none() {
                        self.kept[i] = Some(o.result);
                    }
                }
                Err(e) => ledger.failures.push(format!("desync job: {e}")),
            }
            setup.tick();
        }
        self.rounds += 1;
    }
}

/// The `simulate` jobs, the designs in turn (every job traced when
/// tracing is on).
struct SimJobs {
    digests: Vec<Option<u128>>,
    kept: Vec<Option<DesyncResult>>,
    gates: Vec<usize>,
    jobs: usize,
}

impl SimJobs {
    fn new(designs: usize) -> Self {
        SimJobs {
            digests: vec![None; designs],
            kept: (0..designs).map(|_| None).collect(),
            gates: vec![0; designs],
            jobs: 0,
        }
    }

    /// Jobs until `budget` is spent, at least one.
    #[allow(clippy::too_many_arguments)]
    fn run_for(
        &mut self,
        budget: Duration,
        tools: &Tools<'_>,
        setup: &mut Setup<'_>,
        designs: &[Design],
        tr: &mut Tracer,
        ledger: &mut Ledger,
    ) {
        let workers = drd_runner::runner::worker_count();
        let deadline = Instant::now() + budget;
        loop {
            let i = self.jobs % designs.len();
            self.jobs += 1;
            let d = &designs[i];
            let (lib, tool) = tools.of(d);
            let job = ledger.next_job;
            ledger.next_job += 1;
            ledger.attempted += 1;
            match flow::simulate_job(lib, tool, d, CHIPS, workers, tr, job) {
                Ok(o) => {
                    ledger.samples.push(JobSample {
                        phase: Phase::Sim,
                        design: i,
                        job,
                        traced: tr.on(),
                        wall_ns: o.wall_ns as f64,
                        counts: o.counts,
                    });
                    let sim = format!("{:?}|{}|{:?}", o.nominal, o.sync_period_fs, o.samples);
                    let report = format!("{:?}", o.result.report);
                    let h = digest(&[&report, &o.result.sdc, &sim]);
                    note_digest(
                        &mut self.digests[i],
                        h,
                        &format!("simulate {}", d.name),
                        ledger,
                    );
                    self.gates[i] = o.gates;
                    if self.kept[i].is_none() {
                        self.kept[i] = Some(o.result);
                    }
                }
                Err(e) => ledger.failures.push(format!("simulate job: {e}")),
            }
            setup.tick();
            if Instant::now() >= deadline {
                break;
            }
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The off-the-clock correctness gate over the kept flow results.
fn gate(
    tools: &Tools<'_>,
    inp: &Inputs,
    kept_desync: &[Option<DesyncResult>],
    kept_sim: &[Option<DesyncResult>],
    ledger: &mut Ledger,
) {
    let check = |ledger: &mut Ledger, what: String, outcome: Result<(), String>| {
        ledger.attempted += 1;
        if let Err(e) = outcome {
            ledger.failures.push(format!("{what}: {e}"));
        }
    };
    for (designs, kept) in [(&inp.desync, kept_desync), (&inp.sim, kept_sim)] {
        for (d, kept) in designs.iter().zip(kept) {
            let (lib, _) = tools.of(d);
            let Some(result) = kept else {
                check(ledger, d.name.clone(), Err("no successful flow".into()));
                continue;
            };
            if let Some(stem) = d.golden {
                for (file, actual) in [
                    (format!("tests/golden/{stem}.sdc"), result.sdc.clone()),
                    (
                        format!("tests/golden/{stem}_report.txt"),
                        drd_check::golden::render_desync_report(&result.report),
                    ),
                ] {
                    let outcome = match std::fs::read_to_string(&file) {
                        Ok(golden) if golden == actual => Ok(()),
                        Ok(_) => Err("differs from the golden".to_owned()),
                        Err(e) => Err(format!("cannot read: {e}")),
                    };
                    check(ledger, format!("golden {file}"), outcome);
                }
            }
            check(
                ledger,
                format!("liveness oracle on {}", d.name),
                drd_check::liveness::verify_liveness(&result.report, &result.design, lib),
            );
            if let Some(recipe) = &d.recipe {
                if d.cells <= COSIM_MAX_CELLS {
                    let outcome = drd_check::diff::verify_result(
                        recipe,
                        lib,
                        &drd_check::diff::DiffConfig::default(),
                        result,
                    )
                    .map(|_| ());
                    check(
                        ledger,
                        format!("co-simulation oracle on {}", d.name),
                        outcome,
                    );
                }
            }
        }
    }
    // The serve corpus: its flow runs again here, off the clock, on the
    // same Verilog text the server received; a flow error or an oracle
    // rejection is a failure.
    for d in &inp.serve {
        let (lib, tool) = tools.of(d);
        let Some(recipe) = &d.recipe else { continue };
        let outcome = drd_netlist::verilog::parse_module(&d.text)
            .map_err(|e| format!("parse: {e}"))
            .and_then(|m| tool.run(&m, &d.opts).map_err(|e| format!("flow: {e}")))
            .and_then(|result| {
                drd_check::diff::verify_result(
                    recipe,
                    lib,
                    &drd_check::diff::DiffConfig::default(),
                    &result,
                )
                .map(|_| ())
                .map_err(|e| e.lines().next().unwrap_or_default().to_owned())
            });
        check(
            ledger,
            format!("co-simulation oracle on serve corpus {}", d.name),
            outcome,
        );
    }
    for (d, kept) in inp.sim.iter().zip(kept_sim) {
        let Some(result) = kept else { continue };
        let (lib, _) = tools.of(d);
        let outcome = drd_flow::handshake_spec(&result.report, lib)
            .map_err(|e| e.to_string())
            .and_then(|spec| drd_check::handshake::verify_handshake_timing(&spec, lib))
            .map(|_| ());
        check(
            ledger,
            format!("handshake timing oracle on {}", d.name),
            outcome,
        );
    }
}

/// Reads one work count off a traced job.
type UnitOf = fn(&flow::Counts) -> usize;

/// Per-design medians of `values`, summarised by their geometric mean.
fn geomean_of_medians(per_design: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = per_design
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| median(v).max(1.0))
        .collect();
    geomean(&medians)
}

fn by_design(samples: &[(usize, f64)], n: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); n];
    for &(d, v) in samples {
        out[d].push(v);
    }
    out
}

/// Whether the generator kept to a step's schedule: p99 lateness at most
/// half the send interval, or 2 ms (sleep granularity) at high rates.
fn on_time(s: &serve::Step) -> bool {
    quantile(&s.late_ns, 0.99) / 1e6 <= (500.0 / s.rate).max(2.0)
}

/// The highest ladder rate whose step meets the latency limit with no
/// growing backlog and an on-time generator (every lower step too).
/// Between the last passing and the first failing step the rate is
/// interpolated linearly where p99 crosses the limit; if even the base
/// step fails, the base rate is scaled down by limit / p99.
fn max_rate(steps: &[serve::Step], tokens: usize) -> (f64, Vec<bool>) {
    let p99 = |s: &serve::Step| quantile(&s.all_ns, 0.99) / 1e6;
    let pass: Vec<bool> = steps
        .iter()
        .map(|s| {
            let backlog_ok =
                s.in_flight_end as f64 <= 2.0 * tokens as f64 + s.rate * LIMIT_MS / 1e3;
            on_time(s) && backlog_ok && s.all_ns.len() == s.sent && p99(s) <= LIMIT_MS
        })
        .collect();
    let passed = pass.iter().take_while(|p| **p).count();
    let rate = match passed {
        0 => steps
            .first()
            .map_or(0.0, |s| s.rate * (LIMIT_MS / p99(s)).min(1.0)),
        k if k == steps.len() => steps[k - 1].rate,
        k => {
            let (a, b) = (&steps[k - 1], &steps[k]);
            let f = ((LIMIT_MS - p99(a)) / (p99(b) - p99(a))).clamp(0.0, 1.0);
            a.rate + f * (b.rate - a.rate)
        }
    };
    (rate, pass)
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn run(args: &Args) -> Result<(Metrics, Ledger), String> {
    let w = args.workload;
    let seconds = args.seconds;
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tokens = host_cores;
    let workers = drd_runner::runner::worker_count();
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    let rustc = command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    println!(
        "meta: workload={w} seed={} seconds={} trace={} host_cores={host_cores} \
         flow_workers={workers} server_tokens={tokens} commit={commit} rustc=\"{rustc}\"",
        args.seed,
        seconds,
        u8::from(args.trace)
    );
    if host_cores < 4 {
        println!("parallel speedup: not measured (host_cores < 4)");
    } else {
        println!("parallel speedup: not measured (every run uses one worker count)");
    }

    // Inputs: the benchmark's own work, never timed.
    let hs = vlib90::high_speed();
    let inp = inputs::build(w, args.seed, &hs)?;
    println!(
        "serve corpus: {} netlists; {} draws set aside with an isolated controlled region, \
         a topology the flow ships without a liveness repair (known limitation, see README.md)",
        inp.serve.len(),
        inp.serve_set_aside
    );
    let mut libs: Vec<&Library> = Vec::new();
    for d in inp.desync.iter().chain(&inp.sim).chain(&inp.serve) {
        if !libs.iter().any(|l| l.name() == d.lib.name()) {
            libs.push(&d.lib);
        }
    }

    let mut tr = Tracer::new(args.trace);
    let mut ledger = Ledger {
        attempted: 0,
        failures: Vec::new(),
        next_job: 0,
        samples: Vec::new(),
    };
    let mut metrics = Metrics::default();

    let tools = Tools::new(&libs)?;
    let mut setup = Setup::new(libs);

    // Desync rounds, simulate jobs and closed-loop serve requests take
    // turns until the first three phases' share of the run is spent (at
    // least two desync rounds), so each metric samples the whole span
    // rather than one stretch of a shared host whose speed drifts. After
    // each desync round the other two get time in proportion to their
    // shares. The open-loop ladder follows.
    let server = drd_serve::Server::new(&hs, tokens).map_err(|e| e.to_string())?;
    let mut serve = serve::Serve::new(&server, &inp.serve);
    let mut desync = DesyncJobs::new(inp.desync.len());
    let mut sim = SimJobs::new(inp.sim.len());
    let mut rng = Rng::new(args.seed ^ 0x0DE5_11C0);
    let turns = Duration::from_secs_f64(PHASE_SHARES[..3].iter().sum::<f64>() * seconds);
    let t0 = Instant::now();
    while desync.rounds < 2 || t0.elapsed() < turns {
        let r0 = Instant::now();
        desync.round(
            &tools,
            &mut setup,
            &inp.desync,
            &mut rng,
            &mut tr,
            &mut ledger,
        );
        let round = r0.elapsed();
        let share = |k: usize| round.mul_f64(PHASE_SHARES[k] / PHASE_SHARES[0]);
        sim.run_for(share(1), &tools, &mut setup, &inp.sim, &mut tr, &mut ledger);
        serve.closed(
            share(2),
            &mut || setup.tick(),
            &mut tr,
            &mut ledger.next_job,
        );
    }
    let sv = serve.open(
        args.seed,
        PHASE_SHARES[3] * seconds,
        &mut tr,
        &mut ledger.next_job,
    );
    let (desync_digests, kept_desync) = (desync.digests, desync.kept);
    let (sim_digests, kept_sim, gates) = (sim.digests, sim.kept, sim.gates);
    setup.batch();
    for &(t0, t1) in &setup.reps {
        tr.record("liberty.setup", ledger.next_job, None, t0, t1);
        ledger.next_job += 1;
    }
    ledger.attempted += 1;
    if let Some(e) = setup.error.take() {
        ledger.failures.push(e);
    }
    ledger.attempted += sv.attempted;
    ledger.failures.extend(sv.failures.iter().cloned());
    let peak_rss = peak_rss_mb();

    // Off the clock from here on.
    gate(&tools, &inp, &kept_desync, &kept_sim, &mut ledger);
    // Recorded digests: one over the seed-independent designs (key `*`),
    // one over the seeded ones (key = seed).
    let serve_digests: Vec<Option<u128>> = sv.reference.iter().map(|&h| Some(h)).collect();
    for (seeded, key) in [(false, "*".to_owned()), (true, args.seed.to_string())] {
        let parts: Vec<String> = [
            (&inp.desync, &desync_digests),
            (&inp.sim, &sim_digests),
            (&inp.serve, &serve_digests),
        ]
        .into_iter()
        .flat_map(|(ds, hs)| ds.iter().zip(hs.iter()))
        .filter(|(d, _)| d.seeded == seeded)
        .map(|(d, h)| {
            format!(
                "{}={}",
                d.name,
                h.map_or("none".to_owned(), |h| format!("{h:032x}"))
            )
        })
        .collect();
        if parts.is_empty() {
            continue;
        }
        let combined = format!("{:032x}", content_hash128(parts.join(",").as_bytes()));
        println!("digest: {w} {key} {combined}");
        let recorded = RECORDED_DIGESTS.lines().find_map(|l| {
            let mut f = l.split_whitespace();
            (f.next() == Some(w) && f.next() == Some(key.as_str())).then(|| f.next())?
        });
        match recorded {
            Some(r) => {
                ledger.attempted += 1;
                if r != combined {
                    ledger.failures.push(format!(
                        "artifact digest {combined} at key {key} differs from the recorded {r}"
                    ));
                }
            }
            // Digests are recorded for seeds 0-63 only (see README.md);
            // other seeds rely on repeat identity and the oracles.
            None => println!("digest: no recorded digest for {w} at key {key}"),
        }
    }

    // ---- End-to-end metrics -------------------------------------------
    let n_desync = inp.desync.len();
    let n_sim = inp.sim.len();
    let walls = |phase: Phase, only_plain: bool| -> Vec<(usize, f64)> {
        ledger
            .samples
            .iter()
            .filter(|s| s.phase == phase && !(only_plain && s.traced))
            .map(|s| (s.design, s.wall_ns))
            .collect()
    };
    let desync_walls = walls(Phase::Desync, true);
    let desync_per = by_design(&desync_walls, n_desync);
    // End-to-end times are given at the reference host speed (`host.rs`);
    // each note carries the raw figure.
    let speed = setup.speed();
    let at_speed = |raw: f64, factor: f64| (raw * factor, format!("raw {raw:.6}"));
    let (v, raw) = at_speed(setup.median_ns() / 1e9, speed);
    metrics.put(
        "setup_s",
        v,
        "s",
        format!("median of {} spread over the run; {raw}", setup.reps.len()),
    );
    let (v, raw) = at_speed(geomean_of_medians(&desync_per) / 1e6, speed);
    metrics.put(
        "desync_ms_p50",
        v,
        "ms",
        format!(
            "geomean over {n_desync} designs of median job wall, {} jobs; {raw}",
            desync_walls.len()
        ),
    );
    let cells: f64 = desync_walls
        .iter()
        .map(|&(d, _)| inp.desync[d].cells as f64)
        .sum();
    let wall_s: f64 = desync_walls.iter().map(|&(_, w)| w).sum::<f64>() / 1e9;
    let (v, raw) = at_speed(cells / wall_s, 1.0 / speed);
    metrics.put(
        "desync_cells_per_s",
        v,
        "cells/s",
        format!("input cells over summed job wall; {raw}"),
    );
    let sim_walls = walls(Phase::Sim, false);
    let (v, raw) = at_speed(
        geomean_of_medians(&by_design(&sim_walls, n_sim)) / 1e6,
        speed,
    );
    metrics.put(
        "simulate_ms_p50",
        v,
        "ms",
        format!(
            "{CHIPS} chips, {} jobs over {n_sim} designs; {raw}",
            sim_walls.len()
        ),
    );
    // Base-step percentiles: the median over consecutive windows of the
    // step, so a few host stalls cannot decide a tail figure alone.
    let base = sv.steps.first();
    let windowed = |v: &[f64], q: f64| {
        let w = v.len().div_ceil(WINDOWS).max(1);
        median(&v.chunks(w).map(|c| quantile(c, q)).collect::<Vec<_>>())
    };
    let base_rate = LADDER[0];
    let serve_percentile = |metrics: &mut Metrics, name: &str, q: f64, warm: bool| {
        let v: &[f64] = base.map_or(&[], |s| if warm { &s.warm_ns } else { &s.cold_ns });
        let (unit, scale) = if warm { ("us", 1e3) } else { ("ms", 1e6) };
        let note = format!(
            "median of {WINDOWS} windows, n={} at {base_rate} jobs/s",
            v.len()
        );
        metrics.put(name, windowed(v, q) / scale, unit, note);
    };
    // A lone client's latency: closed-loop `handle_line` with nothing
    // else queued. The open-loop figures are per-layer metrics (below).
    let (v, raw) = at_speed(geomean_of_medians(&sv.cold_service) / 1e6, speed);
    metrics.put(
        "serve_cold_service_ms_p50",
        v,
        "ms",
        format!(
            "closed loop, geomean over {} netlists of median, {} requests; {raw}",
            sv.cold_service.len(),
            sv.cold_service.iter().map(Vec::len).sum::<usize>()
        ),
    );
    let (v, raw) = at_speed(geomean_of_medians(&sv.warm_service) / 1e3, speed);
    metrics.put(
        "serve_warm_service_us_p50",
        v,
        "us",
        format!(
            "closed loop, geomean over {} netlists of median, {} requests; {raw}",
            sv.warm_service.len(),
            sv.warm_service.iter().map(Vec::len).sum::<usize>()
        ),
    );
    let (max_rate, pass) = max_rate(&sv.steps, tokens);
    metrics.put(
        "peak_rss_mb",
        peak_rss.unwrap_or(f64::NAN),
        "MB",
        "VmHWM before the correctness gate",
    );
    let e2e_count = metrics.0.len();

    // ---- Per-layer metrics (from the spans) ---------------------------
    let self_ns = tr.self_ns();
    let meta: HashMap<u32, &JobSample> = ledger.samples.iter().map(|s| (s.job, s)).collect();
    // (phase, layer) -> per-design self times.
    let mut layer: HashMap<(Phase, &str), Vec<Vec<f64>>> = HashMap::new();
    let mut setup_spans = Vec::new();
    for (s, &own) in tr.spans().iter().zip(&self_ns) {
        if s.name == "liberty.setup" {
            setup_spans.push(own as f64);
            continue;
        }
        let Some(job) = meta.get(&s.job) else {
            continue;
        };
        let n = if job.phase == Phase::Desync {
            n_desync
        } else {
            n_sim
        };
        let name = if s.name.starts_with("job.") {
            "unattributed"
        } else {
            s.name
        };
        layer
            .entry((job.phase, name))
            .or_insert_with(|| vec![Vec::new(); n])[job.design]
            .push(own as f64);
    }
    let layer_ms = |phase: Phase, name: &str| {
        layer
            .get(&(phase, name))
            .map_or(f64::NAN, |v| geomean_of_medians(v) / 1e6)
    };
    // Open-loop latency, its tails, and the ladder's knee that follows
    // them swing 1.3-3x between runs on a loaded shared 2-core host, too
    // much for a bounded end-to-end metric, so they are reported here.
    serve_percentile(&mut metrics, "serve_cold_ms_p50", 0.5, false);
    serve_percentile(&mut metrics, "serve_warm_us_p50", 0.5, true);
    serve_percentile(&mut metrics, "serve_cold_ms_p99", 0.99, false);
    serve_percentile(&mut metrics, "serve_warm_us_p99", 0.99, true);
    metrics.put(
        "serve_max_jobs_per_s",
        max_rate,
        "jobs/s",
        format!("ladder {LADDER:?} jobs/s, all-job p99 limit {LIMIT_MS} ms"),
    );
    metrics.put(
        "host.probe_ms",
        median(&setup.probe) / 1e6,
        "ms",
        format!(
            "median of {} probe calls; end-to-end times are scaled by {} ms over this",
            setup.probe.len(),
            host::REFERENCE_NS / 1e6
        ),
    );
    metrics.put(
        "liberty.setup_ms",
        median(&setup_spans) / 1e6,
        "ms",
        "library build + gatefile",
    );
    let traced_desync: Vec<&JobSample> = ledger
        .samples
        .iter()
        .filter(|s| s.phase == Phase::Desync && s.traced)
        .collect();
    let rate = |name: &str, bytes: fn(&flow::Counts) -> usize| {
        let total: f64 = traced_desync.iter().map(|s| bytes(&s.counts) as f64).sum();
        let ns: f64 = layer
            .get(&(Phase::Desync, name))
            .map_or(0.0, |v| v.iter().flatten().sum());
        total / 1e6 / (ns / 1e9)
    };
    metrics.put(
        "netlist.parse_ms",
        layer_ms(Phase::Desync, "netlist.parse"),
        "ms",
        "",
    );
    metrics.put(
        "netlist.parse_mb_per_s",
        rate("netlist.parse", |c| c.bytes_in),
        "MB/s",
        "",
    );
    metrics.put(
        "netlist.write_ms",
        layer_ms(Phase::Desync, "netlist.write"),
        "ms",
        "",
    );
    metrics.put(
        "netlist.write_mb_per_s",
        rate("netlist.write", |c| c.bytes_out),
        "MB/s",
        "",
    );
    for (_, l) in flow::PASSES {
        metrics.put(
            format!("{l}_ms"),
            layer_ms(Phase::Desync, l),
            "ms",
            "self time per job",
        );
    }
    metrics.put(
        "core.into_result_ms",
        layer_ms(Phase::Desync, "core.into_result"),
        "ms",
        "",
    );
    metrics.put(
        "report.render_ms",
        layer_ms(Phase::Desync, "report.render"),
        "ms",
        "",
    );
    metrics.put(
        "core.unattributed_ms",
        layer_ms(Phase::Desync, "unattributed"),
        "ms",
        "job wall not covered by parse, passes, into_result, write, render",
    );

    // Per-unit costs on the smaller and the larger half of the designs.
    let mut by_size: Vec<usize> = (0..n_desync).collect();
    by_size.sort_by_key(|&i| inp.desync[i].cells);
    let (small, large) = if n_desync > 1 {
        (
            by_size[..n_desync / 2].to_vec(),
            by_size[n_desync / 2..].to_vec(),
        )
    } else {
        (by_size.clone(), by_size.clone())
    };
    let units = |i: usize, f: fn(&flow::Counts) -> usize| {
        traced_desync
            .iter()
            .find(|s| s.design == i)
            .map_or(0, |s| f(&s.counts))
    };
    let per_unit = |set: &[usize], name: &str, f: fn(&flow::Counts) -> usize| {
        let v = layer.get(&(Phase::Desync, name));
        let ns: f64 = set
            .iter()
            .map(|&i| v.map_or(0.0, |v| median(&v[i])))
            .filter(|x| x.is_finite())
            .sum();
        let u: usize = set.iter().map(|&i| units(i, f)).sum();
        ns / 1e3 / u as f64
    };
    let unit_metrics: [(&str, &str, &str, UnitOf); 4] = [
        ("core.ffsub.us_per_ff", "core.ffsub", "us/ff", |c| c.ffs),
        (
            "core.region-delays.us_per_region",
            "core.region-delays",
            "us/region",
            |c| c.regions,
        ),
        (
            "core.control-network.us_per_region",
            "core.control-network",
            "us/region",
            |c| c.regions,
        ),
        ("core.group.us_per_cell", "core.group", "us/cell", |c| {
            c.cells_clean
        }),
    ];
    let size_note = |set: &[usize]| {
        set.iter()
            .map(|&i| inp.desync[i].name.as_str())
            .collect::<Vec<_>>()
            .join("+")
    };
    for (name, span, unit, f) in unit_metrics {
        let s = per_unit(&small, span, f);
        let l = per_unit(&large, span, f);
        metrics.put(format!("{name}.small"), s, unit, size_note(&small));
        metrics.put(format!("{name}.large"), l, unit, size_note(&large));
        metrics.put(
            format!("{name}.ratio"),
            l / s,
            "ratio",
            "large/small, no gate",
        );
    }
    let overhead = {
        let traced = by_design(
            &traced_desync
                .iter()
                .map(|s| (s.design, s.wall_ns))
                .collect::<Vec<_>>(),
            n_desync,
        );
        let plain = by_design(&walls(Phase::Desync, true), n_desync);
        let ratios: Vec<f64> = traced
            .iter()
            .zip(&plain)
            .filter(|(t, p)| !t.is_empty() && !p.is_empty())
            .map(|(t, p)| median(t) / median(p))
            .collect();
        (geomean(&ratios) - 1.0) * 100.0
    };
    metrics.put(
        "trace.overhead_pct",
        overhead,
        "%",
        "traced vs untraced desync jobs of this run",
    );

    metrics.put(
        "sim.elaborate_ms",
        layer_ms(Phase::Sim, "sim.elaborate"),
        "ms",
        "",
    );
    metrics.put(
        "sim.nominal_ms",
        layer_ms(Phase::Sim, "sim.nominal"),
        "ms",
        "",
    );
    metrics.put(
        "sim.monte_carlo_ms",
        layer_ms(Phase::Sim, "sim.monte_carlo"),
        "ms",
        "",
    );
    let mc_ns: f64 = layer
        .get(&(Phase::Sim, "sim.monte_carlo"))
        .map_or(0.0, |v| v.iter().flatten().sum());
    let mc_jobs = layer
        .get(&(Phase::Sim, "sim.monte_carlo"))
        .map_or(0, |v| v.iter().map(Vec::len).sum::<usize>());
    metrics.put(
        "sim.chips_per_s",
        (mc_jobs * CHIPS) as f64 / (mc_ns / 1e9),
        "chips/s",
        "",
    );
    metrics.put(
        "sim.gates",
        gates.iter().sum::<usize>() as f64,
        "count",
        "over the simulate designs",
    );

    let wait = |q: f64| base.map_or(f64::NAN, |s| quantile(&s.wait_ns, q) / 1e6);
    metrics.put(
        "serve.wait_ms_p50",
        wait(0.5),
        "ms",
        "derived: open-loop latency minus closed-loop service",
    );
    metrics.put(
        "serve.wait_ms_p99",
        wait(0.99),
        "ms",
        "derived: open-loop latency minus closed-loop service",
    );
    let stat = |k: &str| {
        sv.stats
            .as_ref()
            .and_then(|v| v.get(k))
            .and_then(drd_serve::json::Value::as_num)
            .unwrap_or(f64::NAN)
    };
    metrics.put(
        "serve.cache_hit_ratio",
        stat("cache_hit_rate"),
        "ratio",
        "from the final stats request",
    );
    metrics.put(
        "serve.jobs_ok",
        stat("jobs_ok"),
        "count",
        "from the final stats request",
    );
    metrics.put(
        "serve.jobs_failed",
        stat("jobs_failed"),
        "count",
        "from the final stats request",
    );
    let kb = sv.response_bytes.iter().sum::<f64>() / sv.response_bytes.len().max(1) as f64 / 1024.0;
    metrics.put("serve.response_kb_mean", kb, "KB", "open-loop responses");
    for (k, s) in sv.steps.iter().enumerate() {
        let note = format!(
            "{} jobs/s, {}{}",
            s.rate,
            if pass[k] {
                "meets limit"
            } else {
                "misses limit"
            },
            if on_time(s) {
                ""
            } else {
                ", INVALID: generator fell behind"
            }
        );
        metrics.put(
            format!("serve.step{k}.p99_ms"),
            quantile(&s.all_ns, 0.99) / 1e6,
            "ms",
            note,
        );
        metrics.put(
            format!("serve.step{k}.late_ms_p99"),
            quantile(&s.late_ns, 0.99) / 1e6,
            "ms",
            "",
        );
        metrics.put(
            format!("serve.step{k}.in_flight_end"),
            s.in_flight_end as f64,
            "count",
            "",
        );
    }
    debug_assert_eq!(sv.steps.len(), STEPS);

    // Attribution table: per design, job wall vs the attributed calls.
    if args.trace {
        for (i, d) in inp.desync.iter().enumerate() {
            let med = |name: &str| {
                layer
                    .get(&(Phase::Desync, name))
                    .map_or(0.0, |v| median(&v[i]).max(0.0))
            };
            let wall = median(
                &traced_desync
                    .iter()
                    .filter(|s| s.design == i)
                    .map(|s| s.wall_ns)
                    .collect::<Vec<_>>(),
            );
            let mut line = format!("attribution {}: wall {:.3} ms =", d.name, wall / 1e6);
            for n in ["netlist.parse"]
                .into_iter()
                .chain(flow::PASSES.iter().map(|(_, l)| *l))
                .chain([
                    "core.into_result",
                    "netlist.write",
                    "report.render",
                    "unattributed",
                ])
            {
                let _ = write!(line, " {n} {:.3}", med(n) / 1e6);
            }
            println!("{line}");
        }
    }

    let spans_dir = std::path::Path::new(".bench_build/spans");
    if args.trace && std::fs::create_dir_all(spans_dir).is_ok() {
        let path = spans_dir.join(format!("{w}-{}.json", args.seed));
        if let Err(e) = std::fs::write(&path, tr.to_json()) {
            println!("spans: not written ({e})");
        } else {
            println!("spans: {} written to {}", tr.spans().len(), path.display());
        }
    }
    let per_layer = metrics.0.split_off(e2e_count);
    let e2e = std::mem::take(&mut metrics.0);
    metrics.0 = if args.trace { per_layer } else { e2e };
    Ok((metrics, ledger))
}

fn main() -> ExitCode {
    // One flow worker (see README.md, "Flow workers"), set before any
    // thread starts.
    std::env::set_var("DRD_WORKERS", FLOW_WORKERS);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let (metrics, mut ledger) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let mut json = String::from("{");
    let mut body = Vec::new();
    for m in &metrics.0 {
        let value = if m.value.is_finite() {
            m.value
        } else {
            ledger
                .failures
                .push(format!("metric {} was not measured", m.name));
            0.0
        };
        println!("{:<40} {:>14.6} {:<9} {}", m.name, value, m.unit, m.note);
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        ));
    }
    for f in &ledger.failures {
        println!("FAILED: {f}");
    }
    let failed = ledger.failures.len().min(ledger.attempted);
    println!(
        "ops_failed_ratio {:.6} ratio ({failed} of {} operations failed)",
        failed as f64 / ledger.attempted.max(1) as f64,
        ledger.attempted
    );
    let correct = ledger.failures.is_empty();
    let _ = write!(
        json,
        "\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        ledger.attempted.max(1),
        body.join(", ")
    );
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
