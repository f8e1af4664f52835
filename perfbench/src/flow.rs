//! The CLI-equivalent `desync` and `simulate` jobs, timed from outside
//! the library. With tracing on, every library call gets a span; each
//! pass's span is the gap between consecutive `run_observed` observer
//! callbacks.

use std::time::Instant;

use drd_core::{DesyncResult, Desynchronizer, FlowContext, FlowTrace, Pipeline};
use drd_liberty::Library;
use drd_sim::{ChipSample, GateVariability, HandshakeNet, RegionCycle};

use crate::inputs::Design;
use crate::trace::Tracer;

/// Pass name → layer metric stem, in pipeline order.
pub const PASSES: [(&str, &str); 9] = [
    ("clean", "core.clean"),
    ("clock-id", "core.clock-id"),
    ("group", "core.group"),
    ("ddg", "core.ddg"),
    ("region-delays", "core.region-delays"),
    ("ffsub", "core.ffsub"),
    ("control-network", "core.control-network"),
    ("liveness", "core.liveness"),
    ("sdc", "core.sdc"),
];

/// Campaign seed and per-gate sigma of every simulate job (the CLI's
/// `simulate` defaults).
pub const MC_SEED: u64 = 0xD15E_A5E0;
pub const MC_SIGMA: f64 = 0.15;

/// Work counts of one flow, read from `FlowContext` accessors (traced
/// runs only).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub cells_clean: usize,
    pub regions: usize,
    pub ffs: usize,
    pub bytes_in: usize,
    pub bytes_out: usize,
}

/// A finished `desync` job.
pub struct DesyncOut {
    pub wall_ns: u64,
    pub counts: Counts,
    pub result: DesyncResult,
    pub trace: FlowTrace,
    pub verilog: String,
    pub report: String,
}

/// A finished `simulate` job.
pub struct SimOut {
    pub wall_ns: u64,
    pub counts: Counts,
    pub result: DesyncResult,
    pub gates: usize,
    pub nominal: Vec<RegionCycle>,
    pub sync_period_fs: u64,
    pub samples: Vec<ChipSample>,
}

fn layer_of(pass: &str) -> &'static str {
    PASSES
        .iter()
        .find(|(p, _)| *p == pass)
        .map_or("core.other", |(_, l)| l)
}

/// Parse → nine passes → `into_result`, as the CLI `desync` arm runs it.
fn run_flow(
    lib: &Library,
    tool: &Desynchronizer<'_>,
    d: &Design,
    tr: &mut Tracer,
    job: u32,
    root: Option<usize>,
    counts: &mut Counts,
) -> Result<(DesyncResult, FlowTrace), String> {
    let start = tr.on().then(Instant::now);
    let module = drd_netlist::verilog::parse_module(&d.text)
        .map_err(|e| format!("{}: parse: {e}", d.name))?;
    let mut last = None;
    if let Some(t0) = start {
        let now = Instant::now();
        tr.record("netlist.parse", job, root, t0, now);
        counts.bytes_in = d.text.len();
        last = Some(Instant::now());
    }
    let mut cx = FlowContext::new(lib, tool.gatefile(), module, d.opts.clone());
    let trace = Pipeline::standard()
        .run_observed(&mut cx, None, |name, cx| {
            if let Some(prev) = last {
                tr.record(layer_of(name), job, root, prev, Instant::now());
                match name {
                    "clean" => counts.cells_clean = cx.netlist_stats().0,
                    "group" => counts.regions = cx.regions().map_or(0, |r| r.regions.len()),
                    "ffsub" => counts.ffs = cx.substituted_ffs(),
                    _ => {}
                }
                last = Some(Instant::now());
            }
            Ok(())
        })
        .map_err(|e| format!("{}: flow: {e}", d.name))?;
    let t = tr.on().then(Instant::now);
    let result = cx
        .into_result()
        .map_err(|e| format!("{}: into_result: {e}", d.name))?;
    if let Some(t) = t {
        tr.record("core.into_result", job, root, t, Instant::now());
    }
    Ok((result, trace))
}

/// One CLI-equivalent `desync` job: parse the Verilog text, run the nine
/// passes, `into_result`, then write the Verilog and render the report
/// (the SDC is already text). Artifacts stay in memory.
pub fn desync_job(
    lib: &Library,
    tool: &Desynchronizer<'_>,
    d: &Design,
    tr: &mut Tracer,
    job: u32,
) -> Result<DesyncOut, String> {
    let t0 = Instant::now();
    let root = tr.open("job.desync", job, t0);
    let mut counts = Counts::default();
    let (result, trace) = run_flow(lib, tool, d, tr, job, root, &mut counts)?;
    let t = tr.on().then(Instant::now);
    let verilog = drd_netlist::verilog::write_design(&result.design);
    let t = t.map(|t| {
        let now = Instant::now();
        tr.record("netlist.write", job, root, t, now);
        counts.bytes_out = verilog.len();
        Instant::now()
    });
    let report = format!("{:?}", result.report);
    if let Some(t) = t {
        tr.record("report.render", job, root, t, Instant::now());
    }
    let end = Instant::now();
    tr.close(root, end);
    Ok(DesyncOut {
        wall_ns: (end - t0).as_nanos() as u64,
        counts,
        result,
        trace,
        verilog,
        report,
    })
}

/// One `simulate`-equivalent job: the flow, then `handshake_spec`,
/// `elaborate`, the nominal cycle times (plus the synchronous reference
/// period) and a Monte-Carlo campaign of `chips` chips.
pub fn simulate_job(
    lib: &Library,
    tool: &Desynchronizer<'_>,
    d: &Design,
    chips: usize,
    workers: usize,
    tr: &mut Tracer,
    job: u32,
) -> Result<SimOut, String> {
    let t0 = Instant::now();
    let root = tr.open("job.simulate", job, t0);
    let mut counts = Counts::default();
    let (result, _) = run_flow(lib, tool, d, tr, job, root, &mut counts)?;
    let sim_err = |step: &str, e: &dyn std::fmt::Display| format!("{}: {step}: {e}", d.name);

    let t = tr.on().then(Instant::now);
    let spec = drd_flow::handshake_spec(&result.report, lib).map_err(|e| sim_err("spec", &e))?;
    let t = t.map(|t| {
        tr.record("flow.handshake_spec", job, root, t, Instant::now());
        Instant::now()
    });
    let net = HandshakeNet::elaborate(&spec, lib).map_err(|e| sim_err("elaborate", &e))?;
    let t = t.map(|t| {
        tr.record("sim.elaborate", job, root, t, Instant::now());
        Instant::now()
    });
    let nominal = net
        .nominal_cycle_times()
        .map_err(|e| sim_err("nominal", &e))?;
    let sync_period_fs = net.sync_period_fs(&vec![1.0f64; net.gate_count()]);
    let t = t.map(|t| {
        tr.record("sim.nominal", job, root, t, Instant::now());
        Instant::now()
    });
    let var = GateVariability::new(MC_SEED, MC_SIGMA);
    let samples = net
        .monte_carlo(&var, chips, workers)
        .map_err(|e| sim_err("monte carlo", &e))?;
    if let Some(t) = t {
        tr.record("sim.monte_carlo", job, root, t, Instant::now());
    }
    let end = Instant::now();
    tr.close(root, end);
    Ok(SimOut {
        wall_ns: (end - t0).as_nanos() as u64,
        counts,
        result,
        gates: net.gate_count(),
        nominal,
        sync_period_fs,
        samples,
    })
}
