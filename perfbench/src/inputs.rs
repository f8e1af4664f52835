//! The workloads, the run's fixed schedule, and the inputs each workload
//! generates from its seed.
//!
//! Generation is the benchmark's own work and is never timed: the
//! program under test only ever receives the Verilog text (or request
//! lines) built here.

use drd_check::netgen::{FfKind, FfRecipe, GateOp, NetGenParams, NetRecipe, StageRecipe};
use drd_check::Rng;
use drd_core::{DesyncOptions, Desynchronizer};
use drd_flow::CaseStudy;
use drd_liberty::Library;
use drd_netlist::{Design as NetDesign, Module};

/// The workloads, by name.
pub const WORKLOADS: [&str; 2] = ["paper_cores", "region_mesh"];

/// Shares of `--seconds` given to the desync, simulate, closed-loop serve
/// and open-loop serve phases (the same for every workload).
pub const PHASE_SHARES: [f64; 4] = [0.35, 0.1, 0.2, 0.35];

/// Rate steps of the open-loop serve ladder.
pub const STEPS: usize = 4;

/// Offered rates (jobs/s) of the open-loop steps; step 0 is the base rate
/// the serve latency metrics are read at, ~20% of two cores' cold-job
/// capacity, so a slower shared host adds little queueing to the p50s.
/// Chosen once, with the limit below, from the commit that introduced
/// the benchmark and never recomputed per run. Every workload serves the
/// same kind of traffic, so one ladder fits all.
pub const LADDER: [f64; STEPS] = [200.0, 700.0, 1000.0, 3200.0];

/// All-job p99 latency limit (ms) a ladder step must meet.
pub const LIMIT_MS: f64 = 50.0;

/// Share of open-loop requests that repeat a cached netlist.
pub const WARM_SHARE: f64 = 0.5;

/// Monte-Carlo chips per simulate job (DLX small, the paper's
/// variability case study).
pub const CHIPS: usize = 256;

/// Seeded meshes of each size in `region_mesh`.
const MESHES_PER_SIZE: usize = 3;

/// Netlists in the serve corpus.
const CORPUS: usize = 48;

/// Salt of the workload seed for the generators' random streams.
const SALT: u64 = 0xBE7C_4DE5_0000;

/// One input netlist and the options it is run with.
pub struct Design {
    pub name: String,
    /// The library the design is desynchronized against: a case study's
    /// own, else `vlib90` high-speed (the CLI default).
    pub lib: Library,
    pub opts: DesyncOptions,
    pub text: String,
    /// Cell count of the generated module.
    pub cells: usize,
    /// Whether the netlist depends on the workload seed (recorded digests
    /// of seeded designs are keyed by seed).
    pub seeded: bool,
    /// The generator recipe, for the co-simulation oracle.
    pub recipe: Option<NetRecipe>,
    /// Stem of the hand-blessed goldens under `tests/golden/`, if any.
    pub golden: Option<&'static str>,
}

/// The inputs of one workload run.
pub struct Inputs {
    /// Designs of the `desync` phase (CLI-equivalent jobs).
    pub desync: Vec<Design>,
    /// Designs of the `simulate` phase.
    pub sim: Vec<Design>,
    /// Netlists of the serve phases (all `--lib hs`, default options).
    pub serve: Vec<Design>,
    /// Serve-corpus draws set aside for an isolated controlled region.
    pub serve_set_aside: usize,
}

fn verilog_of(module: Module) -> String {
    let mut d = NetDesign::new();
    d.insert(module);
    drd_netlist::verilog::write_design(&d)
}

fn paper(name: &str) -> Result<Design, String> {
    let case = match name {
        "dlx_small" => CaseStudy::dlx(&drd_designs::dlx::DlxParams::small()),
        "dlx_full" => CaseStudy::dlx(&drd_designs::dlx::DlxParams::full()),
        "armlike_small" => CaseStudy::armlike(&drd_designs::armlike::ArmParams::small()),
        _ => CaseStudy::armlike(&drd_designs::armlike::ArmParams::full()),
    }
    .map_err(|e| format!("{name}: {e}"))?;
    Ok(Design {
        name: name.to_owned(),
        lib: case.lib,
        opts: case.desync,
        cells: case.module.cell_count(),
        text: verilog_of(case.module),
        seeded: false,
        recipe: None,
        golden: match name {
            "dlx_small" => Some("dlx_small"),
            "armlike_small" => Some("armlike_small"),
            _ => None,
        },
    })
}

/// The `scale` bin's stepped pipeline: `stages` stages of `cloud` random
/// gates and `width` plain flip-flops.
fn stepped(rng: &mut Rng, stages: usize, cloud: usize, width: usize) -> NetRecipe {
    let stages = (0..stages)
        .map(|_| StageRecipe {
            cloud: (0..cloud)
                .map(|_| GateOp {
                    kind: rng.next_u64() as u8,
                    a: rng.range(0, 4096),
                    b: rng.range(0, 4096),
                })
                .collect(),
            ffs: (0..width)
                .map(|_| FfRecipe {
                    kind: FfKind::Plain,
                    d: rng.range(0, 4096),
                    aux0: rng.range(0, 4096),
                    aux1: rng.range(0, 4096),
                })
                .collect(),
        })
        .collect();
    NetRecipe {
        inputs: 4,
        input_bits: rng.next_u64(),
        stages,
    }
}

fn from_recipe(name: String, recipe: NetRecipe, hs: &Library) -> Result<Design, String> {
    let module = recipe.build().map_err(|e| format!("{name}: {e}"))?;
    Ok(Design {
        name,
        lib: hs.clone(),
        opts: DesyncOptions::default(),
        cells: module.cell_count(),
        text: verilog_of(module),
        seeded: true,
        recipe: Some(recipe),
        golden: None,
    })
}

fn mesh(
    rng: &mut Rng,
    k: usize,
    (stages, cloud, width): (usize, usize, usize),
    hs: &Library,
) -> Result<Design, String> {
    let recipe = stepped(rng, stages, cloud, width);
    from_recipe(format!("mesh{k}_{stages}x{cloud}+{width}"), recipe, hs)
}

/// Small netgen netlists (`NetGenParams::default()`) drawn from one fixed
/// stream, the same for every seed: slot `i` takes the first sample with
/// `1 + i % 3` stages, `1 + (i / 3) % 3` register lanes and three cloud
/// gates per stage on average. The seed picks the requests' order and
/// their cold/warm mix (`serve.rs`). A corpus drawn per seed made the
/// cold service time move ~10% with the seed alone.
///
/// No draw is screened by an oracle: the correctness gate co-simulates
/// every one. Draws whose handshake topology has an isolated controlled
/// region (`drd_check::handshake::isolated_regions`: a delay-element
/// region with neither controlled predecessor nor successor) are set
/// aside and counted. That topology halts by construction, as the
/// handshake-timing oracle documents, and the flow ships it without a
/// repair; the co-simulation oracle sees it stall once its delay element
/// is five or more levels deep. Returns the corpus and the set-aside count.
fn corpus(hs: &Library) -> Result<(Vec<Design>, usize), String> {
    let tool = Desynchronizer::new(hs).map_err(|e| e.to_string())?;
    let isolated = |module: &Module| -> bool {
        tool.run(module, &DesyncOptions::default())
            .ok()
            .and_then(|r| drd_check::handshake::handshake_spec(&r.report, hs).ok())
            .is_some_and(|spec| !drd_check::handshake::isolated_regions(&spec).is_empty())
    };
    let mut rng = Rng::new(SALT);
    let params = NetGenParams::default();
    let mut out = Vec::with_capacity(CORPUS);
    let mut set_aside = 0;
    let mut drawn = 0;
    while out.len() < CORPUS {
        let slot = out.len();
        let (stages, lanes) = (1 + slot % 3, 1 + (slot / 3) % 3);
        drawn += 1;
        if drawn > 2000 * CORPUS {
            return Err("corpus generation stopped converging".into());
        }
        let recipe = NetRecipe::sample(&mut rng, &params);
        let gates: usize = recipe.stages.iter().map(|s| s.cloud.len()).sum();
        if recipe.stages.len() == stages
            && recipe.stages[0].ffs.len() == lanes
            && gates == 3 * stages
        {
            let d = Design {
                seeded: false,
                ..from_recipe(format!("net{slot:02}"), recipe, hs)?
            };
            let module = drd_netlist::verilog::parse_module(&d.text).map_err(|e| e.to_string())?;
            if isolated(&module) {
                set_aside += 1;
            } else {
                out.push(d);
            }
        }
    }
    Ok((out, set_aside))
}

/// Builds the inputs of workload `name` for `seed`.
pub fn build(name: &str, seed: u64, hs: &Library) -> Result<Inputs, String> {
    let desync = match name {
        "paper_cores" => ["dlx_small", "dlx_full", "armlike_small", "armlike_full"]
            .into_iter()
            .map(paper)
            .collect::<Result<Vec<_>, _>>()?,
        // Job cost varies ~20% between random meshes of one shape, so each
        // size is drawn MESHES_PER_SIZE times to keep that out of the
        // seed-to-seed spread.
        "region_mesh" => {
            let mut rng = Rng::new(seed ^ SALT);
            let mut meshes = Vec::new();
            for shape in [(16, 300, 8), (24, 400, 8)] {
                for k in 0..MESHES_PER_SIZE {
                    meshes.push(mesh(&mut rng, k, shape, hs)?);
                }
            }
            meshes
        }
        _ => return Err(format!("unknown workload `{name}`")),
    };
    // Serving a paper core costs ~0.1-0.2 s of request parsing alone, too
    // few samples for steady latency percentiles, so every workload's
    // serve phases carry the same small netgen traffic.
    let (serve, serve_set_aside) = corpus(hs)?;
    Ok(Inputs {
        desync,
        sim: vec![paper("dlx_small")?],
        serve,
        serve_set_aside,
    })
}
