//! Scaling curve of the parallel region-sliced flow.
//!
//! Generates stepped synthetic pipelines via `drd_check::netgen` (one
//! region per stage, STA-dominated clouds), runs the full flow serially
//! (`--jobs 1`) and with the host worker count, checks the artifacts are
//! byte-identical, and writes the speedup curve to `BENCH_scale.json`
//! (directory overridable via `DRD_BENCH_DIR`, default `results/` at the
//! workspace root).
//!
//! Also guards the `Regions::region_of` fix: per-lookup cost must stay
//! roughly flat as the design grows (the old linear scan scaled with the
//! region sizes, making the DDG/SDC loops quadratic).
//!
//! And guards per-unit pass cost: on a ladder of pipelines that grow by
//! adding identical stages (so every region and flip-flop is the same
//! work at every size), the serial per-flip-flop cost of `ffsub` and the
//! per-region costs of `region-delays` and `control-network` — each the
//! minimum over [`UNIT_REPS`] runs of the pass wall from the flow trace —
//! must not grow more than [`UNIT_RATIO_LIMIT`]x from the smallest to the
//! largest size. A per-unit step that redoes whole-design work (say, a
//! copy of the module's symbol table per flip-flop) fails it.
//!
//! On any violation the binary exits non-zero, so `scripts/verify.sh` can
//! gate on it.

use std::path::PathBuf;
use std::time::Instant;

use drd_check::netgen::{FfKind, FfRecipe, GateOp, NetRecipe, StageRecipe};
use drd_check::Rng;
use drd_core::region::{clean_for_grouping, group, GroupingOptions};
use drd_core::{DesyncOptions, Desynchronizer};
use drd_liberty::vlib90;

/// (stages, cloud gates per stage, register lanes per stage) steps.
const STEPS: [(usize, usize, usize); 4] = [(4, 60, 4), (4, 120, 6), (6, 200, 8), (8, 320, 8)];

/// Stage counts of the per-unit cost ladder (8x from first to last); every
/// stage has [`UNIT_CLOUD`] gates and [`UNIT_LANES`] flip-flops.
const UNIT_STAGES: [usize; 4] = [8, 16, 32, 64];
const UNIT_CLOUD: usize = 24;
const UNIT_LANES: usize = 4;
/// Serial flow runs per ladder size; each pass wall is the minimum.
const UNIT_REPS: usize = 9;
/// Largest allowed growth of a per-unit cost over the ladder.
const UNIT_RATIO_LIMIT: f64 = 2.0;
/// `(pass, unit)` pairs the ladder guards.
const UNIT_PASSES: [(&str, &str); 3] = [
    ("ffsub", "ff"),
    ("region-delays", "region"),
    ("control-network", "region"),
];

fn out_dir() -> PathBuf {
    std::env::var("DRD_BENCH_DIR").map_or_else(
        |_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results"),
        PathBuf::from,
    )
}

/// Deterministic stepped recipe: `stages` stages of `cloud` gates and
/// `width` plain flip-flops (plain lanes keep every region substitutable,
/// so no degradations shrink the parallel work).
fn recipe(rng: &mut Rng, stages: usize, cloud: usize, width: usize) -> NetRecipe {
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

/// Per-unit cost of each [`UNIT_PASSES`] entry at one ladder size (µs).
fn unit_costs(tool: &Desynchronizer<'_>, module: &drd_netlist::Module) -> ([f64; 3], usize, usize) {
    let opts = DesyncOptions {
        jobs: Some(1),
        ..DesyncOptions::default()
    };
    let mut best = [f64::INFINITY; 3];
    let (mut ffs, mut regions) = (0, 0);
    for _ in 0..UNIT_REPS {
        let (result, trace) = tool.run_traced(module.clone(), &opts).expect("flow runs");
        ffs = result.report.substituted_ffs;
        regions = result.report.regions.len();
        for (k, (pass, _)) in UNIT_PASSES.iter().enumerate() {
            let wall = trace
                .passes
                .iter()
                .find(|p| p.name == *pass)
                .map_or(0, |p| p.wall_ns);
            best[k] = best[k].min(wall as f64 / 1e3);
        }
    }
    let units = |unit: &str| if unit == "ff" { ffs } else { regions }.max(1) as f64;
    let mut per_unit = [0.0; 3];
    for (k, (_, unit)) in UNIT_PASSES.iter().enumerate() {
        per_unit[k] = best[k] / units(unit);
    }
    (per_unit, ffs, regions)
}

struct Point {
    label: String,
    cells: usize,
    regions: usize,
    serial_ns: u128,
    parallel_ns: u128,
}

fn main() {
    let lib = vlib90::high_speed();
    let tool = Desynchronizer::new(&lib).expect("library prepares");
    let workers = drd_check::runner::worker_count();
    let mut rng = Rng::new(0x5CA1_E0DD);

    let mut points: Vec<Point> = Vec::new();
    let mut lookup_ns: Vec<f64> = Vec::new();
    for (stages, cloud, width) in STEPS {
        let module = recipe(&mut rng, stages, cloud, width)
            .build()
            .expect("recipe builds");
        let cells = module.cells().count();

        let run = |jobs: usize| {
            let opts = DesyncOptions {
                jobs: Some(jobs),
                ..DesyncOptions::default()
            };
            let start = Instant::now();
            let result = tool.run(&module, &opts).expect("flow runs");
            let wall = start.elapsed().as_nanos();
            let verilog = drd_netlist::verilog::write_design(&result.design);
            (wall, result.sdc.clone(), verilog, result.report.regions.len())
        };
        let (serial_ns, serial_sdc, serial_v, regions) = run(1);
        let (parallel_ns, parallel_sdc, parallel_v, _) = run(workers);
        assert_eq!(serial_sdc, parallel_sdc, "SDC differs across worker counts");
        assert_eq!(serial_v, parallel_v, "Verilog differs across worker counts");

        // Per-lookup cost of region lookup at this size (the S2 guard).
        let mut probe = module.clone();
        clean_for_grouping(&mut probe, &lib);
        let grouped = group(&probe, &lib, &GroupingOptions::recommended()).expect("groups");
        let names: Vec<&str> = grouped
            .regions
            .iter()
            .flat_map(|r| r.cells.iter().map(String::as_str))
            .collect();
        const LOOKUPS: usize = 20_000;
        let start = Instant::now();
        let mut hits = 0usize;
        for i in 0..LOOKUPS {
            hits += usize::from(grouped.region_of(names[i % names.len()]).is_some());
        }
        assert_eq!(hits, LOOKUPS);
        lookup_ns.push(start.elapsed().as_nanos() as f64 / LOOKUPS as f64);

        let label = format!("{stages}x{cloud}+{width}");
        eprintln!(
            "{label:>10}: {cells} cells, {regions} regions, serial {:.1} ms, \
             parallel({workers}) {:.1} ms, lookup {:.0} ns",
            serial_ns as f64 / 1e6,
            parallel_ns as f64 / 1e6,
            lookup_ns.last().unwrap(),
        );
        points.push(Point {
            label,
            cells,
            regions,
            serial_ns,
            parallel_ns,
        });
    }

    // Non-quadratic guard: per-lookup time must not scale with design
    // size. The largest step is ~8x the smallest; the old linear scan
    // scaled proportionally, the prebuilt map stays flat. Bound is
    // generous for timer noise.
    let (first, last) = (lookup_ns[0].max(1.0), lookup_ns[lookup_ns.len() - 1]);
    let lookup_ratio = last / first;
    if lookup_ratio > 8.0 {
        eprintln!(
            "region_of per-lookup cost grew {lookup_ratio:.1}x from the smallest to the \
             largest design — lookup is no longer O(1)"
        );
        std::process::exit(1);
    }

    // Per-unit pass cost over the uniform-stage ladder.
    let mut unit_rows: Vec<(usize, usize, usize, [f64; 3])> = Vec::new();
    for stages in UNIT_STAGES {
        let module = recipe(&mut rng, stages, UNIT_CLOUD, UNIT_LANES)
            .build()
            .expect("recipe builds");
        let (per_unit, ffs, regions) = unit_costs(&tool, &module);
        eprintln!(
            "{stages:>4} stages: {ffs} ffs, {regions} regions, ffsub {:.2} us/ff, \
             region-delays {:.2} us/region, control-network {:.2} us/region",
            per_unit[0], per_unit[1], per_unit[2]
        );
        unit_rows.push((stages, ffs, regions, per_unit));
    }
    let unit_ratio: Vec<f64> = (0..UNIT_PASSES.len())
        .map(|k| unit_rows[unit_rows.len() - 1].3[k] / unit_rows[0].3[k].max(1e-3))
        .collect();
    for (k, (pass, unit)) in UNIT_PASSES.iter().enumerate() {
        if unit_ratio[k] > UNIT_RATIO_LIMIT {
            eprintln!(
                "{pass} per-{unit} cost grew {:.2}x over an {}x larger design (limit \
                 {UNIT_RATIO_LIMIT}x) — some per-{unit} step does whole-design work",
                unit_ratio[k],
                UNIT_STAGES[UNIT_STAGES.len() - 1] / UNIT_STAGES[0],
            );
            std::process::exit(1);
        }
    }

    let speedup = points
        .iter()
        .map(|p| p.serial_ns as f64 / p.parallel_ns.max(1) as f64)
        .fold(0.0f64, f64::max);

    let mut out = String::from("{\n  \"name\": \"scale\",\n");
    out.push_str(&format!("  \"workers\": {workers},\n"));
    out.push_str(&format!("  \"speedup\": {speedup:.3},\n"));
    out.push_str(&format!("  \"lookup_ratio\": {lookup_ratio:.3},\n"));
    out.push_str(&format!(
        "  \"ffsub_per_ff_ratio\": {:.3},\n  \"region_delays_per_region_ratio\": {:.3},\n  \
         \"control_network_per_region_ratio\": {:.3},\n",
        unit_ratio[0], unit_ratio[1], unit_ratio[2]
    ));
    out.push_str("  \"unit_cost\": [\n");
    for (i, (stages, ffs, regions, c)) in unit_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"stages\": {stages}, \"ffs\": {ffs}, \"regions\": {regions}, \
             \"ffsub_us_per_ff\": {:.3}, \"region_delays_us_per_region\": {:.3}, \
             \"control_network_us_per_region\": {:.3}}}{}\n",
            c[0],
            c[1],
            c[2],
            if i + 1 == unit_rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"cells\": {}, \"regions\": {}, \"serial_ns\": {}, \
             \"parallel_ns\": {}, \"speedup\": {:.3}}}{}\n",
            p.label,
            p.cells,
            p.regions,
            p.serial_ns,
            p.parallel_ns,
            p.serial_ns as f64 / p.parallel_ns.max(1) as f64,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");

    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("bench dir");
    let path = dir.join("BENCH_scale.json");
    std::fs::write(&path, out).expect("bench json written");
    eprintln!("wrote {} (speedup {speedup:.2}x at {workers} workers)", path.display());
}
