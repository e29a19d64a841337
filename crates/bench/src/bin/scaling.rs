//! Mesh-size scaling study (paper §VI future work: "explore different NoC
//! topologies which might be suited for emerging DNN platforms"), doubling
//! as the simulator's speed-per-mesh-size record.
//!
//! Simulates saturated uniform-random copies on 8×8, 16×16 and 32×32
//! meshes at DW = 64 and reports, per mesh size: modelled area, bisection
//! bandwidth, measured saturation throughput, the hottest link's
//! data-channel occupancy, and the simulator's serial speed taken from the
//! report's own `cycles_per_sec` wall-clock telemetry.
//!
//! Every point runs **sequentially** (never through `--jobs` workers):
//! each timed run must own the machine or its speed would be polluted by
//! sweep-level parallelism. `--quick` (or `SCALING_QUICK=1`) shrinks the
//! window; `--json PATH` writes `BENCH_scaling.json`.

use bench::json::Json;
use bench::sweep::SweepOptions;
use patronoc::Topology;
use physical::{bisection::bisection_bandwidth_gib_s, AreaModel, BisectionCounting};
use scenario::{Scenario, TrafficSpec};
use simkit::SimReport;

struct MeshRow {
    dim: usize,
    area_kge: f64,
    bisection_gib_s: f64,
    peak_link_occupancy: f64,
    report: SimReport,
}

fn scaling_scenario(dim: usize, window: u64, warmup: u64) -> Scenario {
    Scenario::patronoc()
        .topology(Topology::Mesh {
            cols: dim,
            rows: dim,
        })
        .data_width(64)
        .traffic(TrafficSpec::uniform_copies(1.0, 4096))
        .warmup(warmup)
        .window(window)
        .seed(21)
}

fn main() {
    let opts = SweepOptions::parse("SCALING_QUICK");
    let window = if opts.quick { 3_000 } else { 30_000 };
    let warmup = window / 5;
    let model = AreaModel::calibrated();
    let dims = [8usize, 16, 32];

    let results: Vec<MeshRow> = dims
        .iter()
        .map(|&dim| {
            let sc = scaling_scenario(dim, window, warmup);
            // Through the concrete engine for the link-occupancy probe the
            // Engine trait does not carry.
            let mut sim = sc.build_noc_sim().expect("valid scaling scenario");
            let mut src = sc.build_source();
            let report = sim.run(&mut *src, sc.warmup + sc.window, sc.warmup);
            MeshRow {
                dim,
                area_kge: model.mesh_area_kge(sc.topology, sim.config().axi),
                bisection_gib_s: bisection_bandwidth_gib_s(
                    sc.topology,
                    sc.data_width,
                    BisectionCounting::BothWays,
                ),
                peak_link_occupancy: sim.peak_link_occupancy(),
                report,
            }
        })
        .collect();

    println!(
        "{:>8} {:>12} {:>14} {:>14} {:>12} {:>14}",
        "mesh", "area (kGE)", "bisect (GiB/s)", "thr (GiB/s)", "peak link", "cyc/s"
    );
    let mut meshes = Vec::new();
    for row in &results {
        println!(
            "{:>8} {:>12.0} {:>14.1} {:>14.2} {:>11.1}% {:>14.0}",
            format!("{0}x{0}", row.dim),
            row.area_kge,
            row.bisection_gib_s,
            row.report.throughput_gib_s,
            100.0 * row.peak_link_occupancy,
            row.report.cycles_per_sec,
        );
        meshes.push(Json::obj(vec![
            ("mesh", Json::str(format!("{0}x{0}", row.dim))),
            ("area_kge", Json::F64(row.area_kge)),
            ("bisection_gib_s", Json::F64(row.bisection_gib_s)),
            ("gib_s", Json::F64(row.report.throughput_gib_s)),
            ("peak_link_occupancy", Json::F64(row.peak_link_occupancy)),
            ("cycles_per_sec", Json::F64(row.report.cycles_per_sec)),
        ]));
    }
    println!();
    println!("Uniform random copies, DW = 64, MOT = 8, bursts ≤ 4 KiB, load 1.0.");

    opts.emit_json(&Json::obj(vec![
        ("figure", Json::str("scaling")),
        ("schema_version", Json::U64(3)),
        ("quick", Json::Bool(opts.quick)),
        ("window", Json::U64(window)),
        ("warmup", Json::U64(warmup)),
        ("meshes", Json::Arr(meshes)),
    ]));
}
