//! Regenerates **Fig. 6**: NoC utilization at maximum injected load for the
//! three synthetic patterns of Fig. 5 (all-global / max-2-hop /
//! max-1-hop) on the slim and wide 4×4 PATRONoC, across five DMA burst
//! caps. Utilization is relative to the bisection *data capacity* — both
//! DW-wide data channels (W and R) of every directed cut crossing, i.e.
//! twice the §IV both-ways bisection bandwidth (32 GiB/s slim, 512 GiB/s
//! wide in the paper's rounding) — which bounds it at 100 %.
//!
//! The 2 × 3 × 5 grid of `Scenario` values executes across `--jobs`
//! workers (env `BENCH_JOBS`); output is bit-identical for every worker
//! count. `--quick` (or `FIG6_QUICK=1`) runs a coarse sweep; `--json PATH`
//! writes machine-readable results.

use bench::defaults::{BURST_CAPS, WARMUP, WINDOW};
use bench::json::Json;
use bench::sweep::SweepOptions;
use bench::{synthetic_scenario, utilization_point};
use scenario::Scenario;
use traffic::SyntheticPattern;

fn main() {
    let opts = SweepOptions::parse("FIG6_QUICK");
    let (window, warmup) = if opts.quick {
        (30_000, 6_000)
    } else {
        (WINDOW, WARMUP)
    };
    let patterns = [
        (SyntheticPattern::AllGlobal, "All Global Access"),
        (SyntheticPattern::MaxTwoHop, "Max 2 Hop Access"),
        (SyntheticPattern::MaxSingleHop, "Max 1 Hop Access"),
    ];
    let widths = [(32u32, "Slim"), (512, "Wide")];

    let scenarios: Vec<(u64, Scenario)> = widths
        .iter()
        .flat_map(|&(dw, _)| {
            patterns.iter().flat_map(move |&(pattern, _)| {
                BURST_CAPS
                    .iter()
                    .map(move |&cap| (cap, synthetic_scenario(dw, pattern, cap, window, warmup)))
            })
        })
        .collect();
    let results = opts.run_points(&scenarios, |(cap, sc)| utilization_point(sc, *cap));
    let cell = |wi: usize, pi: usize, bi: usize| {
        results[(wi * patterns.len() + pi) * BURST_CAPS.len() + bi]
    };

    let mut groups = Vec::new();
    for (wi, (dw, name)) in widths.iter().enumerate() {
        for (pi, (_, pname)) in patterns.iter().enumerate() {
            println!("{name} NoC: {pname} (DW = {dw})");
            println!(
                "{:>14} {:>14} {:>16}",
                "burst cap (B)", "thr (GiB/s)", "utilization (%)"
            );
            let mut points = Vec::new();
            for bi in 0..BURST_CAPS.len() {
                let p = cell(wi, pi, bi);
                println!(
                    "{:>14} {:>14.2} {:>16.2}",
                    p.burst_cap, p.gib_s, p.utilization_pct
                );
                points.push(Json::obj(vec![
                    ("burst_cap", Json::U64(p.burst_cap)),
                    ("gib_s", Json::F64(p.gib_s)),
                    ("utilization_pct", Json::F64(p.utilization_pct)),
                ]));
            }
            println!();
            groups.push(Json::obj(vec![
                ("noc", Json::str(*name)),
                ("dw_bits", Json::U64(u64::from(*dw))),
                ("pattern", Json::str(*pname)),
                ("points", Json::Arr(points)),
            ]));
        }
    }
    println!("paper (max-burst bars): slim 18.75 / 53.75 / 70.30 %, wide 18.55 / 49.80 / 67.40 %");

    opts.emit_json(&Json::obj(vec![
        ("figure", Json::str("fig6")),
        ("quick", Json::Bool(opts.quick)),
        ("window", Json::U64(window)),
        ("warmup", Json::U64(warmup)),
        ("groups", Json::Arr(groups)),
    ]));
}
