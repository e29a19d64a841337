//! The simulating half of the benchmark; `run.py` drives it and times
//! each invocation from outside. Every command prints one JSON line.
//!
//! - `reprobench pass --workload <w> --seed <n>`: one untraced, checked
//!   pass over the workload's points.
//! - `reprobench traced --workload <w> --seed <n>`: one traced pass, with
//!   the per-layer counts.
//! - `reprobench setup --workload <w> --seed <n> --part <engines|sources|both> --reps <r>`:
//!   builds without simulating, for set-up timing.
//! - `reprobench record`: prints the expected-results record of every
//!   workload at the default seed (`expected_default_seed.tsv`).

use std::process::ExitCode;

use bench::json::Json;
use reprobench::run::{
    engine_layer, expected_record, peak_rss_mib, record_line, setup, Part, Pass,
};
use reprobench::traced::{traced_pass, EngineStats, Trace};
use reprobench::workloads::{Point, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: reprobench <pass|traced> --workload <w> --seed <n>
       reprobench setup --workload <w> --seed <n> --part <engines|sources|both> --reps <r>
       reprobench record";

struct Args {
    workload: Workload,
    seed: u64,
    part: Part,
    reps: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut part = Part::Both;
    let mut reps = 1;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--reps" => reps = value.parse::<usize>().map_err(|_| bad())?,
            "--part" => {
                part = match value.as_str() {
                    "engines" => Part::Engines,
                    "sources" => Part::Sources,
                    "both" => Part::Both,
                    _ => return Err(bad()),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        part,
        reps,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if command == "record" && rest.is_empty() {
        record();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let points = args.workload.points(args.seed);
    let result = match command.as_str() {
        "pass" => Ok(pass(args.workload, args.seed, &points)),
        "traced" => Ok(traced(&points)),
        "setup" => setup(&points, args.part, args.reps).map(|()| Json::Null),
        _ => {
            eprintln!("unknown command {command}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(json) => {
            println!("{}", json.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn record() {
    println!("# workload\tpoint\tgib_s\tstate_digest (default seed; regenerate with `reprobench record`)");
    for workload in Workload::ALL {
        let points = workload.points(DEFAULT_SEED);
        let pass = Pass::run(&points, None);
        for (p, run) in points.iter().zip(&pass.runs) {
            let run = run.as_ref().expect("every default-seed point builds");
            println!("{}", record_line(workload, p, &run.report));
        }
    }
}

fn digest(d: u64) -> Json {
    Json::str(format!("{d:#018x}"))
}

fn failures(lines: &[String]) -> Json {
    Json::Arr(lines.iter().map(Json::str).collect())
}

/// One checked pass: per point its layer, cycles, `Engine::run` seconds
/// (engine telemetry), figure bar, payload bytes, state digest and failed
/// checks; plus the workload's paper error and this process's peak RSS.
fn pass(workload: Workload, seed: u64, points: &[Point]) -> Json {
    let expected = (seed == DEFAULT_SEED).then(|| expected_record(workload));
    let pass = Pass::run(points, expected.as_ref());
    let bars: Option<Vec<f64>> = pass
        .runs
        .iter()
        .map(|r| r.as_ref().ok().map(|r| r.bar))
        .collect();
    let paper_err = bars.map_or(f64::NAN, |bars| workload.paper_err_pct(points, &bars));
    let rows = points
        .iter()
        .zip(&pass.runs)
        .map(|(p, run)| {
            let mut row = vec![
                ("label", Json::str(&p.label)),
                ("layer", Json::str(engine_layer(&p.scenario))),
            ];
            match run {
                Ok(run) => row.extend([
                    ("cycles", Json::U64(run.report.cycles)),
                    ("run_s", Json::F64(run.run_s)),
                    ("bar", Json::F64(run.bar)),
                    ("payload_bytes", Json::U64(run.report.payload_bytes)),
                    ("state_digest", digest(run.report.state_digest)),
                    ("failures", failures(&run.failures)),
                ]),
                Err(e) => row.push(("failures", failures(std::slice::from_ref(e)))),
            }
            Json::obj(row)
        })
        .collect();
    Json::obj(vec![
        ("points", Json::Arr(rows)),
        ("paper_err_pct", Json::F64(paper_err)),
        (
            "peak_rss_mib",
            Json::F64(peak_rss_mib().unwrap_or(f64::NAN)),
        ),
    ])
}

/// One traced pass: per point its cycles, payload bytes and state digest
/// (for comparison with an untraced pass) or why it failed; plus the
/// per-layer counts.
fn traced(points: &[Point]) -> Json {
    let trace = traced_pass(points);
    let rows = points
        .iter()
        .zip(&trace.reports)
        .map(|(p, report)| {
            let mut row = vec![("label", Json::str(&p.label))];
            match report {
                Ok(r) => row.extend([
                    ("cycles", Json::U64(r.cycles)),
                    ("payload_bytes", Json::U64(r.payload_bytes)),
                    ("state_digest", digest(r.state_digest)),
                    ("failures", failures(&[])),
                ]),
                Err(e) => row.push(("failures", failures(std::slice::from_ref(e)))),
            }
            Json::obj(row)
        })
        .collect();
    let layers = layer_counts(&trace)
        .into_iter()
        .map(|(name, value, unit)| {
            (
                name,
                Json::obj(vec![("value", Json::F64(value)), ("unit", Json::str(unit))]),
            )
        })
        .collect();
    Json::obj(vec![
        ("points", Json::Arr(rows)),
        ("layers", Json::obj(layers)),
    ])
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer counts. Every name is reported on every workload, as 0
/// where its layer does not run (`packetnoc.*` outside `fig4-uniform`).
fn layer_counts(t: &Trace) -> Vec<(String, f64, &'static str)> {
    let mut out = Vec::new();
    for (layer, s) in [("patronoc", &t.patronoc), ("packetnoc", &t.packetnoc)] {
        let EngineStats {
            steps,
            work_items,
            skip_attempts,
            skips,
            cycles_skipped,
            cycles,
            slab_allocs,
            ..
        } = *s;
        let steps = steps as f64;
        for (name, value, unit) in [
            ("steps", steps, "count"),
            (
                "work_items_per_step",
                ratio(work_items as f64, steps),
                "items/step",
            ),
            ("cycles_skipped", cycles_skipped as f64, "cycles"),
            (
                "skip_hit_ratio",
                ratio(skips as f64, skip_attempts as f64),
                "ratio",
            ),
            (
                "slab_allocs_per_kcycle",
                ratio(1000.0 * slab_allocs as f64, cycles as f64),
                "1/kcycle",
            ),
        ] {
            out.push((format!("{layer}.{name}"), value, unit));
        }
    }
    let tr = &t.traffic;
    for (name, value, unit) in [
        (
            "patronoc.slab_high_water",
            t.patronoc.slab_high_water as f64,
            "count",
        ),
        (
            "patronoc.peak_link_occupancy",
            t.patronoc.peak_link_occupancy,
            "ratio",
        ),
        ("traffic.poll_calls", tr.poll_calls as f64, "count"),
        (
            "traffic.poll_hit_ratio",
            ratio(tr.poll_hits as f64, tr.poll_calls as f64),
            "ratio",
        ),
        (
            "traffic.on_complete_calls",
            tr.on_complete_calls as f64,
            "count",
        ),
        (
            "traffic.next_arrival_calls",
            tr.next_arrival_calls as f64,
            "count",
        ),
        (
            "snap.bytes",
            ratio(t.snap_bytes as f64, t.snaps as f64),
            "B",
        ),
    ] {
        out.push((name.to_string(), value, unit));
    }
    out
}
