//! The three figure workloads. Each is its figure binary's scenario grid,
//! built with the `bench` helpers; per-point seeds derive from the
//! benchmark seed through [`point_seed`] with the figures' coordinate
//! conventions, so [`DEFAULT_SEED`] reproduces the binaries' points.

use bench::defaults::{BURST_CAPS, LOADS, SEED};
use bench::sweep::point_seed;
use bench::{dnn_scenario, noxim_uniform_scenario, patronoc_uniform_scenario, synthetic_scenario};
use scenario::{PacketProfile, Scenario};
use simkit::SimReport;
use traffic::{DnnWorkload, SyntheticPattern};

/// The benchmark seed whose points are the figure binaries' points.
pub const DEFAULT_SEED: u64 = SEED;

/// Measurement window of the windowed workloads, in cycles: the size
/// `fig4 --quick` and `fig6 --quick` use. The full 200k-cycle window puts
/// one Fig. 4 pass at minutes, too long to repeat within a run.
const WINDOW: u64 = 30_000;
/// Warm-up of the windowed workloads, in cycles (the `--quick` size).
const WARMUP: u64 = 6_000;

/// The burst cap of Fig. 6's paper bars.
const MAX_BURST: u64 = BURST_CAPS[BURST_CAPS.len() - 1];

/// Data widths of the slim and wide PATRONoC.
const WIDTHS: [(u32, &str); 2] = [(32, "slim"), (512, "wide")];

/// The Fig. 6 patterns in the paper's bar order.
const PATTERNS: [(SyntheticPattern, &str); 3] = [
    (SyntheticPattern::AllGlobal, "all-global"),
    (SyntheticPattern::MaxTwoHop, "max-2-hop"),
    (SyntheticPattern::MaxSingleHop, "max-1-hop"),
];

/// Fig. 8 bars in the paper, GiB/s: `[slim, wide]` × Train / Par Conv /
/// Pipe Conv (what the `fig8` binary prints).
const FIG8_PAPER_GIB_S: [[f64; 3]; 2] = [[5.18, 4.27, 19.17], [83.1, 68.5, 310.7]];
/// Fig. 6 max-burst utilization bars in the paper, percent: `[slim,
/// wide]` × all-global / max-2-hop / max-1-hop.
const FIG6_PAPER_UTIL_PCT: [[f64; 3]; 2] = [[18.75, 53.75, 70.30], [18.55, 49.80, 67.40]];
/// Fig. 4's best-case saturation ratio in the paper: PATRONoC at 1000 B
/// bursts over the compact packet baseline (19 vs 2.25 GiB/s).
const FIG4_PAPER_RATIO: f64 = 8.4;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The six Fig. 8 DNN traces, one step each, run to drain.
    Fig8Dnn,
    /// The Fig. 6 grid at maximum load.
    Fig6Saturated,
    /// The Fig. 4 grid over the whole load axis.
    Fig4Uniform,
}

/// Which figure bar a point produces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A Fig. 8 trace on the NoC of data width `dw`; the bar is GiB/s.
    Dnn { dw: u32, workload: DnnWorkload },
    /// A Fig. 6 pattern at one burst cap; the bar is utilization in %.
    Saturated {
        dw: u32,
        pattern: SyntheticPattern,
        cap: u64,
    },
    /// A Fig. 4 point; the bar is GiB/s.
    Uniform { curve: Curve, load: f64 },
}

/// One Fig. 4 curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Curve {
    /// Slim PATRONoC at one burst cap.
    Patronoc { cap: u64 },
    /// The packet baseline; `index` is its seed coordinate (0 = compact,
    /// 1 = high-performance).
    Noxim { index: u64, profile: PacketProfile },
}

/// One simulated point of a workload.
#[derive(Debug, Clone)]
pub struct Point {
    /// Unique name within the workload.
    pub label: String,
    /// The figure bar it produces.
    pub kind: Kind,
    /// The recipe the figure binary runs.
    pub scenario: Scenario,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Self; 3] = [Self::Fig8Dnn, Self::Fig6Saturated, Self::Fig4Uniform];

    /// The name `--workload` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Fig8Dnn => "fig8-dnn",
            Self::Fig6Saturated => "fig6-saturated",
            Self::Fig4Uniform => "fig4-uniform",
        }
    }

    /// The workload called `name`, if any.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's points for benchmark seed `seed`, in the figure's
    /// print order.
    #[must_use]
    pub fn points(self, seed: u64) -> Vec<Point> {
        match self {
            Self::Fig8Dnn => fig8_points(seed),
            Self::Fig6Saturated => fig6_points(seed),
            Self::Fig4Uniform => fig4_points(seed),
        }
    }
}

/// The trace seed of every Fig. 8 point. The binary seeds all six traces
/// with 1, so the default seed maps to 1; any other seed derives one
/// trace seed with grid-family coordinate 3 (0–2 are Fig. 4 and Fig. 6).
#[must_use]
fn fig8_seed(seed: u64) -> u64 {
    if seed == DEFAULT_SEED {
        1
    } else {
        point_seed(seed, &[3])
    }
}

fn fig8_points(seed: u64) -> Vec<Point> {
    let trace_seed = fig8_seed(seed);
    WIDTHS
        .iter()
        .flat_map(|&(dw, noc)| {
            DnnWorkload::all().into_iter().map(move |workload| Point {
                label: format!("{noc}/{}", workload.name()),
                kind: Kind::Dnn { dw, workload },
                scenario: dnn_scenario(dw, workload, 1).seed(trace_seed),
            })
        })
        .collect()
}

fn fig6_points(seed: u64) -> Vec<Point> {
    let mut points = Vec::new();
    for &(dw, noc) in &WIDTHS {
        for &(pattern, name) in &PATTERNS {
            for cap in BURST_CAPS {
                points.push(Point {
                    label: format!("{noc}/{name}/{cap}"),
                    kind: Kind::Saturated { dw, pattern, cap },
                    // `bench::defaults::fig6_seed` with a variable base.
                    scenario: synthetic_scenario(dw, pattern, cap, WINDOW, WARMUP)
                        .seed(point_seed(seed, &[2, cap])),
                });
            }
        }
    }
    points
}

fn fig4_points(seed: u64) -> Vec<Point> {
    let mut curves: Vec<Curve> = BURST_CAPS
        .iter()
        .map(|&cap| Curve::Patronoc { cap })
        .collect();
    curves.push(Curve::Noxim {
        index: 0,
        profile: PacketProfile::Compact,
    });
    curves.push(Curve::Noxim {
        index: 1,
        profile: PacketProfile::HighPerformance,
    });
    let mut points = Vec::new();
    for (li, &load) in LOADS.iter().enumerate() {
        for &curve in &curves {
            // `bench::defaults::fig4_{patronoc,noxim}_seed` with a variable
            // base; 100 B is the binary's baseline transfer cap.
            let (label, scenario) = match curve {
                Curve::Patronoc { cap } => (
                    format!("patronoc-{cap}@{load}"),
                    patronoc_uniform_scenario(
                        32,
                        load,
                        cap,
                        WINDOW,
                        WARMUP,
                        point_seed(seed, &[0, cap, li as u64]),
                    ),
                ),
                Curve::Noxim { index, profile } => (
                    format!("noxim-{index}@{load}"),
                    noxim_uniform_scenario(
                        profile,
                        load,
                        100,
                        WINDOW,
                        WARMUP,
                        point_seed(seed, &[1, index, li as u64]),
                    ),
                ),
            };
            points.push(Point {
                label,
                kind: Kind::Uniform { curve, load },
                scenario,
            });
        }
    }
    points
}

impl Point {
    /// The figure bar this point's report gives: GiB/s, or for Fig. 6
    /// the utilization of the bisection data capacity, as
    /// [`bench::utilization_point`] computes it.
    #[must_use]
    pub fn bar(&self, report: &SimReport) -> f64 {
        match self.kind {
            Kind::Saturated { .. } => {
                let capacity = physical::bisection_data_capacity_gib_s(
                    self.scenario.topology,
                    self.scenario.data_width,
                );
                100.0 * report.throughput_gib_s / capacity
            }
            Kind::Dnn { .. } | Kind::Uniform { .. } => report.throughput_gib_s,
        }
    }
}

impl Workload {
    /// Mean absolute relative error, in %, of the workload's simulated
    /// bars (`bars[i]` belongs to `points[i]`) against the paper's values:
    /// the six Fig. 8 bars, the six max-burst Fig. 6 bars, or Fig. 4's
    /// best-case saturation ratio.
    ///
    /// # Panics
    ///
    /// Panics when `points` lacks a point the reference needs.
    #[must_use]
    pub fn paper_err_pct(self, points: &[Point], bars: &[f64]) -> f64 {
        let width = |dw: u32| usize::from(dw != 32);
        let pairs: Vec<(f64, f64)> = match self {
            Self::Fig4Uniform => {
                let saturated = |want: Curve| {
                    points
                        .iter()
                        .zip(bars)
                        .find(|(p, _)| {
                            p.kind
                                == Kind::Uniform {
                                    curve: want,
                                    load: 1.0,
                                }
                        })
                        .map(|(_, &bar)| bar)
                        .expect("the Fig. 4 grid has load 1.0")
                };
                let patronoc = saturated(Curve::Patronoc { cap: 1_000 });
                let compact = saturated(Curve::Noxim {
                    index: 0,
                    profile: PacketProfile::Compact,
                });
                vec![(patronoc / compact, FIG4_PAPER_RATIO)]
            }
            Self::Fig8Dnn | Self::Fig6Saturated => points
                .iter()
                .zip(bars)
                .filter_map(|(p, &bar)| match p.kind {
                    Kind::Dnn { dw, workload } => {
                        let wi = DnnWorkload::all().iter().position(|&w| w == workload)?;
                        Some((bar, FIG8_PAPER_GIB_S[width(dw)][wi]))
                    }
                    Kind::Saturated { dw, pattern, cap } if cap == MAX_BURST => {
                        let pi = PATTERNS.iter().position(|&(q, _)| q == pattern)?;
                        Some((bar, FIG6_PAPER_UTIL_PCT[width(dw)][pi]))
                    }
                    _ => None,
                })
                .collect(),
        };
        assert!(!pairs.is_empty(), "no paper reference for these points");
        let sum: f64 = pairs
            .iter()
            .map(|(sim, paper)| (sim - paper).abs() / paper)
            .sum();
        100.0 * sum / pairs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_the_figures_sizes_and_unique_labels() {
        for (w, n) in [
            (Workload::Fig8Dnn, 6),
            (Workload::Fig6Saturated, 30),
            (Workload::Fig4Uniform, 91),
        ] {
            let points = w.points(DEFAULT_SEED);
            assert_eq!(points.len(), n, "{}", w.name());
            let mut labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), n, "{} labels unique", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    #[test]
    fn default_seed_reproduces_the_binaries_seeds() {
        use bench::defaults::{fig4_noxim_seed, fig4_patronoc_seed, fig6_seed};
        for p in Workload::Fig6Saturated.points(DEFAULT_SEED) {
            let Kind::Saturated { cap, .. } = p.kind else {
                unreachable!()
            };
            assert_eq!(p.scenario.seed, fig6_seed(cap));
        }
        for p in Workload::Fig8Dnn.points(DEFAULT_SEED) {
            assert_eq!(p.scenario.seed, 1);
        }
        for p in Workload::Fig4Uniform.points(DEFAULT_SEED) {
            let Kind::Uniform { curve, load } = p.kind else {
                unreachable!()
            };
            let li = LOADS.iter().position(|&l| l == load).unwrap();
            let want = match curve {
                Curve::Patronoc { cap } => fig4_patronoc_seed(cap, li),
                Curve::Noxim { index, .. } => fig4_noxim_seed(index as usize, li),
            };
            assert_eq!(p.scenario.seed, want, "{}", p.label);
        }
        assert_ne!(fig8_seed(7), 1);
    }

    #[test]
    fn paper_values_score_zero_against_themselves() {
        let points = Workload::Fig8Dnn.points(DEFAULT_SEED);
        let bars: Vec<f64> = FIG8_PAPER_GIB_S.iter().flatten().copied().collect();
        assert_eq!(Workload::Fig8Dnn.paper_err_pct(&points, &bars), 0.0);
        let doubled: Vec<f64> = bars.iter().map(|b| 2.0 * b).collect();
        assert!((Workload::Fig8Dnn.paper_err_pct(&points, &doubled) - 100.0).abs() < 1e-9);
    }
}
