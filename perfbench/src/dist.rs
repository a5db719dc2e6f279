//! The `dist_trsm` workload: the paper's distributed algorithms on the
//! simulated machine, closed loop with one caller.
//!
//! Each solve is one `Machine::run` on a 2×2 grid: the ranks distribute the
//! pre-generated global operands, plan and execute.  Solves alternate
//! between the recursive baseline and `Algorithm::Auto`, which the planner
//! turns into the iterative inversion-based algorithm.  Every answer is
//! checked against the known solution after its run, outside the timing.

use crate::stats::{hw_threads, ms, window_median};
use catrsm::{Algorithm, SolveRequest};
use costmodel::Cost;
use dense::Matrix;
use pgrid::{DistMatrix, Grid2D};
use simnet::{CostCounters, CostReport, Machine, MachineParams};
use std::time::Instant;

/// Order of the triangular factor.
pub const N: usize = 512;
/// Right-hand sides.
pub const K: usize = 64;
/// Simulated processors (a 2×2 grid).
pub const P: usize = 4;
/// Base-case size of the recursive baseline.
pub const REC_BASE: usize = 64;
/// Fewest timed solves per algorithm in a run.
pub const MIN_SOLVES: usize = 100;
/// Pairs per window of the windowed solve rate.
const RATE_WINDOW: usize = 20;
/// Largest relative error of an accepted answer.
const TOLERANCE: f64 = 1e-8;

/// The two algorithms the workload alternates between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alg {
    /// `Recursive { base_size: 64 }`, the paper's standard method.
    Rec,
    /// `Algorithm::Auto`, planned into iterative inversion.
    ItInv,
}

/// Both algorithms, in the order each pair runs them.
pub const ALGS: [Alg; 2] = [Alg::Rec, Alg::ItInv];

impl Alg {
    /// Short name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Alg::Rec => "rec",
            Alg::ItInv => "itinv",
        }
    }

    fn request(self) -> SolveRequest {
        match self {
            Alg::Rec => SolveRequest::lower().algorithm(Algorithm::Recursive {
                base_size: REC_BASE,
            }),
            Alg::ItInv => SolveRequest::lower(),
        }
    }
}

/// The global operands: `L`, the known solution `X` and `B = L·X`.
pub struct DistSetup {
    l: Matrix,
    x: Matrix,
    b: Matrix,
}

impl DistSetup {
    /// Generate the operands from `seed`.
    pub fn build(seed: u64) -> DistSetup {
        let l = dense::gen::well_conditioned_lower(N, seed ^ 0xD157);
        let x = dense::gen::uniform(N, K, seed ^ 0x50_1E);
        let mut b = Matrix::zeros(N, K);
        dense::gemm(1.0, &l, &x, 0.0, &mut b).expect("B = L·X shapes agree");
        DistSetup { l, x, b }
    }
}

/// What one rank hands back from a run.
pub struct RankOut {
    coords: (usize, usize),
    local: Matrix,
    /// Wall time of this rank's `Plan::execute_distributed` (ms).
    pub execute_ms: f64,
    /// This rank's counters over the execute.
    pub comm: CostCounters,
    /// The plan's predicted cost.
    pub predicted: Cost,
}

/// One timed distributed solve.
pub struct Solve {
    /// Wall time of the whole `Machine::run` (ms).
    pub wall_ms: f64,
    /// Whether every rank succeeded and the answer is within tolerance.
    pub ok: bool,
    /// Per-rank outputs (empty when the run failed).
    pub ranks: Vec<RankOut>,
    /// The run's cost report (`None` when the run failed).
    pub report: Option<CostReport>,
}

/// The machine every solve runs on: `MachineParams::cluster()`, with as
/// many ranks computing at once as the host has hardware threads.
pub fn machine() -> Machine {
    Machine::new(P, MachineParams::cluster()).with_rank_workers(hw_threads())
}

/// Run one solve.  With `extras`, each rank also gathers the solution and
/// transposes `L` after the solve, inside spans, for the per-layer probes.
pub fn solve(setup: &DistSetup, alg: Alg, extras: bool, corrupt: bool) -> Solve {
    let req = alg.request();
    let t0 = Instant::now();
    let out = machine().run(|comm| -> Result<RankOut, String> {
        let grid = Grid2D::new(comm, 2, 2).map_err(|e| e.to_string())?;
        let (l, b) = {
            let _span = obs::span("pgrid", "from_global");
            (
                DistMatrix::from_global(&grid, &setup.l),
                DistMatrix::from_global(&grid, &setup.b),
            )
        };
        let plan = req.plan_distributed(N, K, P).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let sol = {
            let _span = obs::span("core", "execute_distributed");
            plan.execute_distributed(&l, &b)
                .map_err(|e| e.to_string())?
        };
        let execute_ms = ms(t.elapsed());
        if extras {
            let _gather = {
                let _span = obs::span("pgrid", "gather");
                sol.x.try_to_global().map_err(|e| e.to_string())?
            };
            let _lt = {
                let _span = obs::span("pgrid", "transpose");
                pgrid::redist::transpose(&l, false).map_err(|e| e.to_string())?
            };
        }
        Ok(RankOut {
            coords: grid.my_coords(),
            local: sol.x.local().clone(),
            execute_ms,
            comm: sol.report.comm.unwrap_or_default(),
            predicted: plan.predicted_cost.unwrap_or(Cost::ZERO),
        })
    });
    let wall_ms = ms(t0.elapsed());
    let (ranks, report) = match out {
        Ok(run) => match run.results.into_iter().collect::<Result<Vec<_>, _>>() {
            Ok(ranks) => (ranks, Some(run.report)),
            Err(_) => (Vec::new(), None),
        },
        Err(_) => (Vec::new(), None),
    };
    let ok = report.is_some() && rel_error(setup, &ranks, corrupt) <= TOLERANCE;
    Solve {
        wall_ms,
        ok,
        ranks,
        report,
    }
}

/// Relative Frobenius error of the assembled solution against the known
/// `X`; `corrupt` perturbs one entry first (tests the checker).
fn rel_error(setup: &DistSetup, ranks: &[RankOut], corrupt: bool) -> f64 {
    let mut x = Matrix::zeros(N, K);
    for r in ranks {
        x.set_strided_block(r.coords.0, 2, r.coords.1, 2, &r.local);
    }
    if corrupt {
        x.as_mut_slice()[0] += 1.0;
    }
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for (a, e) in x.as_slice().iter().zip(setup.x.as_slice()) {
        num += (a - e).powi(2);
        den += e.powi(2);
    }
    // A NaN answer compares false against the tolerance.
    let err = num.sqrt() / den.sqrt();
    if err.is_nan() {
        f64::INFINITY
    } else {
        err
    }
}

/// End-to-end results of one `dist_trsm` run.
pub struct DistRun {
    /// Solves attempted (timed and warm-up).
    pub attempted: u64,
    /// Solves that failed or answered wrong.
    pub failed: u64,
    /// Wall time per solve, by algorithm (ms), in [`ALGS`] order.
    pub solve_ms: [Vec<f64>; 2],
    /// Wall time per pair of solves (ms).
    pub pair_ms: Vec<f64>,
    /// Solves per second of solving time, median over windows of pairs.
    pub throughput: f64,
}

/// Alternate the two algorithms for at least `seconds` and at least
/// [`MIN_SOLVES`] solves each, after one untimed warm-up pair.
pub fn run(setup: &DistSetup, seconds: f64, corrupt: bool) -> DistRun {
    let mut out = DistRun {
        attempted: 0,
        failed: 0,
        solve_ms: [Vec::new(), Vec::new()],
        pair_ms: Vec::new(),
        throughput: 0.0,
    };
    let mut corrupt = corrupt;
    let started = Instant::now();
    let mut warm = true;
    while warm || out.pair_ms.len() < MIN_SOLVES || started.elapsed().as_secs_f64() < seconds {
        let mut pair = 0.0;
        for (i, &alg) in ALGS.iter().enumerate() {
            let s = solve(setup, alg, false, std::mem::take(&mut corrupt));
            out.attempted += 1;
            if !s.ok {
                out.failed += 1;
            }
            if !warm {
                out.solve_ms[i].push(s.wall_ms);
                pair += s.wall_ms;
            }
        }
        if !warm {
            out.pair_ms.push(pair);
        }
        warm = false;
    }
    // Solves per second over windows of pairs, median across windows.
    out.throughput = window_median(&out.pair_ms, RATE_WINDOW, |w| {
        (2 * w.len()) as f64 / (w.iter().sum::<f64>() / 1e3)
    });
    out
}
