//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <serve_hot|serve_churn|dist_trsm> --seed <n> \
//!           --seconds <s> --trace <0|1> [--corrupt-answer]
//! ```
//!
//! With `--trace 0` it runs the named workload with tracing off and reports
//! the end-to-end metrics; with `--trace 1` it runs the traced per-layer
//! probes instead (see `layers`).  Every answer is checked; a failed or
//! wrong answer makes the command exit 1.  `--corrupt-answer` flips one
//! answer before its check, which must make the run fail.
//!
//! Each metric prints on its own line as `name value unit`, and the last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

mod dist;
mod layers;
mod serve_load;
mod stats;

use std::fmt::Write as _;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop service traffic over a hot set that fits the plan cache.
    ServeHot,
    /// Open-loop service traffic over 4x the plan cache's capacity.
    ServeChurn,
    /// Closed-loop distributed solves on the simulated machine.
    DistTrsm,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "serve_hot" => Some(Workload::ServeHot),
            "serve_churn" => Some(Workload::ServeChurn),
            "dist_trsm" => Some(Workload::DistTrsm),
            _ => None,
        }
    }

    /// The serve traffic mix of this workload, if it is a serve workload.
    pub fn mix(self) -> Option<serve_load::Mix> {
        match self {
            Workload::ServeHot => Some(serve_load::Mix::Hot),
            Workload::ServeChurn => Some(serve_load::Mix::Churn),
            Workload::DistTrsm => None,
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measuring time of one run.
    pub seconds: f64,
    /// Run the traced per-layer probes instead of the end-to-end run.
    pub trace: bool,
    /// Corrupt one answer before its check.
    pub corrupt: bool,
}

const USAGE: &str = "usage: perfbench --workload <serve_hot|serve_churn|dist_trsm> \
                     --seed <n> --seconds <s> --trace <0|1> [--corrupt-answer]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut corrupt) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--corrupt-answer" {
            corrupt = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must lie in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        corrupt,
    })
}

/// One reported number.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Build a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Everything one invocation reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose answers were checked.
    pub attempted: u64,
    /// Operations that failed or answered wrong.
    pub failed: u64,
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// Further figures printed for readers, not part of the JSON.
    pub notes: Vec<Metric>,
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// Run `build` [`SETUP_REPS`] times and keep the last result, with the
/// median build time in seconds.
pub fn timed_setup<T>(build: impl Fn() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        // Free the previous copy first so the peak holds one set-up.
        drop(kept.take());
        let t = Instant::now();
        kept = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        kept.expect("at least one set-up ran"),
        stats::median(&times),
    )
}

fn end_to_end(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let steal_before = stats::cpu_steal();
    match args.workload.mix() {
        Some(mix) => {
            let (setup, setup_s) = timed_setup(|| {
                serve_load::ServeSetup::build(args.seed, mix == serve_load::Mix::Churn)
            });
            let run = serve_load::run(&setup, mix, args.seed, args.seconds, args.corrupt);
            out.attempted = run.attempted;
            out.failed = run.failed;
            out.metrics = vec![
                metric("latency_p50_ms", run.latency_p50_ms, "ms"),
                metric("latency_p99_ms", run.latency_p99_ms, "ms"),
                metric("throughput_rps", run.throughput_rps, "1/s"),
                metric("setup_s", setup_s, "s"),
            ];
            out.notes = vec![
                metric("offered_rps", mix.rate(), "1/s"),
                metric(
                    "open_loop_requests",
                    run.open.latency_ms.len() as f64,
                    "count",
                ),
                metric("open_loop_hit_ratio", run.open.stats.hit_ratio(), "ratio"),
                metric(
                    "open_loop_lag_p99_ms",
                    stats::percentile(&run.open.lag_ms, 0.99),
                    "ms",
                ),
            ];
        }
        None => {
            let (setup, setup_s) = timed_setup(|| dist::DistSetup::build(args.seed));
            let run = dist::run(&setup, args.seconds, args.corrupt);
            out.attempted = run.attempted;
            out.failed = run.failed;
            out.metrics = vec![
                metric("latency_p50_ms", stats::median(&run.pair_ms), "ms"),
                metric(
                    "latency_p99_ms",
                    stats::percentile(&run.pair_ms, 0.99),
                    "ms",
                ),
                metric("throughput_rps", run.throughput, "1/s"),
                metric("setup_s", setup_s, "s"),
            ];
            for (i, alg) in dist::ALGS.iter().enumerate() {
                let t = &run.solve_ms[i];
                out.notes.push(metric(
                    format!("{}_solve_p50_ms", alg.name()),
                    stats::median(t),
                    "ms",
                ));
                out.notes.push(metric(
                    format!("{}_solve_p90_ms", alg.name()),
                    stats::percentile(t, 0.9),
                    "ms",
                ));
            }
            out.notes
                .push(metric("timed_pairs", run.pair_ms.len() as f64, "count"));
        }
    }
    out.metrics
        .push(metric("peak_rss_mb", stats::peak_rss_mb(), "MiB"));
    // Time the host's other tenants took from this machine during the run:
    // the context for a noisy figure.
    let steal_after = stats::cpu_steal();
    out.notes.push(metric(
        "host_steal_frac",
        (steal_after.0 - steal_before.0) as f64 / (steal_after.1 - steal_before.1).max(1) as f64,
        "ratio",
    ));
    out.notes.push(metric(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    ));
    out
}

/// The final JSON line.
fn json(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0,
        out.attempted,
        out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Keep freed memory inside the process.  The serve workloads allocate and
/// free multi-megabyte operand copies at a high rate; by default glibc hands
/// such blocks back to the kernel and faults them in again, and on a virtual
/// machine whose host reclaims freed guest pages that round trip costs
/// milliseconds that vary with the host's state, not with the program.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only changes glibc allocator thresholds; it runs
    // once, before this process starts any other thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_freed_memory() {}

fn main() {
    keep_freed_memory();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut out = if args.trace {
        layers::run(&args)
    } else {
        end_to_end(&args)
    };
    // A value that is not a finite number cannot be reported; count it as
    // a failure rather than print invalid JSON.
    for m in &mut out.metrics {
        if !m.value.is_finite() {
            eprintln!("perfbench: {} is not finite", m.name);
            out.failed += 1;
            m.value = -1.0;
        }
    }
    for m in out.notes.iter().chain(&out.metrics) {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", json(&out));
    if out.failed > 0 {
        eprintln!(
            "perfbench: {} of {} checked operations failed or answered wrong",
            out.failed, out.attempted
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload dist_trsm --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::DistTrsm);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.corrupt),
            (7, 10.0, true, false)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload serve_hot --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload serve_hot --seed 1 --trace 0").is_err());
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let out = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![metric("setup_s", 0.25, "s")],
            notes: Vec::new(),
        };
        assert_eq!(
            json(&out),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
