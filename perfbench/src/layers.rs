//! The traced run: per-layer metrics.
//!
//! Tracing is process-global, so the probes run one operation at a time,
//! each inside a window that starts from empty buffers.  The benchmark's
//! own spans surround every layer call, named by crate (`serve`, `core`,
//! `sparse`, `dense`, `pgrid`, `simnet`); the timings below are the
//! durations of those spans, and for `serve`, whose calls contain the
//! program's own `core`/`planner`/`sparse` spans, their self times.  All
//! windows are written out at the end as one Chrome trace, which
//! `obs::chrome::validate` must accept.
//!
//! Every per-layer metric is reported whatever the workload.  The serve
//! traffic metrics (`harness.*`, hit ratio, batching, queue wait, flush)
//! come from the named workload's own traffic, or from `serve_hot` traffic
//! when the workload is `dist_trsm`.  `obs.trace_overhead` is the named
//! workload's traced time over its untraced time on the same work.

use crate::dist::{self, Alg, DistSetup, ALGS};
use crate::serve_load::{fresh_copy, Class, Generator, Mix, Phase, ServeSetup};
use crate::stats::{median, percentile};
use crate::{metric, Args, Metric, Outcome, Workload};
use obs::{EventKind, Lane, TraceDump};
use serve::Operand;
use std::collections::BTreeMap;

/// Requests in the traced open-loop traffic window.
const TRAFFIC_REQUESTS: usize = 200;
/// Lone requests in each of the hot (hit) and churn (miss) windows.
const LONE_REQUESTS: usize = 48;
/// Repetitions of each direct layer call.
const REPS: usize = 15;
/// Traced distributed solves per algorithm.
const DIST_REPS: usize = 6;
/// Untraced/traced alternations of the overhead measurement.
const OVERHEAD_REPS: usize = 5;

/// Durations and self times of one span name, in recording order.
#[derive(Default)]
struct Samples {
    dur_ms: Vec<f64>,
    self_ms: Vec<f64>,
}

/// Span samples of one window, keyed by `(category, name)`.
#[derive(Default)]
struct SpanTable(BTreeMap<(&'static str, &'static str), Samples>);

impl SpanTable {
    /// Pair begins and ends per wall lane with a stack; a span's self time
    /// is its duration minus that of the spans it directly contains.
    fn from_dump(dump: &TraceDump) -> SpanTable {
        let mut table = SpanTable::default();
        for thread in dump.threads.iter().filter(|t| t.lane == Lane::Wall) {
            // (category, name, begin, time covered by children)
            let mut stack: Vec<(&'static str, &'static str, u64, u64)> = Vec::new();
            for ev in &thread.events {
                match ev.kind {
                    EventKind::Begin => stack.push((ev.cat, ev.name, ev.ts_ns, 0)),
                    EventKind::End => {
                        let Some((cat, name, begin, children)) = stack.pop() else {
                            continue;
                        };
                        let dur = ev.ts_ns.saturating_sub(begin);
                        if let Some(parent) = stack.last_mut() {
                            parent.3 += dur;
                        }
                        let s = table.0.entry((cat, name)).or_default();
                        s.dur_ms.push(dur as f64 / 1e6);
                        s.self_ms.push(dur.saturating_sub(children) as f64 / 1e6);
                    }
                    _ => {}
                }
            }
        }
        table
    }

    fn get(&self, cat: &'static str, name: &'static str) -> &Samples {
        static EMPTY: Samples = Samples {
            dur_ms: Vec::new(),
            self_ms: Vec::new(),
        };
        self.0.get(&(cat, name)).unwrap_or(&EMPTY)
    }

    /// Median duration of a span (ms).
    fn dur(&self, cat: &'static str, name: &'static str) -> f64 {
        med(&self.get(cat, name).dur_ms)
    }
}

/// Median, or NaN for an empty sample (reported as a failure).
fn med(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        median(v)
    }
}

/// Collects the trace windows for the final Chrome export.
#[derive(Default)]
struct Windows {
    dump: TraceDump,
}

impl Windows {
    /// Run `f` traced, from empty buffers; return its result and the span
    /// table of its window.
    fn traced<T>(&mut self, f: impl FnOnce() -> T) -> (T, SpanTable) {
        obs::clear();
        obs::set_enabled(true);
        let out = f();
        obs::set_enabled(false);
        let dump = obs::collect_all();
        let table = SpanTable::from_dump(&dump);
        self.dump.dropped += dump.dropped;
        for t in dump.threads {
            if let Some(known) = self.dump.threads.iter_mut().find(|k| k.tid == t.tid) {
                known.events.extend(t.events);
            } else if t.lane == Lane::Wall || !self.dump.threads.iter().any(|k| k.lane == t.lane) {
                // Every machine run restarts the virtual clock on the same
                // per-rank tracks, so only the first run's sim lanes are
                // exported.
                self.dump.threads.push(t);
            }
        }
        (out, table)
    }
}

fn add_phase(out: &mut Outcome, p: &Phase) {
    out.attempted += p.attempted;
    out.failed += p.failed;
}

/// Self times of the `serve/submit` spans of a window, split by whether the
/// submit hit the plan cache (µs).
fn submit_self_us(table: &SpanTable, phase: &Phase, hit: bool) -> Vec<f64> {
    table
        .get("serve", "submit")
        .self_ms
        .iter()
        .zip(&phase.submit_hits)
        .filter(|(_, &h)| h == hit)
        .map(|(ms, _)| ms * 1e3)
        .collect()
}

/// The serve traffic window: warm up untraced, then trace an open-loop
/// phase at the mix's fixed rate.
fn traffic(w: &mut Windows, setup: &ServeSetup, mix: Mix, args: &Args, out: &mut Outcome) {
    let mut gen = Generator::new(setup, mix, args.seed, false);
    add_phase(out, &gen.warm_up());
    let (p, table) = w.traced(|| gen.open_loop(mix.rate(), TRAFFIC_REQUESTS));
    add_phase(out, &p);
    let s = p.stats;
    let executes = s.batches + (s.requests - s.fused_requests);
    let per_kreq = |x: u64| x as f64 * 1e3 / s.requests.max(1) as f64;
    out.metrics.extend([
        metric("harness.lag_p99_ms", percentile(&p.lag_ms, 0.99), "ms"),
        metric("harness.offered_rps", p.attempted as f64 / p.span_s, "1/s"),
        metric(
            "serve.flush_ms",
            med(&table.get("serve", "flush").self_ms),
            "ms",
        ),
        metric("serve.queue_wait_ms", med(&p.queue_wait_ms), "ms"),
        metric("serve.hit_ratio", s.hit_ratio(), "ratio"),
        metric(
            "serve.batch_width",
            s.requests as f64 / executes.max(1) as f64,
            "count",
        ),
        metric(
            "serve.fused_frac",
            s.fused_requests as f64 / s.requests.max(1) as f64,
            "ratio",
        ),
        metric(
            "serve.plan_builds_per_kreq",
            per_kreq(s.plan_builds),
            "count",
        ),
        metric("serve.evictions_per_kreq", per_kreq(s.evictions), "count"),
        metric(
            "sparse.analyses_per_kreq",
            per_kreq(p.analyses as u64),
            "count",
        ),
    ]);
}

/// Lone hot requests (hits) and lone churn requests (misses), each
/// submitted and flushed on its own, against direct warm executes.
fn serve_and_core(w: &mut Windows, setup: &ServeSetup, args: &Args, out: &mut Outcome) {
    let mut hot = Generator::new(setup, Mix::Hot, args.seed, false);
    add_phase(out, &hot.warm_up());
    let (hp, ht) = w.traced(|| hot.one_at_a_time(LONE_REQUESTS));
    add_phase(out, &hp);
    let mut churn = Generator::new(setup, Mix::Churn, args.seed, false);
    add_phase(out, &churn.warm_up());
    let (cp, ct) = w.traced(|| churn.one_at_a_time(LONE_REQUESTS));
    add_phase(out, &cp);
    out.metrics.extend([
        metric(
            "serve.submit_hit_us",
            med(&submit_self_us(&ht, &hp, true)),
            "us",
        ),
        metric(
            "serve.submit_miss_us",
            med(&submit_self_us(&ct, &cp, false)),
            "us",
        ),
    ]);

    // The sparse figure is the wide factor's, the dense one n = 512's.
    let (wide, d512) = (
        &setup.class(Class::Wide).master,
        &setup.class(Class::D512).master,
    );
    let ((), t) = w.traced(|| {
        for _ in 0..REPS {
            if let Operand::Sparse(a) = wide {
                let _span = obs::span("serve", "fingerprint_sparse");
                std::hint::black_box(serve::fingerprint_sparse(a));
            }
        }
        for _ in 0..REPS {
            if let Operand::Dense(a) = d512 {
                let _span = obs::span("serve", "fingerprint_dense");
                let o = Class::D512.request().opts();
                std::hint::black_box(serve::fingerprint_dense(a, o.triangle, o.diag));
            }
        }
    });
    let (fp_sparse, fp_dense) = (
        t.dur("serve", "fingerprint_sparse"),
        t.dur("serve", "fingerprint_dense"),
    );
    let lone = |c: Class| med(&hp.lone_ms[c as usize]);
    out.metrics.extend([
        metric("serve.fingerprint_sparse_us", fp_sparse * 1e3, "us"),
        metric("serve.fingerprint_dense_us", fp_dense * 1e3, "us"),
        // Share of a lone hot request's cost spent hashing its operand.
        metric(
            "serve.fingerprint_share.wide",
            fp_sparse / lone(Class::Wide),
            "ratio",
        ),
        metric(
            "serve.fingerprint_share.d512",
            fp_dense / lone(Class::D512),
            "ratio",
        ),
    ]);

    // Planning on never-analyzed copies (a miss's lowering, analysis
    // included) and warm direct executes on the analyzed hot operands.
    let mut barriers = [0usize; 4];
    let mut levels = [0usize; 4];
    let ((), t) = w.traced(|| {
        for (ci, data) in setup.classes.iter().enumerate() {
            let req = data.class.request();
            let names = span_names(data.class);
            for _ in 0..REPS {
                let fresh = fresh_copy(&data.master);
                let _span = obs::span("core", names.plan);
                let plan = match &fresh {
                    Operand::Sparse(a) => req.plan_sparse(a, 1),
                    Operand::Dense(a) => req.plan_dense(a.rows(), 1),
                };
                std::hint::black_box(plan.expect("plan"));
            }
            let plan = match &data.hot {
                Operand::Sparse(a) => req.plan_sparse(a, 1),
                Operand::Dense(a) => req.plan_dense(a.rows(), 1),
            }
            .expect("plan");
            let mut x = data.rhs[0].clone();
            for _ in 0..REPS {
                x.copy_from_slice(&data.rhs[0]);
                let report = {
                    let _span = obs::span("core", names.execute);
                    match &data.hot {
                        Operand::Sparse(a) => plan.execute_sparse_vec_in_place(a, &mut x),
                        Operand::Dense(a) => plan.execute_dense_vec_in_place(a, &mut x),
                    }
                };
                out.attempted += 1;
                let exact = x
                    .iter()
                    .zip(&data.reference[0])
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                match report {
                    Ok(r) if exact => {
                        if let Some(l) = r.levels {
                            (barriers[ci], levels[ci]) = (l.barriers, l.levels);
                        }
                    }
                    _ => out.failed += 1,
                }
            }
        }
    });
    for (ci, data) in setup.classes.iter().enumerate() {
        let names = span_names(data.class);
        let (plan_ms, exec_ms) = (t.dur("core", names.plan), t.dur("core", names.execute));
        out.metrics.push(metric(
            format!("serve.hit_over_direct.{}", data.class.name()),
            lone(data.class) / exec_ms,
            "ratio",
        ));
        match data.class {
            Class::Wide | Class::Deep => {
                let n = data.class.name();
                out.metrics.extend([
                    metric(format!("core.plan_sparse_us.{n}"), plan_ms * 1e3, "us"),
                    metric(format!("core.execute_sparse_{n}_ms"), exec_ms, "ms"),
                    metric(format!("sparse.levels.{n}"), levels[ci] as f64, "count"),
                    metric(format!("sparse.barriers.{n}"), barriers[ci] as f64, "count"),
                ]);
            }
            Class::D512 => out
                .metrics
                .push(metric("core.plan_dense_us", plan_ms * 1e3, "us")),
            Class::D256 => {}
        }
        if let Class::D256 | Class::D512 = data.class {
            out.metrics.push(metric(
                format!("core.execute_dense_us.{}", data.class.name()),
                exec_ms * 1e3,
                "us",
            ));
        }
    }
}

/// Static span names of the per-class probes.
struct ClassSpans {
    plan: &'static str,
    execute: &'static str,
    analyze: &'static str,
    merged_build: &'static str,
}

fn span_names(class: Class) -> ClassSpans {
    match class {
        Class::Wide => ClassSpans {
            plan: "plan_wide",
            execute: "execute_wide",
            analyze: "analyze_wide",
            merged_build: "merged_build_wide",
        },
        Class::Deep => ClassSpans {
            plan: "plan_deep",
            execute: "execute_deep",
            analyze: "analyze_deep",
            merged_build: "merged_build_deep",
        },
        Class::D256 => ClassSpans {
            plan: "plan_d256",
            execute: "execute_d256",
            analyze: "",
            merged_build: "",
        },
        Class::D512 => ClassSpans {
            plan: "plan_d512",
            execute: "execute_d512",
            analyze: "",
            merged_build: "",
        },
    }
}

/// Level and merged analysis of never-analyzed copies of the sparse
/// factors.
fn sparse_analysis(w: &mut Windows, setup: &ServeSetup, out: &mut Outcome) {
    let sparse: Vec<_> = setup
        .classes
        .iter()
        .filter_map(|d| match &d.master {
            Operand::Sparse(a) => Some((d.class, a)),
            Operand::Dense(_) => None,
        })
        .collect();
    let ((), t) = w.traced(|| {
        for &(class, master) in &sparse {
            let names = span_names(class);
            for _ in 0..REPS {
                let fresh = sparse::SparseTri::clone(master);
                let schedule = {
                    let _span = obs::span("sparse", names.analyze);
                    sparse::Schedule::analyze(&fresh)
                };
                let _span = obs::span("sparse", names.merged_build);
                std::hint::black_box(sparse::MergedSchedule::build(&schedule, &fresh));
            }
        }
    });
    for &(class, _) in &sparse {
        let names = span_names(class);
        let n = class.name();
        out.metrics.extend([
            metric(
                format!("sparse.analyze_ms.{n}"),
                t.dur("sparse", names.analyze),
                "ms",
            ),
            metric(
                format!("sparse.merged_build_ms.{n}"),
                t.dur("sparse", names.merged_build),
                "ms",
            ),
        ]);
    }
}

/// GEMM and TRSM at a 2×2 rank's local block shapes: the 256×256 local
/// factor against a 256×32 local block of right-hand sides.
fn dense_kernels(w: &mut Windows, seed: u64, out: &mut Outcome) {
    let (m, k) = (dist::N / 2, dist::K / 2);
    let a = dense::gen::well_conditioned_lower(m, seed ^ 0xDE);
    let b = dense::gen::uniform(m, k, seed ^ 0xED);
    let mut c = dense::Matrix::zeros(m, k);
    let ((), t) = w.traced(|| {
        for _ in 0..REPS {
            let _span = obs::span("dense", "gemm_call");
            dense::gemm(1.0, &a, &b, 0.0, &mut c).expect("gemm shapes agree");
        }
        for _ in 0..REPS {
            let _span = obs::span("dense", "trsm_call");
            std::hint::black_box(
                dense::trsm(dense::Triangle::Lower, dense::Diag::NonUnit, &a, &b)
                    .expect("trsm shapes agree"),
            );
        }
    });
    let gemm = dense::flops::gemm_flops(m, m, k).get() as f64;
    let trsm = dense::flops::trsm_flops(m, k).get() as f64;
    out.metrics.extend([
        metric(
            "dense.gemm_gflops",
            gemm / (t.dur("dense", "gemm_call") * 1e6),
            "GFLOP/s",
        ),
        metric(
            "dense.trsm_gflops",
            trsm / (t.dur("dense", "trsm_call") * 1e6),
            "GFLOP/s",
        ),
    ]);
}

/// Distributed solves per algorithm, an empty machine run, and the
/// gather and transpose calls.
fn distributed(w: &mut Windows, setup: &DistSetup, out: &mut Outcome) {
    let mut exchange_ms = 0.0;
    let mut from_global = Vec::new();
    for alg in ALGS {
        let (solves, t) = w.traced(|| {
            (0..DIST_REPS)
                .map(|_| {
                    let _span = obs::span("simnet", "run_solve");
                    dist::solve(setup, alg, false, false)
                })
                .collect::<Vec<_>>()
        });
        exchange_ms += t.get("pgrid", "exchange_keyed").self_ms.iter().sum::<f64>();
        from_global.extend_from_slice(&t.get("pgrid", "from_global").dur_ms);
        let (mut exec, mut spread, mut s_drift, mut w_drift) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut counts = [0.0f64; 4];
        for s in &solves {
            out.attempted += 1;
            if !s.ok {
                out.failed += 1;
                continue;
            }
            let times: Vec<f64> = s.ranks.iter().map(|r| r.execute_ms).collect();
            let (lo, hi) = times
                .iter()
                .fold((f64::INFINITY, 0.0f64), |(l, h), &x| (l.min(x), h.max(x)));
            exec.push(hi);
            spread.push(hi - lo);
            let max = |f: fn(&dist::RankOut) -> u64| s.ranks.iter().map(f).max().unwrap_or(0);
            let predicted = s.ranks[0].predicted;
            s_drift.push(max(|r| r.comm.latency()) as f64 / predicted.latency);
            w_drift.push(max(|r| r.comm.bandwidth()) as f64 / predicted.bandwidth);
            if let Some(report) = &s.report {
                counts = [
                    report.max_messages() as f64,
                    report.max_words() as f64,
                    report.max_flops() as f64,
                    report.virtual_time() * 1e3,
                ];
            }
        }
        let n = alg.name();
        out.metrics.extend([
            metric(format!("core.execute_distributed_ms.{n}"), med(&exec), "ms"),
            metric(format!("simnet.msgs.{n}"), counts[0], "count"),
            metric(format!("simnet.words.{n}"), counts[1], "count"),
            metric(format!("simnet.flops.{n}"), counts[2], "count"),
            metric(format!("simnet.virtual_time_ms.{n}"), counts[3], "ms"),
            metric(format!("simnet.rank_spread_ms.{n}"), med(&spread), "ms"),
            metric(format!("costmodel.s_drift.{n}"), med(&s_drift), "ratio"),
            metric(format!("costmodel.w_drift.{n}"), med(&w_drift), "ratio"),
        ]);
    }
    let (extras, t) = w.traced(|| {
        let extras: Vec<_> = (0..DIST_REPS)
            .map(|_| dist::solve(setup, Alg::Rec, true, false))
            .collect();
        for _ in 0..REPS {
            let _span = obs::span("simnet", "run_empty");
            dist::machine().run(|_| ()).expect("an empty run succeeds");
        }
        extras
    });
    for s in &extras {
        out.attempted += 1;
        if !s.ok {
            out.failed += 1;
        }
    }
    out.metrics.extend([
        metric("pgrid.from_global_ms", med(&from_global), "ms"),
        metric("pgrid.to_global_ms", t.dur("pgrid", "gather"), "ms"),
        metric("pgrid.transpose_ms", t.dur("pgrid", "transpose"), "ms"),
        metric(
            "pgrid.exchange_keyed_self_ms",
            exchange_ms / (ALGS.len() * DIST_REPS) as f64,
            "ms",
        ),
        metric("simnet.run_overhead_ms", t.dur("simnet", "run_empty"), "ms"),
    ]);
}

/// Traced over untraced time of the same unit of the named workload's
/// work, alternating, as a ratio of medians.
fn trace_overhead(args: &Args, serve: &ServeSetup, dist: &DistSetup, out: &mut Outcome) -> f64 {
    let mut times = [Vec::new(), Vec::new()];
    let mut gen = args.workload.mix().map(|mix| {
        let mut g = Generator::new(serve, mix, args.seed, false);
        add_phase(out, &g.warm_up());
        g
    });
    for _ in 0..OVERHEAD_REPS {
        for (i, on) in [false, true].into_iter().enumerate() {
            obs::clear();
            obs::set_enabled(on);
            match gen.as_mut() {
                Some(g) => {
                    let p = g.saturated(64, f64::INFINITY);
                    add_phase(out, &p);
                    times[i].push(p.busy_s);
                }
                None => {
                    let mut wall_ms = 0.0;
                    for alg in ALGS {
                        let s = dist::solve(dist, alg, false, false);
                        out.attempted += 1;
                        out.failed += u64::from(!s.ok);
                        wall_ms += s.wall_ms;
                    }
                    times[i].push(wall_ms);
                }
            }
            obs::set_enabled(false);
        }
    }
    obs::clear();
    median(&times[1]) / median(&times[0])
}

/// Run the traced probes and report every per-layer metric.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let serve = ServeSetup::build(args.seed, true);
    let dist_setup = DistSetup::build(args.seed);
    let overhead = trace_overhead(args, &serve, &dist_setup, &mut out);

    let mut w = Windows::default();
    let mix = args.workload.mix().unwrap_or(Mix::Hot);
    traffic(&mut w, &serve, mix, args, &mut out);
    serve_and_core(&mut w, &serve, args, &mut out);
    sparse_analysis(&mut w, &serve, &mut out);
    dense_kernels(&mut w, args.seed, &mut out);
    distributed(&mut w, &dist_setup, &mut out);
    out.metrics
        .push(metric("obs.trace_overhead", overhead, "ratio"));

    // Events dropped under collector contention can leave spans without
    // their begin or end; those spans are taken out of the export, and the
    // drop count is reported.
    let json = obs::chrome::to_chrome_json(&balanced(&w.dump));
    let errors = obs::chrome::validate(&json);
    out.attempted += 1;
    if !errors.is_empty() {
        out.failed += 1;
        eprintln!(
            "perfbench: the Chrome trace is invalid: {:?}",
            &errors[..errors.len().min(3)]
        );
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let name = format!("trace-{}-{}.json", workload_name(args.workload), args.seed);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(&name), &json)) {
        Ok(()) => eprintln!("perfbench: wrote {}", dir.join(name).display()),
        Err(e) => eprintln!("perfbench: could not write the trace: {e}"),
    }
    out.metrics
        .push(metric("obs.dropped_events", w.dump.dropped as f64, "count"));
    out.notes.extend(self_time_notes(&w.dump));
    out
}

/// `dump` without the span events whose partner was dropped: an end
/// that closes no open span, and a begin that is never closed.
fn balanced(dump: &TraceDump) -> TraceDump {
    let mut out = dump.clone();
    for thread in &mut out.threads {
        let mut keep = vec![true; thread.events.len()];
        let mut open: Vec<usize> = Vec::new();
        for (i, ev) in thread.events.iter().enumerate() {
            match ev.kind {
                EventKind::Begin => open.push(i),
                EventKind::End => {
                    let e = &thread.events;
                    match open
                        .iter()
                        .rposition(|&b| e[b].cat == ev.cat && e[b].name == ev.name)
                    {
                        Some(at) => {
                            // Begins opened after the match lost their ends.
                            for b in open.drain(at..).skip(1) {
                                keep[b] = false;
                            }
                        }
                        None => keep[i] = false,
                    }
                }
                _ => {}
            }
        }
        for b in open {
            keep[b] = false;
        }
        let mut flags = keep.into_iter();
        thread.events.retain(|_| flags.next().unwrap_or(false));
    }
    out
}

fn workload_name(w: Workload) -> &'static str {
    match w {
        Workload::ServeHot => "serve_hot",
        Workload::ServeChurn => "serve_churn",
        Workload::DistTrsm => "dist_trsm",
    }
}

/// Total self time of every span name over the whole traced run, for
/// readers of the output (ms).
fn self_time_notes(dump: &TraceDump) -> Vec<Metric> {
    SpanTable::from_dump(dump)
        .0
        .iter()
        .map(|((cat, name), s)| {
            metric(
                format!("self_total.{cat}.{name}"),
                s.self_ms.iter().sum::<f64>(),
                "ms",
            )
        })
        .collect()
}
