//! The two solve-service workloads, `serve_hot` and `serve_churn`.
//!
//! One generator thread drives one [`SolveService`].  In the open-loop
//! phase requests fall due on a seeded Poisson schedule at a fixed offered
//! rate, whatever the service is doing; each request is timed from its due
//! time, so a stall also delays the requests queued behind it.  The queue is
//! flushed when it reaches the admission window or when no arrival is due
//! yet.  A saturated phase then issues back to back and prices the service
//! by the time it spends inside `submit` and `flush`.
//!
//! Answers are checked while the generator is idle, or after the phase,
//! never inside a timed interval.  Barriered sparse and dense answers must
//! be bitwise equal to a solo solve made at set-up; sync-free answers must
//! be within 1e-12 relative.

use crate::stats::{median, percentile, window_median};
use catrsm::{SchedulePolicy, SolveRequest};
use dense::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{Completion, Operand, ServiceConfig, ServiceRequest, ServiceStats, SolveService};
use sparse::{gen as sgen, SparseTri};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Rows of both sparse factors.
pub const SPARSE_N: usize = 40_000;
/// Sub-diagonal entries per row of the wide factor.
pub const WIDE_FILL: usize = 5;
/// Rows per level of the deep narrow factor.
pub const DEEP_WIDTH: usize = 4;
/// Dependencies per row of the deep narrow factor.
pub const DEEP_DEPS: usize = 3;
/// Plan-cache capacity of both serve workloads.  The cache splits into 8
/// shards of 3 entries, so the 4 hot keys fit whatever they hash to.
pub const CACHE_CAPACITY: usize = 24;
/// Most requests fused into one execute.
pub const ADMISSION_WINDOW: usize = 16;
/// Distinct operands `serve_churn` visits cyclically: 4x the cache.
pub const CHURN_KEYS: usize = 4 * CACHE_CAPACITY;
/// Offered rate of the `serve_hot` open-loop phase (requests per second).
pub const HOT_RATE_RPS: f64 = 130.0;
/// Offered rate of the `serve_churn` open-loop phase (requests per second).
pub const CHURN_RATE_RPS: f64 = 85.0;
/// Fewest requests in an open-loop phase: each third of it holds 1000, so
/// at least 10 lie beyond that third's p99.
pub const MIN_OPEN_REQUESTS: usize = 3000;
/// Right-hand sides per operand class; requests draw one uniformly.
const RHS_POOL: usize = 8;
/// Most completed answers held for checking.
const MAX_UNCHECKED: usize = 16;
/// Fraction of `--seconds` spent in the open-loop phase; the saturated
/// phase takes most of the rest.
const OPEN_SHARE: f64 = 0.8;
const SATURATED_SHARE: f64 = 0.15;

/// The operand classes every request draws from, in [`CLASSES`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `random_lower` (fill 5), a wide DAG, on the Level executor.
    Wide,
    /// `deep_narrow_lower`, a deep narrow DAG, on the Merged executor.
    Deep,
    /// Dense lower factor, n = 256.
    D256,
    /// Dense lower factor, n = 512.
    D512,
}

/// Every class, in the order requests index them.
pub const CLASSES: [Class; 4] = [Class::Wide, Class::Deep, Class::D256, Class::D512];

impl Class {
    /// Short name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Class::Wide => "wide",
            Class::Deep => "deep",
            Class::D256 => "d256",
            Class::D512 => "d512",
        }
    }

    /// The request shape of this class.
    pub fn request(self) -> SolveRequest {
        match self {
            Class::Wide => SolveRequest::lower().policy(SchedulePolicy::Level),
            Class::Deep => SolveRequest::lower().policy(SchedulePolicy::Merged),
            Class::D256 | Class::D512 => SolveRequest::lower(),
        }
    }

    fn generate(self, seed: u64) -> Operand {
        match self {
            Class::Wide => Operand::Sparse(Arc::new(sgen::random_lower(SPARSE_N, WIDE_FILL, seed))),
            Class::Deep => Operand::Sparse(Arc::new(sgen::deep_narrow_lower(
                SPARSE_N, DEEP_WIDTH, DEEP_DEPS, seed,
            ))),
            Class::D256 => Operand::Dense(Arc::new(dense::gen::well_conditioned_lower(256, seed))),
            Class::D512 => Operand::Dense(Arc::new(dense::gen::well_conditioned_lower(512, seed))),
        }
    }
}

/// A copy of `op` with a fresh object identity.  A sparse copy of an
/// operand that was never analyzed starts with empty analysis caches.
pub fn fresh_copy(op: &Operand) -> Operand {
    match op {
        Operand::Sparse(a) => Operand::Sparse(Arc::new(SparseTri::clone(a))),
        Operand::Dense(a) => Operand::Dense(Arc::new(Matrix::clone(a))),
    }
}

/// `a` with every stored value multiplied by `s`, a power of two.
fn scaled(op: &Operand, s: f64) -> Operand {
    match op {
        Operand::Dense(a) => Operand::Dense(Arc::new(a.scale(s))),
        Operand::Sparse(a) => {
            let n = a.n();
            let mut row_ptr = Vec::with_capacity(n + 1);
            let mut cols = Vec::with_capacity(a.nnz());
            let mut vals = Vec::with_capacity(a.nnz());
            row_ptr.push(0);
            for i in 0..n {
                let (c, v) = a.row_entries(i);
                cols.extend_from_slice(c);
                vals.extend(v.iter().map(|x| x * s));
                // Lower factors store the diagonal last in each row.
                cols.push(i);
                vals.push(a.diag_value(i) * s);
                row_ptr.push(cols.len());
            }
            Operand::Sparse(Arc::new(
                SparseTri::from_csr(n, a.triangle(), a.diag(), &row_ptr, &cols, &vals)
                    .expect("a scaled copy of a valid factor is valid"),
            ))
        }
    }
}

/// Scale exponent of churn variant `v`: variants of one class differ only
/// by a power-of-two factor, so each is a distinct cache key whose exact
/// answer is the reference answer scaled by the inverse power of two.
fn variant_exponent(v: usize) -> i32 {
    v as i32 - (CHURN_KEYS / CLASSES.len() / 2) as i32
}

/// One class's operands, right-hand sides and reference answers.
pub struct ClassData {
    /// The class.
    pub class: Class,
    /// Generated once and never solved, so its copies start unanalyzed.
    pub master: Operand,
    /// The operand hot traffic presents (a copy of `master`).
    pub hot: Operand,
    /// Churn variants (empty unless built for `serve_churn`).
    pub variants: Vec<Operand>,
    /// The right-hand-side pool.
    pub rhs: Vec<Vec<f64>>,
    /// Solo reference solve of `master` for each pool entry.
    pub reference: Vec<Vec<f64>>,
}

/// Everything the serve workloads generate at set-up.
pub struct ServeSetup {
    /// Per-class data, indexed like [`CLASSES`].
    pub classes: Vec<ClassData>,
}

impl ServeSetup {
    /// The data of one class.
    pub fn class(&self, c: Class) -> &ClassData {
        &self.classes[c as usize]
    }

    /// Generate the operands, the right-hand-side pool and the reference
    /// answers from `seed`; with `variants`, also the churn population.
    pub fn build(seed: u64, variants: bool) -> ServeSetup {
        let classes = CLASSES
            .iter()
            .enumerate()
            .map(|(ci, &class)| {
                let cseed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (ci as u64 + 1);
                let master = class.generate(cseed);
                let n = master.n();
                let rhs: Vec<Vec<f64>> = (0..RHS_POOL)
                    .map(|r| sgen::rhs_vec(n, cseed ^ ((r as u64 + 1) << 32)))
                    .collect();
                let reference = solo_solves(class, &master, &rhs);
                let variants = if variants {
                    (0..CHURN_KEYS / CLASSES.len())
                        .map(|v| scaled(&master, 2f64.powi(variant_exponent(v))))
                        .collect()
                } else {
                    Vec::new()
                };
                ClassData {
                    class,
                    hot: fresh_copy(&master),
                    master,
                    variants,
                    rhs,
                    reference,
                }
            })
            .collect();
        ServeSetup { classes }
    }
}

/// Solve each right-hand side alone through a plan of its own, on a copy of
/// `master` so the master stays unanalyzed.
fn solo_solves(class: Class, master: &Operand, rhs: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let req = class.request();
    match fresh_copy(master) {
        Operand::Sparse(a) => {
            let plan = req.plan_sparse(&a, 1).expect("reference plan");
            rhs.iter()
                .map(|b| plan.execute_sparse_vec(&a, b).expect("reference solve").x)
                .collect()
        }
        Operand::Dense(a) => {
            let plan = req.plan_dense(a.rows(), 1).expect("reference plan");
            rhs.iter()
                .map(|b| plan.execute_dense_vec(&a, b).expect("reference solve").x)
                .collect()
        }
    }
}

/// Which serve workload is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Uniform draws from the four hot operands.
    Hot,
    /// Cyclic visits of [`CHURN_KEYS`] operand variants, each request a
    /// fresh copy.
    Churn,
}

impl Mix {
    /// The fixed offered rate of this mix's open-loop phase.
    pub fn rate(self) -> f64 {
        match self {
            Mix::Hot => HOT_RATE_RPS,
            Mix::Churn => CHURN_RATE_RPS,
        }
    }
}

/// What one request asks for.
#[derive(Debug, Clone, Copy)]
struct Pick {
    class: usize,
    /// Churn variant, or `None` for the hot operand.
    variant: Option<usize>,
    rhs: usize,
}

/// One issued request and its timeline (seconds since the phase start).
#[derive(Debug, Clone, Copy)]
struct Issued {
    pick: Pick,
    due: f64,
    submitted: f64,
}

/// Measurements of one generator phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests issued.
    pub attempted: u64,
    /// Requests that errored or returned a wrong answer.
    pub failed: u64,
    /// Due time to completion, per request (ms).
    pub latency_ms: Vec<f64>,
    /// Issue time minus due time, per request (ms).
    pub lag_ms: Vec<f64>,
    /// Time from `submit` returning to the start of the flush that ran
    /// the request (ms).
    pub queue_wait_ms: Vec<f64>,
    /// Whether each `submit` hit the plan cache; filled only while tracing.
    pub submit_hits: Vec<bool>,
    /// Time spent inside `submit` and `flush` (s).
    pub busy_s: f64,
    /// Requests issued and busy time, cumulative, at the end of each flush.
    pub flush_marks: Vec<(u64, f64)>,
    /// Due time of the last request (s).
    pub span_s: f64,
    /// Service accounting over the phase.
    pub stats: ServiceStats,
    /// Level and merged analyses run on the submitted sparse operands;
    /// counted only while tracing.
    pub analyses: usize,
    /// One-request cost (submit + flush of a lone request) per class (ms);
    /// filled by [`Generator::one_at_a_time`].
    pub lone_ms: Vec<Vec<f64>>,
}

/// The single generator thread: owns the service, the request stream and
/// the answer checks.
pub struct Generator<'a> {
    setup: &'a ServeSetup,
    mix: Mix,
    svc: SolveService,
    rng: StdRng,
    /// Churn visit order over `(class, variant)` keys.
    order: Vec<(usize, usize)>,
    next_key: usize,
    /// Hot classes left in the current shuffled round.
    deck: Vec<usize>,
    /// Flip one bit of the next checked answer (tests the checker).
    corrupt: bool,
    /// Recycled right-hand-side buffers by length.
    buffers: HashMap<usize, Vec<Vec<f64>>>,
}

impl<'a> Generator<'a> {
    /// A generator with a fresh service; `seed` draws the request stream.
    pub fn new(setup: &'a ServeSetup, mix: Mix, seed: u64, corrupt: bool) -> Generator<'a> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_F00D);
        let per_class = if mix == Mix::Churn {
            assert!(setup.classes.iter().all(|c| !c.variants.is_empty()));
            CHURN_KEYS / CLASSES.len()
        } else {
            0
        };
        let mut order: Vec<(usize, usize)> = (0..per_class)
            .flat_map(|v| (0..CLASSES.len()).map(move |c| (c, v)))
            .collect();
        // Seeded Fisher-Yates shuffle of the visit order.
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        // A fixed buffer pool sized for a full queue plus the answers
        // awaiting their check, so memory does not follow the traffic.
        let mut buffers: HashMap<usize, Vec<Vec<f64>>> = HashMap::new();
        for data in &setup.classes {
            let n = data.rhs[0].len();
            buffers.entry(n).or_insert_with(|| {
                (0..ADMISSION_WINDOW + MAX_UNCHECKED + 2)
                    .map(|_| vec![0.0; n])
                    .collect()
            });
        }
        Generator {
            setup,
            mix,
            svc: SolveService::new(ServiceConfig {
                plan_cache_capacity: CACHE_CAPACITY,
                admission_window: ADMISSION_WINDOW,
            }),
            rng,
            order,
            next_key: 0,
            deck: Vec::new(),
            corrupt,
            buffers,
        }
    }

    fn pick(&mut self) -> Pick {
        let rhs = self.rng.gen_range(0..RHS_POOL);
        match self.mix {
            Mix::Hot => {
                // Each run of four requests holds every class once, in a
                // seeded order: uniform draws without the class mix itself
                // drifting from run to run.
                if self.deck.is_empty() {
                    self.deck.extend(0..CLASSES.len());
                    for i in (1..self.deck.len()).rev() {
                        self.deck.swap(i, self.rng.gen_range(0..i + 1));
                    }
                }
                Pick {
                    class: self.deck.pop().expect("the deck was just refilled"),
                    variant: None,
                    rhs,
                }
            }
            Mix::Churn => {
                let (class, v) = self.order[self.next_key % self.order.len()];
                self.next_key += 1;
                Pick {
                    class,
                    variant: Some(v),
                    rhs,
                }
            }
        }
    }

    /// Build the request for `pick`: a fresh operand copy for churn, the
    /// shared hot operand otherwise, and a right-hand-side buffer.
    fn prepare(&mut self, pick: Pick) -> ServiceRequest {
        let data = &self.setup.classes[pick.class];
        let operand = match pick.variant {
            Some(v) => match &data.variants[v] {
                op @ Operand::Sparse(_) => fresh_copy(op),
                op @ Operand::Dense(_) => op.clone(),
            },
            None => data.hot.clone(),
        };
        let src = &data.rhs[pick.rhs];
        let mut rhs = self
            .buffers
            .get_mut(&src.len())
            .and_then(Vec::pop)
            .unwrap_or_default();
        rhs.clear();
        rhs.extend_from_slice(src);
        ServiceRequest {
            request: data.class.request(),
            operand,
            rhs,
        }
    }

    /// Check one completion against its reference answer; recycle its
    /// buffer.  Returns whether the answer is right.
    fn check(&mut self, pick: Pick, done: Completion) -> bool {
        let Completion { mut x, result, .. } = done;
        if self.corrupt {
            self.corrupt = false;
            if let Some(v) = x.first_mut() {
                *v = f64::from_bits(v.to_bits() ^ 1);
            }
        }
        let data = &self.setup.classes[pick.class];
        let reference = &data.reference[pick.rhs];
        // The variant's answer is the reference scaled by an exact power
        // of two.
        let unscale = 2f64.powi(-pick.variant.map_or(0, variant_exponent));
        let ok = match &result {
            Err(_) => false,
            Ok(report) if report.levels.map(|l| l.policy) == Some(SchedulePolicy::SyncFree) => {
                let (mut num, mut den) = (0.0f64, 0.0f64);
                for (a, r) in x.iter().zip(reference) {
                    num += (a - r * unscale).powi(2);
                    den += (r * unscale).powi(2);
                }
                x.len() == reference.len() && num.sqrt() <= 1e-12 * den.sqrt()
            }
            Ok(_) => {
                x.len() == reference.len()
                    && x.iter()
                        .zip(reference)
                        .all(|(a, r)| a.to_bits() == (r * unscale).to_bits())
            }
        };
        self.buffers.entry(x.len()).or_default().push(x);
        ok
    }

    /// Warm the service: one request per hot operand, or one full cycle
    /// of the churn keys, issued back to back.
    pub fn warm_up(&mut self) -> Phase {
        let count = match self.mix {
            Mix::Hot => 4 * CLASSES.len(),
            Mix::Churn => CHURN_KEYS,
        };
        self.saturated(count, f64::INFINITY)
    }

    /// Open loop: `count` requests on a Poisson schedule at `rate`.
    pub fn open_loop(&mut self, rate: f64, count: usize) -> Phase {
        let mut t = 0.0f64;
        let due: Vec<f64> = (0..count)
            .map(|_| {
                // `1 - u` lies in (0, 1], so the gap is finite and >= 0.
                t += -(1.0 - self.rng.gen_f64()).ln() / rate;
                t
            })
            .collect();
        self.drive(Some(&due), count, f64::INFINITY)
    }

    /// Back to back until `count` requests or `seconds` of busy time.
    pub fn saturated(&mut self, count: usize, seconds: f64) -> Phase {
        self.drive(None, count, seconds)
    }

    /// Issue `count` requests due at the given times (seconds from now; all
    /// due at once without a schedule); stop early once `busy_limit`
    /// seconds were spent inside the service.
    fn drive(&mut self, schedule: Option<&[f64]>, count: usize, busy_limit: f64) -> Phase {
        let due = |i: usize| schedule.map_or(0.0, |d| d[i]);
        let traced = obs::enabled();
        let before = self.svc.stats();
        let mut phase = Phase::default();
        let mut issued: HashMap<u64, Issued> = HashMap::new();
        let mut unchecked: Vec<(Pick, Completion)> = Vec::new();
        let mut queued_at: Vec<(u64, f64)> = Vec::new();
        let mut next = 0usize;
        let mut ready: Option<(Pick, ServiceRequest)> = None;
        let start = Instant::now();
        let now = || start.elapsed().as_secs_f64();
        loop {
            if next < count && phase.busy_s < busy_limit && now() >= due(next) {
                // Due: issue now, preparing first if the idle time did not.
                let (pick, req) = ready.take().unwrap_or_else(|| {
                    let pick = self.pick();
                    (pick, self.prepare(pick))
                });
                let t = now();
                let hits = traced.then(|| self.svc.stats().hits);
                // While tracing, count the analyses this submit ran on the
                // operand it carried.
                let sparse_op = match (&req.operand, traced) {
                    (Operand::Sparse(a), true) => Some((Arc::clone(a), analyses(a))),
                    _ => None,
                };
                let t0 = Instant::now();
                let submitted = {
                    let _span = obs::span("serve", "submit");
                    self.svc.submit(req)
                };
                let took = t0.elapsed();
                phase.busy_s += took.as_secs_f64();
                phase.attempted += 1;
                if let Some(h) = hits {
                    phase.submit_hits.push(self.svc.stats().hits > h);
                }
                if let Some((a, before)) = sparse_op {
                    phase.analyses += analyses(&a) - before;
                }
                phase.lag_ms.push((t - due(next)) * 1e3);
                match submitted {
                    Ok(ticket) => {
                        let record = Issued {
                            pick,
                            due: due(next),
                            submitted: now(),
                        };
                        queued_at.push((ticket.0, record.submitted));
                        issued.insert(ticket.0, record);
                    }
                    Err(_) => phase.failed += 1,
                }
                next += 1;
                if self.svc.queue_depth() >= ADMISSION_WINDOW {
                    self.flush(&mut phase, &mut issued, &mut unchecked, &mut queued_at, now);
                }
            } else if self.svc.queue_depth() > 0 {
                self.flush(&mut phase, &mut issued, &mut unchecked, &mut queued_at, now);
            } else if next >= count || phase.busy_s >= busy_limit {
                break;
            } else if ready.is_none() {
                // Idle until the next arrival: prepare it, check answers,
                // then wait.
                let pick = self.pick();
                ready = Some((pick, self.prepare(pick)));
            } else if let Some((pick, done)) = unchecked.pop() {
                if !self.check(pick, done) {
                    phase.failed += 1;
                }
            } else {
                // Spin rather than sleep: waking a halted virtual CPU can
                // take milliseconds on a busy host, and that delay would
                // land on the next request's latency.
                std::hint::spin_loop();
            }
            // Back to back there is no idle time: check between flushes,
            // outside the busy time.  The bound keeps memory flat if an
            // open loop falls behind.
            if schedule.is_none() || unchecked.len() >= MAX_UNCHECKED {
                for (pick, done) in unchecked.drain(..) {
                    if !self.check(pick, done) {
                        phase.failed += 1;
                    }
                }
            }
        }
        for (pick, done) in unchecked.drain(..) {
            if !self.check(pick, done) {
                phase.failed += 1;
            }
        }
        phase.span_s = if next > 0 { due(next - 1) } else { 0.0 };
        phase.stats = stats_delta(&self.svc.stats(), &before);
        phase
    }

    fn flush(
        &mut self,
        phase: &mut Phase,
        issued: &mut HashMap<u64, Issued>,
        unchecked: &mut Vec<(Pick, Completion)>,
        queued_at: &mut Vec<(u64, f64)>,
        now: impl Fn() -> f64,
    ) {
        let t0 = Instant::now();
        let started = now();
        let done = {
            let _span = obs::span("serve", "flush");
            self.svc.flush()
        };
        let took = t0.elapsed().as_secs_f64();
        let finished = now();
        phase.busy_s += took;
        phase.flush_marks.push((phase.attempted, phase.busy_s));
        for (_, at) in queued_at.drain(..) {
            phase.queue_wait_ms.push((started - at) * 1e3);
        }
        for c in done {
            let record = issued
                .remove(&c.ticket.0)
                .expect("flush returns only submitted tickets");
            phase.latency_ms.push((finished - record.due) * 1e3);
            unchecked.push((record.pick, c));
        }
    }

    /// Issue `count` requests one at a time (submit, then flush), checking
    /// each; records each lone request's cost by class.
    pub fn one_at_a_time(&mut self, count: usize) -> Phase {
        let mut phase = Phase {
            lone_ms: vec![Vec::new(); CLASSES.len()],
            ..Phase::default()
        };
        let before = self.svc.stats();
        for _ in 0..count {
            let pick = self.pick();
            let req = self.prepare(pick);
            let hits = self.svc.stats().hits;
            let t0 = Instant::now();
            let submitted = {
                let _span = obs::span("serve", "submit");
                self.svc.submit(req)
            };
            let submit_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let mut done = {
                let _span = obs::span("serve", "flush");
                self.svc.flush()
            };
            let flush_s = t1.elapsed().as_secs_f64();
            phase.attempted += 1;
            phase.submit_hits.push(self.svc.stats().hits > hits);
            phase.lone_ms[pick.class].push((submit_s + flush_s) * 1e3);
            match (submitted, done.pop()) {
                (Ok(_), Some(c)) if done.is_empty() => {
                    if !self.check(pick, c) {
                        phase.failed += 1;
                    }
                }
                _ => phase.failed += 1,
            }
        }
        phase.stats = stats_delta(&self.svc.stats(), &before);
        phase
    }
}

/// Level plus merged analyses `a` has run.
fn analyses(a: &SparseTri) -> usize {
    a.analysis_count() + a.merged_analysis_count()
}

fn stats_delta(now: &ServiceStats, before: &ServiceStats) -> ServiceStats {
    ServiceStats {
        requests: now.requests - before.requests,
        errors: now.errors - before.errors,
        hits: now.hits - before.hits,
        misses: now.misses - before.misses,
        evictions: now.evictions - before.evictions,
        plan_builds: now.plan_builds - before.plan_builds,
        batches: now.batches - before.batches,
        fused_requests: now.fused_requests - before.fused_requests,
        max_batch_width: now.max_batch_width,
        max_queue_depth: now.max_queue_depth,
    }
}

/// Requests per window of the windowed open-loop median.
const LATENCY_WINDOW: usize = 200;
/// Flushes per window of the windowed saturated rate.
const RATE_WINDOW: usize = 4;

/// Median over windows of [`RATE_WINDOW`] flushes of requests per second
/// of busy time.
fn saturated_rate(sat: &Phase) -> f64 {
    let mut last = (0u64, 0.0f64);
    let rates: Vec<f64> = sat
        .flush_marks
        .iter()
        .skip(RATE_WINDOW - 1)
        .step_by(RATE_WINDOW)
        .map(|&(n, busy)| {
            let rate = (n - last.0) as f64 / (busy - last.1);
            last = (n, busy);
            rate
        })
        .collect();
    if rates.is_empty() {
        sat.attempted as f64 / sat.busy_s
    } else {
        median(&rates)
    }
}

/// End-to-end results of one serve workload run.
pub struct ServeRun {
    /// Requests attempted in the measured phases.
    pub attempted: u64,
    /// Requests failed in the measured phases.
    pub failed: u64,
    /// Open-loop latency median (ms).
    pub latency_p50_ms: f64,
    /// Open-loop latency 99th percentile (ms).
    pub latency_p99_ms: f64,
    /// Saturated-phase requests per second of service busy time.
    pub throughput_rps: f64,
    /// Open-loop phase, for reporting.
    pub open: Phase,
}

/// Run one serve workload for about `seconds`: warm-up, open loop at the
/// mix's fixed rate, then the saturated phase.
pub fn run(setup: &ServeSetup, mix: Mix, seed: u64, seconds: f64, corrupt: bool) -> ServeRun {
    let mut gen = Generator::new(setup, mix, seed, corrupt);
    let warm = gen.warm_up();
    let count = ((mix.rate() * OPEN_SHARE * seconds) as usize).max(MIN_OPEN_REQUESTS);
    let open = gen.open_loop(mix.rate(), count);
    let sat = gen.saturated(usize::MAX, SATURATED_SHARE * seconds);
    ServeRun {
        attempted: warm.attempted + open.attempted + sat.attempted,
        failed: warm.failed + open.failed + sat.failed,
        latency_p50_ms: window_median(&open.latency_ms, LATENCY_WINDOW, median),
        // A p99 rests on a few bursts of arrivals; the median over the
        // phase's thirds keeps one unusual burst from setting it.
        latency_p99_ms: window_median(&open.latency_ms, open.latency_ms.len() / 3, |w| {
            percentile(w, 0.99)
        }),
        throughput_rps: saturated_rate(&sat),
        open,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_answer_is_counted_as_failed() {
        let setup = ServeSetup::build(1, false);
        let clean = Generator::new(&setup, Mix::Hot, 1, false).one_at_a_time(8);
        assert_eq!((clean.attempted, clean.failed), (8, 0));
        let corrupt = Generator::new(&setup, Mix::Hot, 1, true).one_at_a_time(8);
        assert_eq!((corrupt.attempted, corrupt.failed), (8, 1));
    }

    #[test]
    fn churn_variants_answer_the_scaled_reference_exactly() {
        let setup = ServeSetup::build(2, true);
        let mut gen = Generator::new(&setup, Mix::Churn, 2, false);
        let p = gen.one_at_a_time(2 * CLASSES.len());
        assert_eq!(p.failed, 0);
        assert_eq!(p.stats.misses, p.attempted);
    }
}
