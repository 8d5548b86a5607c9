//! The solver workloads: a closed loop of SP or BT timesteps on threaded
//! ranks, checked against the serial reference.
//!
//! A timestep is `iterate` plus the global norm, as `run_with_norms` does.
//! Layers are timed from outside through public calls; the traced pass
//! additionally reads the spans the program records on the
//! `ThreadedComm::trace` recorder, exactly as `mpart profile` installs it.

use crate::plansim::{plan_one, PlanTimes};
use crate::report::{Metrics, Tally};
use crate::stats::{self, Interval};
use mp_core::cost::CostModel;
use mp_core::multipart::{Direction, Multipartitioning};
use mp_grid::{ArrayD, RankStore};
use mp_runtime::comm::Communicator as _;
use mp_runtime::threaded::{run_threaded_result, RunOpts, ThreadedComm};
use mp_sweep::compiled::SolverPlan;
use mp_sweep::executor::SweepOptions;
use mp_trace::{RankTrace, SpanKind, SweepRecorder, TraceFile};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Set-up repetitions per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 12;
/// Seconds of planning the workload's own configuration (`plans_per_s`),
/// split into `PLAN_BURSTS` bursts spread over the serial reference run.
const PLAN_SECONDS: f64 = 1.0;
const PLAN_BURSTS: usize = 20;
/// The largest p of the planning sweep on a solver workload.
const PLAN_P_MAX: u64 = 32;
/// Timed `exchange_halos` rounds in the traced run's isolation pass.
const HALO_ROUNDS: usize = 200;
/// Steps a pass runs at least: one warm-up step plus steady ones.
const MIN_STEPS: usize = 4;
/// Steps the Chrome trace keeps (the last steady ones), to bound its size.
const TRACE_WINDOW_STEPS: usize = 3;
/// Per-step norms must match the serial reference this closely.
const NORM_TOL: f64 = 1e-12;

/// One solver workload's fixed inputs.
#[derive(Clone, Copy)]
pub struct SolverSpec {
    pub p: u64,
    pub threads: usize,
    pub eta: [usize; 3],
    pub dt: f64,
}

impl SolverSpec {
    fn points(&self) -> u64 {
        self.eta.iter().map(|&e| e as u64).product()
    }

    fn eta_u64(&self) -> Vec<u64> {
        self.eta.iter().map(|&e| e as u64).collect()
    }

    fn opts(&self) -> SweepOptions {
        SweepOptions {
            threads: self.threads,
            ..SweepOptions::default()
        }
    }
}

/// What the benchmark needs from one application (SP or BT): the public
/// per-rank calls, the serial reference, and the simulator.
pub trait App {
    /// `nassp` or `nasbt`: the metric prefix of the application's stages.
    const PREFIX: &'static str;
    type Serial;

    fn new(rank: u64, spec: &SolverSpec, mp: Multipartitioning, opts: SweepOptions) -> Self;
    fn iterate(&mut self, comm: &mut ThreadedComm);
    fn norm(&mut self, comm: &mut ThreadedComm) -> f64;
    fn plan(&self) -> &SolverPlan;
    /// The halo exchanges of one timestep.
    fn exchange_halos(&mut self, comm: &mut ThreadedComm);
    fn into_store(self) -> RankStore;
    /// Indices of the solution fields (`u`, or every BT component).
    fn solution_fields() -> Vec<usize>;

    fn serial_new(spec: &SolverSpec) -> Self::Serial;
    fn serial_iterate(s: &mut Self::Serial);
    fn serial_norm(s: &Self::Serial) -> f64;
    fn serial_solution(s: &Self::Serial) -> Vec<ArrayD<f64>>;

    /// One simulated timestep: `(seconds, messages, elements)`, `None` when
    /// the partition over-cuts the grid.
    fn simulate(spec: &SolverSpec, model: &CostModel) -> Option<(f64, u64, u64)>;
}

/// The SP rank state, behind the [`App`] calls.
pub struct SpRank(mp_nassp::ParallelSp);
/// The BT rank state, behind the [`App`] calls.
pub struct BtRank(mp_nasbt::ParallelBt);

impl App for SpRank {
    const PREFIX: &'static str = "nassp";
    type Serial = mp_nassp::SerialSp;

    fn new(rank: u64, spec: &SolverSpec, mp: Multipartitioning, opts: SweepOptions) -> Self {
        let prob = mp_nassp::SpProblem::new(spec.eta, spec.dt);
        SpRank(mp_nassp::ParallelSp::with_opts(rank, prob, mp, opts))
    }
    fn iterate(&mut self, comm: &mut ThreadedComm) {
        self.0.iterate(comm);
    }
    fn norm(&mut self, comm: &mut ThreadedComm) -> f64 {
        self.0.u_norm(comm)
    }
    fn plan(&self) -> &SolverPlan {
        &self.0.plan
    }
    fn exchange_halos(&mut self, comm: &mut ThreadedComm) {
        let s = &mut self.0;
        // Same field, width and tag base as `ParallelSp::iterate`.
        s.plan.exchange_halos(
            comm,
            &mut s.store,
            &s.mp,
            mp_nassp::parallel::fields::U,
            1,
            10_000,
        );
    }
    fn into_store(self) -> RankStore {
        self.0.store
    }
    fn solution_fields() -> Vec<usize> {
        vec![mp_nassp::parallel::fields::U]
    }
    fn serial_new(spec: &SolverSpec) -> Self::Serial {
        mp_nassp::SerialSp::new(mp_nassp::SpProblem::new(spec.eta, spec.dt))
    }
    fn serial_iterate(s: &mut Self::Serial) {
        s.iterate();
    }
    fn serial_norm(s: &Self::Serial) -> f64 {
        s.u_norm()
    }
    fn serial_solution(s: &Self::Serial) -> Vec<ArrayD<f64>> {
        vec![s.u.clone()]
    }
    fn simulate(spec: &SolverSpec, model: &CostModel) -> Option<(f64, u64, u64)> {
        let prob = mp_nassp::SpProblem::new(spec.eta, spec.dt);
        let r = mp_nassp::simulate_sp(
            mp_nassp::SpVersion::GeneralizedDhpf,
            &prob,
            spec.p,
            model,
            &mp_nassp::SpWorkFactors::default(),
            1,
        )?;
        Some((r.seconds, r.messages, r.elements))
    }
}

impl App for BtRank {
    const PREFIX: &'static str = "nasbt";
    type Serial = mp_nasbt::SerialBt;

    fn new(rank: u64, spec: &SolverSpec, mp: Multipartitioning, opts: SweepOptions) -> Self {
        let prob = mp_nasbt::BtProblem::new(spec.eta, spec.dt);
        BtRank(mp_nasbt::ParallelBt::with_opts(rank, prob, mp, opts))
    }
    fn iterate(&mut self, comm: &mut ThreadedComm) {
        self.0.iterate(comm);
    }
    fn norm(&mut self, comm: &mut ThreadedComm) -> f64 {
        self.0.norm(comm)
    }
    fn plan(&self) -> &SolverPlan {
        &self.0.plan
    }
    fn exchange_halos(&mut self, comm: &mut ThreadedComm) {
        let s = &mut self.0;
        // Same fields, width and tag bases as `ParallelBt::iterate`.
        for c in 0..mp_nasbt::NCOMP {
            let f = mp_nasbt::parallel::fields::u(c);
            s.plan
                .exchange_halos(comm, &mut s.store, &s.mp, f, 1, 10_000 + c as u64 * 10);
        }
    }
    fn into_store(self) -> RankStore {
        self.0.store
    }
    fn solution_fields() -> Vec<usize> {
        (0..mp_nasbt::NCOMP)
            .map(mp_nasbt::parallel::fields::u)
            .collect()
    }
    fn serial_new(spec: &SolverSpec) -> Self::Serial {
        mp_nasbt::SerialBt::new(mp_nasbt::BtProblem::new(spec.eta, spec.dt))
    }
    fn serial_iterate(s: &mut Self::Serial) {
        s.iterate();
    }
    fn serial_norm(s: &Self::Serial) -> f64 {
        s.norm()
    }
    fn serial_solution(s: &Self::Serial) -> Vec<ArrayD<f64>> {
        s.u.clone()
    }
    fn simulate(spec: &SolverSpec, model: &CostModel) -> Option<(f64, u64, u64)> {
        let prob = mp_nasbt::BtProblem::new(spec.eta, spec.dt);
        let r =
            mp_nasbt::simulate_bt(&prob, spec.p, model, &mp_nasbt::BtWorkFactors::default(), 1)?;
        Some((r.seconds, r.messages, r.elements))
    }
}

/// Monotone counters read from the public API at a point of a pass.
#[derive(Clone, Copy, Default)]
struct Counters {
    builds: u64,
    build_ns: u64,
    pool_threads: usize,
    dispatches: u64,
    swept: u64,
    msgs: u64,
    elems: u64,
    backpressure: u64,
}

impl Counters {
    fn read(plan: &SolverPlan, comm: &ThreadedComm) -> Self {
        Counters {
            builds: plan.builds(),
            build_ns: plan.build_ns(),
            pool_threads: plan.pool_threads_spawned(),
            dispatches: plan.pool_dispatches(),
            swept: plan.elements_swept(),
            msgs: comm.sent_messages,
            elems: comm.sent_elements,
            backpressure: comm.send_backpressure,
        }
    }
}

/// One step as the rank saw it: start, after `iterate`, after the norm.
type Step = (Instant, Instant, Instant);

/// Everything one rank hands back from a pass.
struct RankOut {
    steps: Vec<Step>,
    norms: Vec<f64>,
    store: RankStore,
    /// Counters after step 1 and after the last step.
    first: Counters,
    last: Counters,
    /// `(dim, direction, per-phase in-place flags)` of every sweep plan.
    plan_modes: Vec<(usize, &'static str, Vec<bool>)>,
    trace: Option<RankTrace>,
    /// Nanoseconds per timed halo round, and elements sent per round.
    halo_ns: Vec<u64>,
    halo_elements: u64,
}

struct Pass {
    ranks: Vec<RankOut>,
    epoch: Instant,
}

impl Pass {
    fn steps(&self) -> usize {
        self.ranks[0].steps.len()
    }

    /// Slowest rank's step time, ms, for every step after the first.
    fn steady_step_ms(&self) -> Vec<f64> {
        (1..self.steps())
            .map(|k| {
                self.ranks
                    .iter()
                    .map(|r| (r.steps[k].2 - r.steps[k].0).as_secs_f64() * 1e3)
                    .fold(0.0, f64::max)
            })
            .collect()
    }

    /// Wall time from the first steady step's start to the last step's end.
    fn steady_wall_s(&self) -> f64 {
        let start = self
            .ranks
            .iter()
            .map(|r| r.steps[1].0)
            .min()
            .expect("ranks");
        let end = self
            .ranks
            .iter()
            .map(|r| r.steps.last().expect("steps").2)
            .max();
        (end.expect("ranks") - start).as_secs_f64()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

/// Run one closed-loop pass of at least `seconds` on `spec.p` ranks. With
/// `traced`, every rank carries a recorder and, after the loop, times
/// [`HALO_ROUNDS`] halo exchanges untraced.
fn run_pass<A: App>(
    spec: &SolverSpec,
    mp: &Multipartitioning,
    seconds: f64,
    traced: bool,
) -> Result<Pass, String> {
    let epoch = Instant::now();
    // Rank 0 publishes the last step once time is up. Ranks cannot drift
    // apart by more than one step: each step ends in an allreduce, so a
    // rank finishing step k + 1 has seen rank 0's store made before it.
    let stop = AtomicUsize::new(usize::MAX);
    let budget = Duration::from_secs_f64(seconds);
    let opts = spec.opts();
    let results = run_threaded_result(spec.p, RunOpts::default(), |comm| {
        if traced {
            comm.trace = Some(SweepRecorder::with_epoch(comm.rank(), epoch));
        }
        let mut app = A::new(comm.rank(), spec, mp.clone(), opts.clone());
        let t_loop = Instant::now();
        let mut steps = Vec::new();
        let mut norms = Vec::new();
        let mut first = Counters::default();
        for k in 1.. {
            let t0 = Instant::now();
            app.iterate(comm);
            let t1 = Instant::now();
            norms.push(app.norm(comm));
            steps.push((t0, t1, Instant::now()));
            if k == 1 {
                first = Counters::read(app.plan(), comm);
            }
            if comm.rank() == 0 && k >= MIN_STEPS && t_loop.elapsed() >= budget {
                let _ =
                    stop.compare_exchange(usize::MAX, k + 1, Ordering::SeqCst, Ordering::SeqCst);
            }
            if stop.load(Ordering::SeqCst) <= k {
                break;
            }
        }
        let last = Counters::read(app.plan(), comm);
        let trace = comm.trace.take().map(SweepRecorder::into_trace);
        let (mut halo_ns, mut halo_elements) = (Vec::new(), 0);
        if traced {
            let before = comm.sent_elements;
            for _ in 0..HALO_ROUNDS {
                let t0 = Instant::now();
                app.exchange_halos(comm);
                halo_ns.push(t0.elapsed().as_nanos() as u64);
            }
            halo_elements = (comm.sent_elements - before) / HALO_ROUNDS as u64;
        }
        let plan_modes = app
            .plan()
            .plans()
            .map(|cs| {
                let k = cs.key();
                let dir = match k.direction {
                    Direction::Forward => "forward",
                    Direction::Backward => "backward",
                };
                (k.dim, dir, cs.phase_inplace())
            })
            .collect();
        RankOut {
            steps,
            norms,
            store: app.into_store(),
            first,
            last,
            plan_modes,
            trace,
            halo_ns,
            halo_elements,
        }
    });
    let mut ranks = Vec::with_capacity(results.len());
    for r in results {
        ranks.push(r.map_err(|f| format!("rank {} failed: {}", f.rank, f.message))?);
    }
    Ok(Pass { ranks, epoch })
}

/// One set-up: search, rank-store allocation and initialisation, and the
/// first timestep (plan builds, pool spawns). Returns the seconds it took
/// and every rank's step-1 norm.
fn setup_once<A: App>(spec: &SolverSpec, model: &CostModel) -> Result<(f64, Vec<f64>), String> {
    let t0 = Instant::now();
    let mp = Multipartitioning::optimal(spec.p, &spec.eta_u64(), model);
    let opts = spec.opts();
    let results = run_threaded_result(spec.p, RunOpts::default(), |comm| {
        let mut app = A::new(comm.rank(), spec, mp.clone(), opts.clone());
        app.iterate(comm);
        app.norm(comm)
    });
    let secs = t0.elapsed().as_secs_f64();
    let norms = results
        .into_iter()
        .map(|r| r.map_err(|f| format!("rank {} failed: {}", f.rank, f.message)))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok((secs, norms))
}

/// Repeated set-ups: their times, and the step-1 norms to check once the
/// serial reference exists.
#[derive(Default)]
struct Setups {
    secs: Vec<f64>,
    norms: Vec<Vec<f64>>,
}

impl Setups {
    fn run<A: App>(
        &mut self,
        spec: &SolverSpec,
        model: &CostModel,
        reps: usize,
        tally: &mut Tally,
    ) {
        for _ in 0..reps {
            match setup_once::<A>(spec, model) {
                Ok((s, norms)) => {
                    self.secs.push(s);
                    self.norms.push(norms);
                }
                Err(e) => tally.fail(format!("set-up: {e}")),
            }
        }
    }

    fn check(&self, reference: &Reference, tally: &mut Tally) {
        for norms in &self.norms {
            let diff = norms
                .iter()
                .map(|x| (x - reference.norms[0]).abs())
                .fold(0.0, f64::max);
            tally.check(diff <= NORM_TOL, || {
                format!("set-up step-1 norm differs by {diff:e}")
            });
        }
    }
}

/// The serial reference run to `steps` steps: per-step norms, per-step
/// wall times (ms), and the solution after each step count in `keep`.
struct Reference {
    norms: Vec<f64>,
    step_ms: Vec<f64>,
    kept: Vec<(usize, Vec<ArrayD<f64>>)>,
}

/// Run the serial reference, and [`PLAN_BURSTS`] planning bursts spread
/// evenly over it: the host's speed changes on a scale of seconds, so one
/// planning window would land in one state or the other.
fn serial_reference<A: App>(
    spec: &SolverSpec,
    steps: usize,
    keep: &[usize],
    plans: &mut PlanTimes,
    tally: &mut Tally,
) -> Reference {
    let model = CostModel::origin2000_like();
    let every = (steps / PLAN_BURSTS).max(1);
    let mut bursts = 0;
    let mut s = A::serial_new(spec);
    let mut r = Reference {
        norms: Vec::with_capacity(steps),
        step_ms: Vec::with_capacity(steps),
        kept: Vec::new(),
    };
    for k in 1..=steps {
        let t0 = Instant::now();
        A::serial_iterate(&mut s);
        r.step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        r.norms.push(A::serial_norm(&s));
        if keep.contains(&k) {
            r.kept.push((k, A::serial_solution(&s)));
        }
        if k % every == 0 && bursts < PLAN_BURSTS {
            plan_burst::<A>(spec, &model, plans, tally);
            bursts += 1;
        }
    }
    for _ in bursts..PLAN_BURSTS {
        plan_burst::<A>(spec, &model, plans, tally);
    }
    r
}

fn bitwise_equal(a: &ArrayD<f64>, b: &ArrayD<f64>) -> bool {
    a.len() == b.len()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Check a pass against the reference: every step's norm on every rank,
/// and the gathered final solution bitwise.
fn check_pass<A: App>(
    label: &str,
    spec: &SolverSpec,
    pass: &Pass,
    r: &Reference,
    tally: &mut Tally,
) {
    let n = pass.steps();
    let mut worst = 0.0f64;
    for k in 0..n {
        let diff = pass
            .ranks
            .iter()
            .map(|rk| (rk.norms[k] - r.norms[k]).abs())
            .fold(0.0, f64::max);
        worst = worst.max(diff);
        tally.check(diff <= NORM_TOL, || {
            format!(
                "{label}: step {} norm differs from serial by {diff:e}",
                k + 1
            )
        });
    }
    let want = &r.kept.iter().find(|(k, _)| *k == n).expect("kept").1;
    let mut all_equal = true;
    for (i, &f) in A::solution_fields().iter().enumerate() {
        let mut global = ArrayD::zeros(&spec.eta);
        for rk in &pass.ranks {
            rk.store.gather_into(f, &mut global);
        }
        all_equal &= bitwise_equal(&global, &want[i]);
    }
    tally.check(all_equal, || {
        format!("{label}: final solution after {n} steps is not bitwise equal to serial")
    });
    tally.note(format!(
        "{label}: {n} steps, final solution bitwise equal to serial: {all_equal}, \
         max per-step norm difference {worst:e} (tolerance {NORM_TOL:e})"
    ));
}

/// Plan the workload's own grid for `PLAN_SECONDS / PLAN_BURSTS`, cycling
/// p through 1..=[`PLAN_P_MAX`] (a scaling sweep of that grid): search →
/// verify → one simulated timestep, as `plan-sim` does per pair. The
/// workload's own p alone plans in microseconds, dominated by allocation,
/// and its rate moved by ±20% from process to process.
fn plan_burst<A: App>(spec: &SolverSpec, model: &CostModel, t: &mut PlanTimes, tally: &mut Tally) {
    let eta = spec.eta_u64();
    let t_all = Instant::now();
    while t_all.elapsed().as_secs_f64() < PLAN_SECONDS / PLAN_BURSTS as f64 {
        let at = SolverSpec {
            p: (t.count() as u64 % PLAN_P_MAX) + 1,
            ..*spec
        };
        let sim = plan_one(at.p, &eta, model, || A::simulate(&at, model), t, tally);
        if let (Some((_, m, e)), true) = (sim, at.p == spec.p) {
            t.sim_messages = m;
            t.sim_elements = e;
        }
    }
    t.wall_s += t_all.elapsed().as_secs_f64();
}

/// Field storage one rank holds, in bytes, from the allocated array sizes.
fn field_bytes(store: &RankStore) -> u64 {
    store
        .tiles
        .iter()
        .flat_map(|t| t.fields.iter())
        .map(|f| f.raw().len() as u64 * 8)
        .sum()
}

fn describe_modes(modes: &[(usize, &'static str, Vec<bool>)]) -> Vec<String> {
    modes
        .iter()
        .map(|(dim, dir, phases)| {
            let marks: String = phases.iter().map(|&b| if b { 'z' } else { 'p' }).collect();
            format!("  in-place decision, sweep dim {dim} {dir:<8} [{marks}] (z = in place, p = packed)")
        })
        .collect()
}

/// Run a solver workload: end-to-end metrics untraced (`traced = false`),
/// or per-layer metrics from a traced pass plus an untraced reference pass.
pub fn run<A: App>(
    spec: &SolverSpec,
    seconds: f64,
    traced: bool,
    out_dir: &str,
    name: &str,
) -> (Tally, Metrics) {
    let model = CostModel::origin2000_like();
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mp = Multipartitioning::optimal(spec.p, &spec.eta_u64(), &model);
    tally.note(format!(
        "inputs: η = {:?}, dt {}, p = {} rank(s) × {} sweep thread(s), γ = {:?} \
         (origin2000_like preset), SweepOptions {:?}",
        spec.eta,
        spec.dt,
        spec.p,
        spec.threads,
        mp.gammas(),
        spec.opts()
    ));
    if !traced {
        run_untraced::<A>(spec, &mp, &model, seconds, &mut tally, &mut m);
    } else {
        run_traced::<A>(
            spec, &mp, &model, seconds, &mut tally, &mut m, out_dir, name,
        );
    }
    (tally, m)
}

fn run_untraced<A: App>(
    spec: &SolverSpec,
    mp: &Multipartitioning,
    model: &CostModel,
    seconds: f64,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    // Half the set-ups before the timed pass and half after it, so that
    // their median samples the host over the whole run.
    let mut setups = Setups::default();
    setups.run::<A>(spec, model, SETUP_REPS / 2, tally);
    let pass = run_pass::<A>(spec, mp, seconds, false);
    // Before the serial reference and the planning loop, whose buffers
    // belong to the benchmark, not to the solver.
    m.set("peak_rss_mb", crate::host::peak_rss_mib());
    setups.run::<A>(spec, model, SETUP_REPS - SETUP_REPS / 2, tally);
    let pass = match pass {
        Ok(p) => p,
        Err(e) => {
            tally.fail(format!("timed pass: {e}"));
            return;
        }
    };
    let n = pass.steps();
    let mut plans = PlanTimes::default();
    let reference = serial_reference::<A>(spec, n, &[n], &mut plans, tally);
    setups.check(&reference, tally);
    check_pass::<A>("timed pass", spec, &pass, &reference, tally);
    describe_traffic(spec, &pass, tally);

    let steady = pass.steady_step_ms();
    let wall = pass.steady_wall_s();
    let setup = &setups.secs;
    if !setup.is_empty() {
        m.set("setup_s", stats::median(setup));
        tally.note(format!(
            "setup_s: median of {} set-ups (search + allocate + init + first step), min {:.4} s, max {:.4} s",
            setup.len(),
            setup.iter().copied().fold(f64::INFINITY, f64::min),
            setup.iter().copied().fold(0.0, f64::max)
        ));
    }
    m.set("iter_ms_p50", stats::median(&steady));
    if let Some((q, v)) = stats::tail_at_most(&steady, 0.999) {
        tally.note(format!(
            "step time: p50 {:.4} ms, {} {v:.4} ms over {} steady steps (slowest rank per step)",
            stats::median(&steady),
            stats::pct_label(q),
            steady.len()
        ));
    }
    m.set(
        "mpoints_per_s",
        spec.points() as f64 * steady.len() as f64 / wall / 1e6,
    );
    m.set("plans_per_s", plans.count() as f64 / plans.wall_s);
}

/// Print per-rank field bytes (computed) and the cache note.
fn describe_traffic(spec: &SolverSpec, pass: &Pass, tally: &mut Tally) {
    let bytes: Vec<String> = pass
        .ranks
        .iter()
        .map(|r| format!("{:.2} MiB", field_bytes(&r.store) as f64 / (1 << 20) as f64))
        .collect();
    tally.note(format!(
        "field bytes per rank (computed from array sizes, not measured): [{}] for {} points",
        bytes.join(", "),
        spec.points()
    ));
    for line in describe_modes(&pass.ranks[0].plan_modes) {
        tally.note(line);
    }
}

#[allow(clippy::too_many_arguments)]
fn run_traced<A: App>(
    spec: &SolverSpec,
    mp: &Multipartitioning,
    model: &CostModel,
    seconds: f64,
    tally: &mut Tally,
    m: &mut Metrics,
    out_dir: &str,
    name: &str,
) {
    // Half the time untraced (the overhead baseline), half traced.
    let half = seconds / 2.0;
    // Warm the process up first, as the untraced run's set-ups do, so the
    // first pass is not the one paying for it.
    let mut warm = Setups::default();
    warm.run::<A>(spec, model, SETUP_REPS / 2, tally);
    let plain = run_pass::<A>(spec, mp, half, false);
    let traced = run_pass::<A>(spec, mp, half, true);
    let (plain, traced) = match (plain, traced) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            tally.fail(format!("pass: {e}"));
            return;
        }
    };
    let (n1, n2) = (plain.steps(), traced.steps());
    let mut plans = PlanTimes::default();
    let reference = serial_reference::<A>(spec, n1.max(n2), &[n1, n2], &mut plans, tally);
    warm.check(&reference, tally);
    check_pass::<A>("untraced pass", spec, &plain, &reference, tally);
    check_pass::<A>("traced pass", spec, &traced, &reference, tally);
    describe_traffic(spec, &traced, tally);

    // The contracts `mpart profile` enforces.
    for (rank, r) in traced.ranks.iter().enumerate() {
        let tr = r.trace.as_ref().expect("traced pass has recorders");
        tally.check(
            tr.stats.sent_messages() == r.last.msgs && tr.stats.sent_elements() == r.last.elems,
            || {
                format!(
                    "rank {rank}: recorder saw {} msgs / {} elements, runtime counted {} / {}",
                    tr.stats.sent_messages(),
                    tr.stats.sent_elements(),
                    r.last.msgs,
                    r.last.elems
                )
            },
        );
        tally.check(r.last.builds == r.first.builds, || {
            format!(
                "rank {rank}: {} plan rebuild(s) after step 1",
                r.last.builds - r.first.builds
            )
        });
        tally.check(r.last.pool_threads == r.first.pool_threads, || {
            format!("rank {rank}: pool spawned threads after step 1")
        });
    }

    let p = traced.ranks.len() as f64;
    let steady_n = (n2 - 1) as f64;
    let per_step_mean = |ns: f64| ns / p / steady_n / 1e6;

    // Spans of the steady window, per rank.
    let mut stage_ns = std::collections::BTreeMap::<String, f64>::new();
    let (mut compute, mut pack, mut wait, mut spin, mut park) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut compute_per_rank = Vec::new();
    let mut unattributed = 0.0f64;
    let mut window_traces = Vec::new();
    for r in &traced.ranks {
        let tr = r.trace.as_ref().expect("recorder");
        let from = traced.ns(r.steps[1].0);
        let mut spans = Vec::new();
        let mut rank_compute = 0.0;
        for ev in tr.events.iter().filter(|e| e.start_ns >= from) {
            let d = (ev.end_ns - ev.start_ns) as f64;
            match &ev.kind {
                SpanKind::Compute { .. } => rank_compute += d,
                SpanKind::Pack => pack += d,
                SpanKind::CommWait { .. } => wait += d,
                SpanKind::CommSpin { .. } => spin += d,
                SpanKind::CommPark { .. } => park += d,
                SpanKind::Stage { name } => *stage_ns.entry(name.clone()).or_default() += d,
                SpanKind::Unpack | SpanKind::Send { .. } => {}
            }
            spans.push(Interval::new(ev.start_ns, ev.end_ns));
        }
        compute += rank_compute;
        compute_per_rank.push(rank_compute);
        let steps: Vec<Interval> = r.steps[1..]
            .iter()
            .map(|s| Interval::new(traced.ns(s.0), traced.ns(s.2)))
            .collect();
        unattributed = unattributed.max(stats::unattributed_pct(&steps, &spans));
        let keep_from = traced.ns(r.steps[r.steps.len().saturating_sub(TRACE_WINDOW_STEPS)].0);
        let window = tr
            .events
            .iter()
            .filter(|e| e.start_ns >= keep_from)
            .cloned()
            .collect();
        window_traces.push(RankTrace::from_events(tr.rank, window));
    }
    let stage = |s: &str| stage_ns.get(s).copied().unwrap_or(0.0);
    let pre = A::PREFIX;
    m.set(
        &format!("{pre}.compute_rhs_ms"),
        per_step_mean(stage("compute_rhs")),
    );
    if pre == "nassp" {
        let points = spec.points() as f64 * steady_n;
        m.set(
            "nassp.compute_rhs_ns_per_point",
            stage("compute_rhs") / points,
        );
        m.set("nassp.coeffs_ms", per_step_mean(stage("coeffs")));
    }
    m.set(&format!("{pre}.add_ms"), per_step_mean(stage("add")));
    let norm_ms: f64 = traced
        .ranks
        .iter()
        .map(|r| {
            r.steps[1..]
                .iter()
                .map(|s| (s.2 - s.1).as_secs_f64() * 1e3)
                .sum::<f64>()
        })
        .sum::<f64>()
        / p
        / steady_n;
    m.set("nassp.norm_ms", norm_ms);
    m.set("nassp.serial_iter_ms", stats::median(&reference.step_ms));

    let swept: u64 = traced
        .ranks
        .iter()
        .map(|r| r.last.swept - r.first.swept)
        .sum();
    m.set("sweep.compute_ms", per_step_mean(compute));
    m.set(
        "sweep.ns_per_element",
        if swept > 0 {
            compute / swept as f64
        } else {
            0.0
        },
    );
    m.set("sweep.pack_ms", per_step_mean(pack));
    m.set(
        "sweep.compute_imbalance",
        stats::imbalance(&compute_per_rank),
    );
    let max_of = |f: &dyn Fn(&RankOut) -> f64| traced.ranks.iter().map(f).fold(0.0, f64::max);
    m.set(
        "sweep.plan_build_ms",
        max_of(&|r| r.first.build_ns as f64 / 1e6),
    );
    m.set("sweep.plan_builds", max_of(&|r| r.first.builds as f64));
    m.set(
        "sweep.pool_dispatches_per_iter",
        max_of(&|r| (r.last.dispatches - r.first.dispatches) as f64 / steady_n),
    );
    m.set(
        "sweep.pool_threads_spawned",
        max_of(&|r| r.first.pool_threads as f64),
    );

    m.set("runtime.comm_wait_ms", per_step_mean(wait));
    m.set("runtime.comm_spin_ms", per_step_mean(spin));
    m.set("runtime.comm_park_ms", per_step_mean(park));
    let sum_of = |f: &dyn Fn(&RankOut) -> u64| traced.ranks.iter().map(f).sum::<u64>();
    let msgs = sum_of(&|r| r.last.msgs - r.first.msgs);
    let elems = sum_of(&|r| r.last.elems - r.first.elems);
    m.set("runtime.msgs_per_iter", msgs as f64 / steady_n);
    m.set("runtime.elements_per_iter", elems as f64 / steady_n);
    m.set(
        "runtime.send_backpressure",
        sum_of(&|r| r.last.backpressure - r.first.backpressure) as f64,
    );

    let halo_ms: f64 = traced
        .ranks
        .iter()
        .map(|r| stats::median(&r.halo_ns.iter().map(|&x| x as f64).collect::<Vec<_>>()) / 1e6)
        .sum::<f64>()
        / p;
    m.set("grid.halo_ms", halo_ms);
    m.set("grid.halo_elements", sum_of(&|r| r.halo_elements) as f64);

    let steady_traced = traced.steady_step_ms();
    let p50_traced = stats::median(&steady_traced);
    let p50_plain = stats::median(&plain.steady_step_ms());
    m.set("driver.unattributed_pct", unattributed);
    m.set(
        "driver.trace_overhead_pct",
        stats::error_pct(p50_traced, p50_plain),
    );
    if let Some((q, v)) = stats::tail_at_most(&steady_traced, 0.95) {
        m.set("driver.iter_ms_p95", v);
        tally.note(format!(
            "driver.iter_ms_p95 is the traced {} over {} steady steps ({} samples beyond it)",
            stats::pct_label(q),
            steady_traced.len(),
            stats::samples_beyond(steady_traced.len(), q)
        ));
    }

    // §3.1 model vs measured spans, the formulas `mpart profile` uses.
    let pred_compute = model.compute_time(swept);
    let pred_comm = msgs as f64 * model.k2 + elems as f64 * model.k3_at(spec.p);
    m.set(
        "model.compute_err_pct",
        stats::error_pct(pred_compute, compute / 1e9),
    );
    m.set(
        "model.comm_err_pct",
        stats::error_pct(pred_comm, wait / 1e9),
    );

    plans.set_layer_metrics(m);

    tally.note(format!(
        "traced pass: {n2} steps (p50 {p50_traced:.4} ms) vs untraced {n1} steps (p50 {p50_plain:.4} ms); \
         unattributed share is the worst rank's; halo from {HALO_ROUNDS} isolated rounds"
    ));
    let file = format!("{out_dir}/e2ebench-trace-{name}.json");
    let tf = TraceFile::new(window_traces)
        .with_meta("workload", name)
        .with_meta("window", format!("last {TRACE_WINDOW_STEPS} steps"));
    match std::fs::create_dir_all(out_dir).and_then(|_| std::fs::write(&file, tf.to_chrome_json()))
    {
        Ok(()) => tally.note(format!(
            "Chrome trace of the last {TRACE_WINDOW_STEPS} steps: {file}"
        )),
        Err(e) => tally.note(format!("could not write {file}: {e}")),
    }
}
