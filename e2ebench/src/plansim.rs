//! The `plan-sim` workload: search → verify → one simulated SP timestep
//! per (p, η) pair, on one thread, with no stencil and no transport.
//!
//! The pairs are all of p ∈ 1..=128 × three grids (384), in an order the
//! seed draws. The timed loop runs whole passes over them, so every seed
//! measures the same population of plans; a random subset would put a
//! different mix of p (each p is its own cluster of plan times) into each
//! run.

use crate::report::{Metrics, Tally};
use crate::stats;
use mp_core::cost::CostModel;
use mp_core::multipart::Multipartitioning;
use std::time::Instant;

const SHAPES: [[usize; 3]; 3] = [[102, 102, 102], [64, 64, 64], [8, 256, 256]];
const MAX_P: u64 = 128;
/// `SpProblem::dt` does not enter the simulation; class B's value.
const DT: f64 = 0.001;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 12;
/// The fixed pair every set-up plans once, whatever the seed.
const WARM_PAIR: (u64, [usize; 3]) = (120, [102, 102, 102]);

/// Per-plan call times (ns) of one loop over plans.
#[derive(Default)]
pub struct PlanTimes {
    search_ns: Vec<f64>,
    verify_ns: Vec<f64>,
    sim_ns: Vec<f64>,
    total_ms: Vec<f64>,
    pub wall_s: f64,
    pub sim_messages: u64,
    pub sim_elements: u64,
}

impl PlanTimes {
    pub fn push(&mut self, t0: Instant, t1: Instant, t2: Instant, t3: Instant) {
        self.search_ns.push((t1 - t0).as_nanos() as f64);
        self.verify_ns.push((t2 - t1).as_nanos() as f64);
        self.sim_ns.push((t3 - t2).as_nanos() as f64);
        self.total_ms.push((t3 - t0).as_secs_f64() * 1e3);
    }

    pub fn count(&self) -> usize {
        self.total_ms.len()
    }

    /// The `core.*`, `sim.*` and `driver.plan_ms_*` metrics.
    pub fn set_layer_metrics(&self, m: &mut Metrics) {
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        m.set("core.search_us", mean(&self.search_ns) / 1e3);
        m.set("core.verify_ms", mean(&self.verify_ns) / 1e6);
        m.set("sim.simulate_ms", mean(&self.sim_ns) / 1e6);
        m.set("sim.messages", self.sim_messages as f64);
        m.set("sim.elements", self.sim_elements as f64);
        m.set("driver.plan_ms_p50", stats::median(&self.total_ms));
        if let Some((_, v)) = stats::tail_at_most(&self.total_ms, 0.95) {
            m.set("driver.plan_ms_p95", v);
        }
    }
}

/// Check one plan: validity (p | Π_{j≠i} γ_j for every i), `verify()`
/// (balance and neighbor properties), and the simulation outcome — a
/// finite positive time when every γ_i ≤ η_i, and a refusal (`None`) when
/// the partition over-cuts the grid, which no multipartitioning can avoid
/// (e.g. prime p > η).
fn check_plan(
    p: u64,
    eta: &[u64],
    mp: &Multipartitioning,
    verified: Result<(), String>,
    sim_seconds: Option<f64>,
    tally: &mut Tally,
) {
    let g = mp.gammas();
    let valid = (0..g.len()).all(|i| {
        let others: u128 = (0..g.len())
            .filter(|&j| j != i)
            .map(|j| u128::from(g[j]))
            .product();
        others.is_multiple_of(u128::from(p))
    });
    let fits = g.iter().zip(eta).all(|(&gi, &ei)| gi <= ei);
    let sim_ok = match sim_seconds {
        Some(s) => fits && s.is_finite() && s > 0.0,
        None => !fits,
    };
    let ok = valid && verified.is_ok() && sim_ok;
    tally.check(ok, || {
        format!(
            "plan p = {p}, η = {eta:?}, γ = {g:?}: valid {valid}, verify {verified:?}, \
             simulated {sim_seconds:?} (grid fits: {fits})"
        )
    });
}

/// splitmix64: the seed → pair-order generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// All (p, η) pairs in a seed-drawn order (Fisher–Yates).
fn draw_pairs(seed: u64) -> Vec<(u64, [usize; 3])> {
    let mut pairs: Vec<(u64, [usize; 3])> = SHAPES
        .iter()
        .flat_map(|&eta| (1..=MAX_P).map(move |p| (p, eta)))
        .collect();
    let mut state = seed;
    for i in (1..pairs.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        pairs.swap(i, j);
    }
    pairs
}

/// Plan one (p, η): search → verify → `simulate` (one timestep), timed
/// into `times` and checked. Returns `(seconds, messages, elements)` of the
/// simulation, `None` when it refused.
pub fn plan_one(
    p: u64,
    eta: &[u64],
    model: &CostModel,
    simulate: impl FnOnce() -> Option<(f64, u64, u64)>,
    times: &mut PlanTimes,
    tally: &mut Tally,
) -> Option<(f64, u64, u64)> {
    let t0 = Instant::now();
    let mp = Multipartitioning::optimal(p, eta, model);
    let t1 = Instant::now();
    let verified = mp.verify();
    let t2 = Instant::now();
    let sim = simulate();
    let t3 = Instant::now();
    times.push(t0, t1, t2, t3);
    check_plan(p, eta, &mp, verified, sim.map(|s| s.0), tally);
    sim
}

/// Plan one pair with `simulate_sp`; returns the simulated points (η when
/// a step was simulated, 0 when refused).
fn plan_pair(
    p: u64,
    eta: [usize; 3],
    model: &CostModel,
    times: &mut PlanTimes,
    tally: &mut Tally,
    counts: Option<&mut (u64, u64)>,
) -> u64 {
    let eta_u64: Vec<u64> = eta.iter().map(|&e| e as u64).collect();
    let prob = mp_nassp::SpProblem::new(eta, DT);
    let simulate = || {
        mp_nassp::simulate_sp(
            mp_nassp::SpVersion::GeneralizedDhpf,
            &prob,
            p,
            model,
            &mp_nassp::SpWorkFactors::default(),
            1,
        )
        .map(|r| (r.seconds, r.messages, r.elements))
    };
    let sim = plan_one(p, &eta_u64, model, simulate, times, tally);
    if let (Some((_, m, e)), Some(c)) = (sim, counts) {
        c.0 += m;
        c.1 += e;
    }
    sim.map_or(0, |_| eta_u64.iter().product())
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> (Tally, Metrics) {
    let model = CostModel::origin2000_like();
    let mut tally = Tally::default();
    let mut m = Metrics::default();

    // Set-up: draw the order and plan one fixed pair (lazy state, caches).
    // Half the repetitions run before the timed loop and half after it.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut set_up = |reps: usize, tally: &mut Tally| {
        let mut pairs = Vec::new();
        for _ in 0..reps {
            let t0 = Instant::now();
            pairs = draw_pairs(seed);
            let mut warm = PlanTimes::default();
            plan_pair(WARM_PAIR.0, WARM_PAIR.1, &model, &mut warm, tally, None);
            setup.push(t0.elapsed().as_secs_f64());
        }
        pairs
    };
    let pairs = set_up(SETUP_REPS / 2, &mut tally);
    let head: Vec<String> = pairs
        .iter()
        .take(4)
        .map(|(p, e)| format!("(p {p}, η {e:?})"))
        .collect();
    tally.note(format!(
        "pairs: {} = p 1..={MAX_P} × {SHAPES:?}, seed order starts {} …",
        pairs.len(),
        head.join(", ")
    ));

    let mut times = PlanTimes::default();
    let mut points = 0u64;
    let mut passes = 0usize;
    let mut refused = 0usize;
    let mut pass_counts = (0u64, 0u64);
    let t_all = Instant::now();
    while passes == 0 || t_all.elapsed().as_secs_f64() < seconds {
        for &(p, eta) in &pairs {
            let counts = (passes == 0).then_some(&mut pass_counts);
            let pts = plan_pair(p, eta, &model, &mut times, &mut tally, counts);
            refused += usize::from(pts == 0);
            points += pts;
        }
        passes += 1;
    }
    times.wall_s = t_all.elapsed().as_secs_f64();
    if !traced {
        m.set("peak_rss_mb", crate::host::peak_rss_mib());
    }
    set_up(SETUP_REPS - SETUP_REPS / 2, &mut tally);
    (times.sim_messages, times.sim_elements) = pass_counts;
    tally.note(format!(
        "{passes} whole pass(es), {} plans in {:.3} s; {} of each pass refused as over-cut \
         (some γ_i > η_i), checked as refusals",
        times.count(),
        times.wall_s,
        refused / passes
    ));

    if traced {
        times.set_layer_metrics(&mut m);
        tally.note("sim.messages / sim.elements: totals over one pass".to_string());
    } else {
        m.set("setup_s", stats::median(&setup));
        m.set("iter_ms_p50", stats::median(&times.total_ms));
        m.set("mpoints_per_s", points as f64 / times.wall_s / 1e6);
        m.set("plans_per_s", times.count() as f64 / times.wall_s);
    }
    (tally, m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_is_a_seeded_permutation() {
        let a = draw_pairs(7);
        assert_eq!(a, draw_pairs(7));
        assert_ne!(a, draw_pairs(8));
        let mut sorted = a.clone();
        sorted.sort();
        let mut all = draw_pairs(0);
        all.sort();
        assert_eq!(sorted, all);
        assert_eq!(a.len(), 3 * MAX_P as usize);
    }
}
