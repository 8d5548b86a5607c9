//! Cross-validation of the two performance models: the paper's closed-form
//! §3.1 sweep time and the discrete-event simulator must agree exactly on
//! clean (evenly divisible, perfectly balanced) configurations — they model
//! the same machine, one analytically, one operationally.

use multipartition::core::cost::BandwidthScaling;
use multipartition::prelude::*;
use multipartition::sweep::simulate::{simulate_multipart_sweep, MultipartGeometry, SweepWork};

/// Closed-form makespan of one multipartitioned sweep along `dim` under the
/// simulator's machine semantics (per-rank phase compute + per-phase send
/// overhead α + transfer of the per-rank carry volume):
///
/// ```text
/// T = γ · (vol/(p·γ)) · K1 · w            (compute: γ phases, slab share each)
///   + (γ − 1) · α                          (sender-side overhead per phase)
///   + (γ − 1) · lines_per_rank · c · β(p)  (carry transfer on the critical path)
/// ```
fn closed_form(
    machine: &CostModel,
    p: u64,
    eta: &[usize; 3],
    gammas: &[u64; 3],
    dim: usize,
    work: &SweepWork,
) -> f64 {
    let vol: usize = eta.iter().product();
    let gamma = gammas[dim] as f64;
    let compute = vol as f64 / p as f64 * machine.k1 * work.work_per_element;
    let lines_per_rank = (vol / eta[dim]) as f64 / p as f64;
    let comm_phases = gamma - 1.0;
    let beta = match machine.scaling {
        BandwidthScaling::Scalable => machine.k3 / p as f64,
        BandwidthScaling::Fixed => machine.k3,
    };
    compute + comm_phases * machine.k2 + comm_phases * lines_per_rank * work.carry_len as f64 * beta
}

fn check(p: u64, eta: [usize; 3], gammas: [u64; 3]) {
    let machine = CostModel::origin2000_like();
    let work = SweepWork {
        work_per_element: 3.0,
        carry_len: 2,
    };
    let mp = Multipartitioning::from_partitioning(p, Partitioning::new(gammas.to_vec()));
    let gam: Vec<usize> = gammas.iter().map(|&g| g as usize).collect();
    // Preconditions for exactness: γ | η per dimension (no ragged tiles).
    for (g, e) in gam.iter().zip(eta.iter()) {
        assert_eq!(e % g, 0, "test setup must divide evenly");
    }
    let grid = TileGrid::new(&eta, &gam);
    let geo = MultipartGeometry::new(&mp, &grid);
    for dim in 0..3 {
        let mut net = SimNet::new(p, machine);
        simulate_multipart_sweep(&mut net, &geo, dim, &work, 1, 0);
        let simulated = net.makespan();
        let analytic = closed_form(&machine, p, &eta, &gammas, dim, &work);
        let rel = (simulated - analytic).abs() / analytic;
        assert!(
            rel < 1e-9,
            "p={p} γ={gammas:?} dim={dim}: simulated {simulated:.6e} vs analytic {analytic:.6e}"
        );
    }
}

#[test]
fn simulator_matches_closed_form_diagonal() {
    check(4, [32, 32, 32], [2, 2, 2]);
    check(9, [36, 36, 36], [3, 3, 3]);
    check(16, [64, 64, 64], [4, 4, 4]);
}

#[test]
fn simulator_matches_closed_form_generalized() {
    check(8, [32, 32, 32], [4, 4, 2]);
    check(6, [36, 36, 36], [2, 6, 3]);
    check(12, [24, 36, 24], [2, 6, 6]);
    check(50, [100, 100, 100], [5, 10, 10]);
}

#[test]
fn simulator_matches_paper_objective_ordering() {
    // Beyond exact times: the *ranking* of candidate partitionings under
    // simulated times must agree with the §3.1 objective Σ γ_i λ_i
    // (evaluated with carry-sized messages) on a clean domain.
    let machine = CostModel::origin2000_like();
    let work = SweepWork {
        work_per_element: 1.0,
        carry_len: 1,
    };
    let eta = [120usize, 120, 120];
    let p = 30u64;
    let mut measured: Vec<(f64, Vec<u64>)> = Vec::new();
    for part in multipartition::core::partition::elementary_partitionings(p, 3) {
        let gam: Vec<usize> = part.gammas.iter().map(|&g| g as usize).collect();
        if gam.iter().zip(eta.iter()).any(|(&g, &e)| e % g != 0) {
            continue;
        }
        let mp = Multipartitioning::from_partitioning(p, part.clone());
        let grid = TileGrid::new(&eta, &gam);
        let geo = MultipartGeometry::new(&mp, &grid);
        let mut net = SimNet::new(p, machine);
        for dim in 0..3 {
            simulate_multipart_sweep(&mut net, &geo, dim, &work, 1, dim as u64 * 1000);
        }
        measured.push((net.makespan(), part.gammas.clone()));
    }
    assert!(measured.len() >= 10, "need a meaningful candidate set");
    measured.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    // The simulated winner must be among the objective's winners (the
    // (6,10,15)-shaped family on a cube).
    let mut best = measured[0].1.clone();
    best.sort_unstable();
    assert_eq!(best, vec![6, 10, 15], "simulated best {measured:?}");
}
