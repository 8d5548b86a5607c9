//! **§1 / van der Wijngaart \[18\] study** — multipartitioning vs the two
//! classical strategies for a full 3-D ADI pass (one sweep along each
//! dimension):
//!
//! * static block unipartitioning + wavefront pipelining (best granularity
//!   found by sweeping the chunk size);
//! * dynamic block partitioning with transposes;
//! * multipartitioning (this paper).
//!
//! Usage: `strategy_compare [n] [iters]` (defaults 64, 1).

use mp_bench::render_table;
use mp_core::cost::CostModel;
use mp_core::multipart::Multipartitioning;
use mp_grid::TileGrid;
use mp_runtime::sim::SimNet;
use mp_sweep::baselines::BlockUnipartition;
use mp_sweep::simulate::{
    simulate_local_sweep, simulate_multipart_sweep, simulate_transpose_sweep,
    simulate_wavefront_sweep, MultipartGeometry, SweepWork,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(64);
    let machine = CostModel::origin2000_like();
    let work = SweepWork::default();
    let serial = (n * n * n) as f64 * 3.0 * machine.k1;

    println!("3-D ADI pass (sweeps along x, y, z) on a {n}³ domain — simulated time\n");
    let mut rows = Vec::new();
    for p in [4u64, 8, 9, 16, 25, 32, 64] {
        // Multipartitioning.
        let mp = Multipartitioning::optimal(
            p,
            &[n as u64, n as u64, n as u64],
            &CostModel::origin2000_like(),
        );
        let g: Vec<usize> = mp.gammas().iter().map(|&x| x as usize).collect();
        let grid = TileGrid::new(&[n, n, n], &g);
        let geo = MultipartGeometry::new(&mp, &grid);
        let mut net = SimNet::new(p, machine);
        for dim in 0..3 {
            simulate_multipart_sweep(&mut net, &geo, dim, &work, 1, dim as u64 * 1000);
        }
        let t_multi = net.makespan();

        // Wavefront, best granularity over a sweep.
        let part = BlockUnipartition::new(p, &[n, n, n], 0);
        let mut t_wave = f64::INFINITY;
        let mut best_g = 0usize;
        for g in [1usize, 4, 16, 64, 256, 1024, 4096] {
            let mut net = SimNet::new(p, machine);
            simulate_wavefront_sweep(&mut net, &part, &work, g, 0);
            simulate_local_sweep(&mut net, &part, &work);
            simulate_local_sweep(&mut net, &part, &work);
            if net.makespan() < t_wave {
                t_wave = net.makespan();
                best_g = g;
            }
        }

        // Transpose.
        let mut net = SimNet::new(p, machine);
        simulate_transpose_sweep(&mut net, &part, 1, &work, 0);
        simulate_local_sweep(&mut net, &part, &work);
        simulate_local_sweep(&mut net, &part, &work);
        let t_trans = net.makespan();

        let winner = if t_multi <= t_wave && t_multi <= t_trans {
            "multipartition"
        } else if t_wave <= t_trans {
            "wavefront"
        } else {
            "transpose"
        };
        rows.push(vec![
            p.to_string(),
            format!("{:.3e} ({:.1}×)", t_multi, serial / t_multi),
            format!("{:.3e} ({:.1}×, g={best_g})", t_wave, serial / t_wave),
            format!("{:.3e} ({:.1}×)", t_trans, serial / t_trans),
            winner.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "p",
                "multipartitioning",
                "wavefront (best g)",
                "transpose",
                "winner"
            ],
            &rows
        )
    );
    println!(
        "expected shape (van der Wijngaart's study): multipartitioning wins across the board;\n\
         wavefront suffers pipeline fill/drain, transpose pays two all-to-alls per sweep."
    );
}
