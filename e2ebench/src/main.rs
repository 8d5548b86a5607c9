//! End-to-end benchmark of the SP/BT timestep and the planner.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload sp-w-p2 --seed 1 --seconds 8 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run; `--trace 1`
//! prints the per-layer metrics of a traced run (plus an untraced pass for
//! the tracing overhead). The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod host;
mod plansim;
mod report;
mod solver;
mod stats;

use report::{Metrics, Tally};
use solver::{BtRank, SolverSpec, SpRank};

/// End-to-end metrics (untraced run), with units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("iter_ms_p50", "ms"),
    ("mpoints_per_s", "Mpoint/s"),
    ("plans_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run), with units.
const PER_LAYER: [(&str, &str); 36] = [
    ("nassp.compute_rhs_ms", "ms"),
    ("nassp.compute_rhs_ns_per_point", "ns"),
    ("nasbt.compute_rhs_ms", "ms"),
    ("nassp.coeffs_ms", "ms"),
    ("nassp.add_ms", "ms"),
    ("nasbt.add_ms", "ms"),
    ("nassp.norm_ms", "ms"),
    ("nassp.serial_iter_ms", "ms"),
    ("sweep.compute_ms", "ms"),
    ("sweep.ns_per_element", "ns"),
    ("sweep.pack_ms", "ms"),
    ("sweep.compute_imbalance", "ratio"),
    ("sweep.plan_build_ms", "ms"),
    ("sweep.plan_builds", "count"),
    ("sweep.pool_dispatches_per_iter", "count"),
    ("sweep.pool_threads_spawned", "count"),
    ("runtime.comm_wait_ms", "ms"),
    ("runtime.comm_spin_ms", "ms"),
    ("runtime.comm_park_ms", "ms"),
    ("runtime.msgs_per_iter", "count"),
    ("runtime.elements_per_iter", "count"),
    ("runtime.send_backpressure", "count"),
    ("grid.halo_ms", "ms"),
    ("grid.halo_elements", "count"),
    ("core.search_us", "us"),
    ("core.verify_ms", "ms"),
    ("sim.simulate_ms", "ms"),
    ("sim.messages", "count"),
    ("sim.elements", "count"),
    ("driver.unattributed_pct", "%"),
    ("driver.trace_overhead_pct", "%"),
    ("driver.iter_ms_p95", "ms"),
    ("driver.plan_ms_p50", "ms"),
    ("driver.plan_ms_p95", "ms"),
    ("model.compute_err_pct", "%"),
    ("model.comm_err_pct", "%"),
];

const WORKLOADS: [&str; 4] = ["sp-w-p2", "bt-24-p2", "sp-w-p1t2", "plan-sim"];

const USAGE: &str = "usage: mp-e2ebench --workload <sp-w-p2|bt-24-p2|sp-w-p1t2|plan-sim> \
     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&v.as_str()) => workload = Some(v.clone()),
            "--workload" => return Err(format!("unknown workload '{v}'")),
            "--seed" => seed = Some(v.parse::<u64>().map_err(|e| format!("--seed {v}: {e}"))?),
            "--seconds" => {
                let s = v
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {v} is not in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {v} is not 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// `MP_*` variables change plans (the in-place decision reads
/// `MP_CALIBRATION` through a process-global cache), so a run under any of
/// them would not measure the default configuration.
fn pinned_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MP_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set; unset every MP_* variable",
            set.join(", ")
        ))
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv).and_then(|a| pinned_environment().map(|_| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mp-e2ebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = host::Host::detect();
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", host.describe());
    println!("{}", host::code_version());
    println!(
        "simd: resolved level {} (SimdMode::Auto)",
        mp_sweep::SimdMode::Auto.resolve().name()
    );

    let out_dir =
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "e2ebench/target".to_string());
    let w = args.workload.as_str();
    let sp_w = |p, threads| SolverSpec {
        p,
        threads,
        eta: mp_nassp::Class::W.eta(),
        dt: mp_nassp::Class::W.dt(),
    };
    let (mut tally, m) = match w {
        "sp-w-p2" => solver::run::<SpRank>(&sp_w(2, 1), args.seconds, args.trace, &out_dir, w),
        "sp-w-p1t2" => solver::run::<SpRank>(&sp_w(1, 2), args.seconds, args.trace, &out_dir, w),
        "bt-24-p2" => {
            let spec = SolverSpec {
                p: 2,
                threads: 1,
                eta: [24; 3],
                dt: 0.002,
            };
            solver::run::<BtRank>(&spec, args.seconds, args.trace, &out_dir, w)
        }
        "plan-sim" => plansim::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("workload validated by parse_args"),
    };
    if w != "plan-sim" {
        println!(
            "seed {} recorded; solver inputs come from the NAS class definition and do not depend on it",
            args.seed
        );
        if let Some(llc) = host.llc_bytes() {
            println!(
                "largest reported cache {} MiB: the 4×LLC bandwidth rule ({} MiB arrays) cannot be met \
                 by these working sets, so no roofline ratio is reported",
                llc >> 20,
                (4 * llc) >> 20
            );
        }
    }
    for line in &tally.notes {
        println!("{line}");
    }
    finish(&mut tally, &m, args.trace);
}

/// Print every metric of the run's kind with its unit, the failure ratio
/// with its base, and the JSON result line.
fn finish(tally: &mut Tally, m: &Metrics, traced: bool) {
    let wanted: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    for (name, _) in &m.0 {
        assert!(
            wanted.iter().any(|(n, _)| n == name),
            "metric {name} is not declared for this kind of run"
        );
    }
    let mut json = Vec::new();
    let mut missing = Vec::new();
    for &(name, unit) in wanted {
        let value = m.get(name).unwrap_or_else(|| {
            missing.push(name);
            0.0
        });
        println!("{name:<32} {value:>16.6} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    if !missing.is_empty() {
        println!(
            "not applicable to this workload (printed as 0): {}",
            missing.join(", ")
        );
    }
    if !traced && !missing.is_empty() {
        tally.fail(format!(
            "end-to-end metrics missing: {}",
            missing.join(", ")
        ));
    }
    println!(
        "failed_ratio {} = {} failed / {} attempted operations",
        stats::failed_ratio(tally.failed, tally.attempted.max(1)),
        tally.failed,
        tally.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        json.join(", ")
    );
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values become 0 (and are never expected).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}
