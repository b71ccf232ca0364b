//! Extension experiment: mixed read/write streams against each device —
//! the Discussion section's "read-only workloads" caveat, quantified.
//! Flash programs (~100 µs) occupy a plane 25x longer than reads, so even
//! a small write fraction collapses flash read throughput, while DRAM and
//! CXL degrade only mildly.

use crate::ctx::ExperimentCtx;
use cxlg_device::cxl_mem::{CxlMemConfig, CxlMemDevice};
use cxlg_device::dram::HostDram;
use cxlg_device::target::MemoryTarget;
use cxlg_device::write::WritableTarget;
use cxlg_device::xlfdd::XlfddDrive;
use cxlg_sim::{SimTime, Xoshiro256StarStar};
use serde::Serialize;

/// Banner title.
pub const TITLE: &str = "Write study (extension)";
/// One-line summary (registry + banner).
pub const DESC: &str =
    "Mixed read/write throughput per device (Discussion: read-only caveat)";

#[derive(Serialize)]
struct Point {
    device: &'static str,
    write_fraction: f64,
    kiops: f64,
}

/// Closed-loop mixed workload against one device; returns achieved kIOPS.
fn run_mixed(device: &mut (impl MemoryTarget + WritableTarget), write_fraction: f64) -> f64 {
    let mut rng = Xoshiro256StarStar::seed_from_u64(17);
    let ops = 20_000u64;
    let depth = 64usize;
    let mut inflight: std::collections::BinaryHeap<std::cmp::Reverse<SimTime>> =
        std::collections::BinaryHeap::new();
    let mut out = Vec::new();
    let mut last = SimTime::ZERO;
    for _ in 0..ops {
        let issue = if inflight.len() >= depth {
            inflight.pop().unwrap().0
        } else {
            SimTime::ZERO
        };
        let addr = (rng.next_below(1 << 16)) * 4096;
        let done = if rng.next_bool(write_fraction) {
            device.write(issue, addr, 256)
        } else {
            out.clear();
            device.read(issue, addr, 256, &mut out)
        };
        inflight.push(std::cmp::Reverse(done));
        last = last.max(done);
    }
    ops as f64 / last.as_secs_f64() / 1e3
}

/// Graph specs consumed — none; this experiment builds no graphs
/// (cache-eviction planning; see
/// [`crate::experiment::Experiment::specs`]).
pub fn specs(_ctx: &ExperimentCtx) -> Vec<cxlg_graph::GraphSpec> {
    Vec::new()
}

/// Run the experiment.
pub fn run(ctx: &ExperimentCtx) {
    ctx.banner(TITLE, DESC);
    let fractions = [0.0, 0.01, 0.05, 0.1, 0.25, 0.5];
    let jobs: Vec<(usize, f64)> = (0..3)
        .flat_map(|d| fractions.into_iter().map(move |f| (d, f)))
        .collect();
    let points: Vec<Point> = ctx.sweep(jobs, |(d, f)| {
        let kiops = match d {
            0 => run_mixed(&mut HostDram::default(), f),
            1 => run_mixed(&mut CxlMemDevice::new(CxlMemConfig::default()), f),
            _ => run_mixed(&mut XlfddDrive::default(), f),
        };
        Point {
            device: ["host-dram", "cxl-mem", "xlfdd"][d],
            write_fraction: f,
            kiops,
        }
    });

    print!("{:<12}", "write frac");
    for f in fractions {
        print!("{:>10.2}", f);
    }
    println!();
    for dev in ["host-dram", "cxl-mem", "xlfdd"] {
        print!("{dev:<12}");
        for f in fractions {
            let p = points
                .iter()
                .find(|p| p.device == dev && p.write_fraction == f)
                .unwrap();
            print!("{:>10.0}", p.kiops);
        }
        println!("  kIOPS");
    }
    println!(
        "\nDiscussion (§5): flash write asymmetry (tPROG ~ 25x tR) makes \
         write-heavy workloads a different problem; DRAM-backed CXL \
         degrades only via channel sharing."
    );
    ctx.dump_json("write_study", &points);
}
