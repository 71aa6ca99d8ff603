//! Ignored diagnostic: paired `--check` overhead per default-panel workload.
//!
//! The committed number lives in `BENCH_obs.json` (written by the
//! `obs_overhead` bench); this test is the quick way to re-measure one
//! workload at a time without the harness:
//!
//! ```text
//! cargo test -p cmvrp-bench --release --test panel_overhead -- --ignored --nocapture
//! ```

use cmvrp_bench::default_workloads;
use cmvrp_engine::ExecConfig;
use cmvrp_obs::NullSink;
use cmvrp_online::OnlineConfig;
use cmvrp_workloads::{arrivals, Ordering};
use std::hint::black_box;

#[test]
#[ignore]
fn panel_overhead() {
    let config = OnlineConfig::default();
    let mut tot_null = 0u64;
    let mut tot_check = 0u64;
    for w in default_workloads() {
        let (bounds, demand) = w.generate().expect("workload fits grid");
        let jobs = arrivals::from_demand(&demand, Ordering::Shuffled, 7);
        let mut null_best = u64::MAX;
        let mut check_best = u64::MAX;
        for _ in 0..60 {
            for check in [false, true] {
                let t = std::time::Instant::now();
                let run = ExecConfig::new()
                    .check(check)
                    .execute(bounds, &jobs, config, &mut NullSink)
                    .expect("engine run");
                let ns = t.elapsed().as_nanos() as u64;
                if let Some(verdict) = &run.check {
                    assert!(verdict.is_clean(), "{:?}", verdict.violations);
                }
                black_box(run);
                let best = if check {
                    &mut check_best
                } else {
                    &mut null_best
                };
                *best = (*best).min(ns);
            }
        }
        let pct = (check_best as f64 - null_best as f64) / null_best as f64 * 100.0;
        println!("{w:?}: null {null_best} check {check_best} -> {pct:.1}%");
        tot_null += null_best;
        tot_check += check_best;
    }
    let pct = (tot_check as f64 - tot_null as f64) / tot_null as f64 * 100.0;
    println!("PANEL TOTAL: null {tot_null} check {tot_check} -> {pct:.1}%");
}
