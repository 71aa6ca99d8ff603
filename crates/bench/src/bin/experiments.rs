//! Regenerates the thesis' figure/table-level claims (DESIGN.md §2).
//!
//! ```sh
//! cargo run --release -p cmvrp-bench --bin experiments            # all
//! cargo run --release -p cmvrp-bench --bin experiments -- e7 e9  # subset
//! ```

use cmvrp_bench::{experiment, experiment_ids, run_all};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "all") {
        for out in run_all() {
            println!("{out}");
        }
        return;
    }
    for id in &args {
        match experiment(id) {
            Some(out) => println!("{out}"),
            None => {
                eprintln!(
                    "unknown experiment id {id:?}; known: {}, all",
                    experiment_ids()
                );
                std::process::exit(2);
            }
        }
    }
}
