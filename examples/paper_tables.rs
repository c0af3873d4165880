//! Domain scenario: regenerate every table and figure of the paper in one
//! run (the same code paths the benchmark harness uses).
//!
//! Pass `--quick` to use the smoke-test scale: 10 to 13 min with
//! `--jobs 2` on 2 vCPUs, most of it training the CNNs of Tables II and
//! III. Its stdout, less the first line, is pinned in
//! `tests/data/paper_tables_quick.txt`, and CI fails on any difference.
//! The default standard scale trains the full model grid and takes longer
//! still. Pass `--jobs N` to bound the shared worker pool every
//! experiment grid draws from (default: available parallelism, or the
//! `OPLIX_JOBS` environment variable).
//!
//! Run with `cargo run --release --example paper_tables -- --quick --jobs 4`.

use oplixnet::experiments::{ablation, fig7, fig8, fig9, table2, table3, Scale};
use oplixnet::pool;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    if let Some(i) = args.iter().position(|a| a == "--jobs") {
        match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
            Some(n) if n >= 1 => pool::set_jobs(n),
            _ => {
                eprintln!("--jobs needs a positive integer argument");
                std::process::exit(2);
            }
        }
    }
    let scale = if quick {
        Scale::quick()
    } else {
        Scale::standard()
    };
    println!(
        "running at {} scale ({} jobs): {} train / {} test samples, {} epochs\n",
        if quick { "quick" } else { "standard" },
        pool::jobs(),
        scale.train_samples,
        scale.test_samples,
        scale.setup.epochs
    );

    println!("=== Table II ===");
    let t2 = table2::run(&scale);
    println!("{t2}");

    println!("=== Table III ===");
    let t3 = table3::run(&scale);
    println!("{t3}");

    println!("=== Fig. 7 ===");
    let f7 = fig7::run(&scale);
    println!("{f7}");

    println!("=== Fig. 8 ===");
    let f8 = fig8::run(&scale);
    println!("{f8}");

    println!("=== Fig. 9 ===");
    let f9 = fig9::run(&scale);
    println!("{f9}");

    println!("=== Ablation A1: KD mixing factor ===");
    let a1 = ablation::alpha_sweep(&[0.25, 0.5, 1.0, 2.0], &scale);
    println!("{a1}");

    println!("=== Ablation A2: phase noise ===");
    let a2 = ablation::noise_sweep(&[0.0, 0.01, 0.03, 0.1, 0.3], &scale);
    println!("{a2}");

    println!("=== Ablation A3: static power ===");
    let a3 = ablation::power_comparison(&scale);
    print!("{a3}");
}
