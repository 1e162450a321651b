//! Regenerate every table and figure of the paper as text tables.
//!
//! ```text
//! cargo run --release --example paper_report            # quick statistics
//! cargo run --release --example paper_report -- --paper # paper-scale
//! cargo run --release --example paper_report -- --cache-dir /tmp/mpr-cells
//! cargo run --release --example paper_report -- --threads 4
//! ```
//!
//! Every figure pulls its campaigns from the study's experiment engine:
//! cells shared between figures run once, each unique cell's strikes
//! run in parallel, and `--cache-dir` persists results so a rerun at
//! the same seed and scale executes nothing at all.

use mixed_precision_reliability::core::Study;

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paper_scale = args.iter().any(|a| a == "--paper");
    let threads: usize = flag_value(&args, "--threads")
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);

    let mut study = if paper_scale {
        eprintln!("running at paper scale; this takes a few minutes...");
        Study::paper(2019)
    } else {
        Study::quick(2019)
    }
    .with_threads(threads);
    if let Some(dir) = flag_value(&args, "--cache-dir") {
        study = study.with_cache_dir(dir);
    }

    println!("{}", study.table1_fpga_times());
    println!("{}", study.fig2_fpga_resources().to_table());
    println!("{}", study.fig3_fpga_fit().to_table());
    println!("{}", study.fig4_fpga_tre().to_table());
    println!("{}", study.fig5_fpga_mebf().to_table());

    println!("{}", study.table2_knc_times());
    println!("{}", study.fig6_knc_fit().to_table());
    println!("{}", study.fig7_knc_pvf().to_table());
    println!("{}", study.fig8_knc_tre().to_table());
    println!("{}", study.fig9_knc_mebf().to_table());

    println!("{}", study.table3_gpu_times());
    println!("{}", study.fig10_gpu_fit().to_table());
    println!("{}", study.fig11_gpu_tre().to_table());
    println!("{}", study.fig12_gpu_avf().to_table());
    println!("{}", study.fig13_gpu_mebf().to_table());

    // Beyond the paper: ablations only the simulator can run.
    println!("{}", study.ablation_gpu_ecc().to_table());
    println!("{}", study.ablation_fault_models().to_table());

    let store = study.engine().store();
    eprintln!(
        "experiment cells: {} executed, {} memory hits, {} disk hits",
        store.executed(),
        store.mem_hits(),
        store.disk_hits()
    );
}
