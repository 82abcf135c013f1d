//! End-to-end benchmark of the LTE workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <interactive|serve> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no timing inside the
//! measured loop; `--trace 1` replays the same rounds through each layer's
//! public calls and prints the per-layer breakdown instead. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (`{name: {value, unit}}`). The line before it records the host
//! and the settings. See `perfbench/README.md` for the workloads and metrics.

mod common;
mod interactive;
mod serve;

use common::{Args, Run, Workload};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!("{}", Args::USAGE);
            std::process::exit(2);
        }
    };
    let run: Run = match args.workload {
        Workload::Interactive => interactive::run(&args),
        Workload::Serve => serve::run(&args),
    };
    println!("{}", run.settings_json(&args));
    println!("{}", run.result_json());
    if run.failed > 0 {
        std::process::exit(1);
    }
}
