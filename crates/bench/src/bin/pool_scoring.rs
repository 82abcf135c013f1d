//! Pool-scoring latency ladder + `BENCH_pool_scoring.json` snapshot
//! (see lte_bench::experiments::pool_scoring). Exits 1, writing no
//! snapshot, when the timings break the snapshot rules.

use lte_bench::{cli::Options, env::BenchEnv};

fn main() {
    let opts = Options::parse();
    let env = BenchEnv::from_options(&opts);
    let out = opts.out.as_deref();
    let checked = match opts.subcommand() {
        None => lte_bench::experiments::pool_scoring::run(&env, out, opts.smoke),
        Some(sub) => lte_bench::experiments::pool_scoring::subcommand(&env, out, opts.smoke, sub),
    };
    if let Err(broken) = checked {
        eprintln!("{broken}");
        std::process::exit(1);
    }
}
