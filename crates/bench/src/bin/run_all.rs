//! Regenerates every table and figure of the paper's evaluation in one run.
//!
//! ```text
//! cargo run -p lte-bench --release --bin run_all -- [--paper] [--out results/]
//! ```

use lte_bench::{cli::Options, env::BenchEnv, experiments};

fn main() {
    let opts = Options::parse();
    let env = BenchEnv::from_options(&opts);
    let out = opts.out.as_deref();

    let t0 = std::time::Instant::now();
    println!(
        "LTE reproduction — scale: {:?}, seed: {}, reps: {}\n",
        env.scale, env.seed, env.reps
    );

    experiments::fig4::run(&env, out);
    experiments::fig5::run(&env, out);
    experiments::fig6::run(&env, out);
    experiments::fig7::run(&env, out);
    experiments::table2::run(&env, out);
    experiments::fig8::run(&env, out);
    experiments::scenarios::run(&env, out, opts.smoke);
    let checked = experiments::pool_scoring::run(&env, out, opts.smoke);

    println!(
        "\nall experiments regenerated in {:.1} min",
        t0.elapsed().as_secs_f64() / 60.0
    );
    if let Err(broken) = checked {
        eprintln!("{broken}");
        std::process::exit(1);
    }
}
