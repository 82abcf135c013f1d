//! One module per §VIII table/figure, plus the [`scenarios`] mixed-traffic
//! workload simulation and the [`pool_scoring`] latency ladder. Each exposes
//! `run(&BenchEnv, Option<&Path>)` (plus a `smoke` flag for [`scenarios`]
//! and [`pool_scoring`]) printing the reproduction table (and writing CSV
//! when an output directory is given); the thin binaries in `src/bin/` and
//! the `run_all` binary call these.

pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod pool_scoring;
pub mod routing;
pub mod scenarios;
pub mod table2;
