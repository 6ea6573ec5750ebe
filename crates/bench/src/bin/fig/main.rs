//! `fig <name>... [--serve[=SOCKET]]` regenerates the paper's tables and
//! figures, one [`FIGURES`] entry each.
//!
//! A figure's body (a module here) prints its paper-shaped table and
//! hands back its rows; `fig` writes them to `$FP_OUT/<name>.json`
//! (default `results/`). A body that finds its result unusable returns
//! an error instead: no JSON, and `fig` exits 1 once the rest have run.
//! An unknown name, a stray flag or no name at all is exit 2.
//!
//! `--serve[=SOCKET]` (or `NOC_SERVE`) sends the rate-sweep figures'
//! points to a running `nocserve` daemon ([`bench::run_sweeps`]); every
//! other figure's runs are in-process ([`run_sims`]), which it notes.

mod ablation;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod fig7;
mod fig8;
mod fig9;
mod fig_irregular;
mod table1;
mod table2;

use bench::runner::make_sim;
use bench::SchemeId::{self, Drain, FastPass, Pitstop, Spin, Swap};
use bench::{emit_json, env_u64, num_jobs, parallel_map, ExecMode, SweepSpec};
use noc_sim::Simulation;
use serde::Serialize;
use std::process::ExitCode;
use std::sync::Arc;
use traffic::AppModel;

/// A figure's rows for its JSON file (`None`: the tables only print), or
/// why its result is unusable.
type Outcome = Result<Option<Box<dyn Serialize>>, String>;
type Figure = (&'static str, &'static str, fn() -> Outcome);

/// Every table and figure: name, what it shows, body.
const FIGURES: [Figure; 11] = [
    ("table1", "deadlock-freedom solutions compared", table1::run),
    ("table2", "key simulation parameters", table2::run),
    ("fig7", "latency vs injection rate, 8 schemes", fig7::run),
    ("fig8", "saturation throughput vs mesh size", fig8::run),
    ("fig9", "FastPass vs regular packet latency", fig9::run),
    ("fig10", "app latency and execution time", fig10::run),
    ("fig11", "router area and power", fig11::run),
    ("fig12", "99th-percentile application latency", fig12::run),
    ("fig13", "packet-type breakdown, 1 VC", fig13::run),
    ("fig_irregular", "degraded meshes", fig_irregular::run),
    ("ablation", "FastPass design-knob ablations", ablation::run),
];

/// The five schemes Figs. 8 and 12 compare.
const FIVE_SCHEMES: [SchemeId; 5] = [Spin, Swap, Drain, Pitstop, FastPass];

/// `(warmup, measure, size)` from `FP_WARMUP` / `FP_MEASURE` / `FP_SIZE`
/// over a figure's own defaults. A figure ignores the knobs its setup
/// fixes (default 0) and a fixed-window figure does not call this.
fn window(warmup: u64, measure: u64, size: u64) -> (u64, u64, usize) {
    let (warmup, measure) = (env_u64("FP_WARMUP", warmup), env_u64("FP_MEASURE", measure));
    (warmup, measure, env_u64("FP_SIZE", size) as usize)
}

/// Runs `each` on every simulation across `NOC_JOBS` workers, results
/// in order. These runs are not the `(spec, rate)` points the daemon
/// serves, so serve mode runs them here too and says so.
fn run_sims<T: Send + 'static>(
    sims: Vec<Simulation>,
    each: impl Fn(&mut Simulation) -> T + Send + Sync + 'static,
) -> Vec<T> {
    if let ExecMode::Serve(sock) = ExecMode::from_env() {
        eprintln!(
            "[fig] note: serve mode ({}) covers rate-sweep points only; \
             this figure's custom jobs run in-process",
            sock.display()
        );
    }
    let each = Arc::new(each);
    let jobs = sims.into_iter().map(|mut sim| {
        let each = Arc::clone(&each);
        move || each(&mut sim)
    });
    parallel_map(jobs.collect(), num_jobs())
}

/// Prints a table header: `first`, then each scheme's name in 10 columns.
fn scheme_header(first: &str, ids: &[SchemeId]) {
    let names: String = ids.iter().map(|id| format!("{:>10}", id.name())).collect();
    println!("{first}{names}");
}

/// The simulations of `spec`'s rates, each built as the sweep builds
/// its points ([`make_sim`]), once [`SweepSpec::admit`] accepts the spec
/// (Figs. 9 and 13a run their own statistics over them).
fn sweep_sims(spec: &SweepSpec) -> Result<Vec<Simulation>, String> {
    spec.admit()?;
    let &SweepSpec {
        id,
        pattern,
        size,
        fp_vcs,
        seed,
        ..
    } = spec;
    let sim = |&rate: &f64| make_sim(id, pattern, rate, size, fp_vcs, seed);
    Ok(spec.rates.iter().map(sim).collect())
}

/// An application-traffic simulation (Figs. 10, 12 and 13b): `id` at its
/// Table II configuration under `app`'s closed-loop model, its
/// transaction rate scaled by `intensity`, `quota` transactions per core
/// (`None`: open-ended). A `size` or `fp_vcs` the scheme cannot run on
/// ([`SchemeId::try_sim_config`]) is the figure's error.
fn app_sim(
    id: SchemeId,
    app: AppModel,
    size: usize,
    fp_vcs: usize,
    seed: u64,
    quota: Option<u64>,
    intensity: f64,
) -> Result<Simulation, String> {
    let cfg = id
        .try_sim_config(size, fp_vcs, seed)
        .map_err(|e| e.to_string())?;
    let scheme = id.build(&cfg, seed);
    let workload = app.workload_scaled(cfg.mesh.num_nodes(), quota, intensity);
    Ok(Simulation::new(cfg, scheme, Box::new(workload)))
}

fn usage(err: &str) -> ExitCode {
    let names = FIGURES.map(|f| f.0).join(" ");
    eprintln!("fig: {err}\nusage: fig <name>... [--serve[=SOCKET]]  (names: {names})");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut picked = Vec::new();
    for arg in std::env::args().skip(1) {
        // `ExecMode` reads the serve flags.
        if arg == "--serve" || arg.starts_with("--serve=") {
            continue;
        }
        match FIGURES.iter().find(|f| f.0 == arg) {
            Some(fig) => picked.push(fig),
            None if arg.starts_with('-') => return usage(&format!("unknown flag `{arg}`")),
            None => return usage(&format!("unknown figure `{arg}`")),
        }
    }
    if picked.is_empty() {
        return usage("no figure named");
    }
    let mut status = ExitCode::SUCCESS;
    for &(name, about, run) in picked {
        eprintln!("[fig] {name}: {about}");
        let written = match run() {
            Ok(None) => continue,
            Ok(Some(rows)) => emit_json(name, &rows).map_err(|e| format!("write JSON: {e}")),
            Err(err) => Err(err),
        };
        match written {
            Ok(path) => println!("JSON written to {}", path.display()),
            Err(err) => {
                eprintln!("fig {name}: {err}");
                status = ExitCode::FAILURE;
            }
        }
    }
    status
}
