//! `nocsim` — command-line front-end for the FastPass NoC simulator.
//!
//! Runs any scheme/pattern/size combination and prints a statistics
//! report, without writing any Rust:
//!
//! ```sh
//! nocsim --scheme fastpass --pattern transpose --rate 0.10 --size 8
//! nocsim --scheme escapevc --pattern uniform --rate 0.05 --cycles 50000
//! nocsim --scheme fastpass --app canneal --quota 50
//! nocsim --list
//! ```
//!
//! Arguments (all optional):
//!
//! * `--scheme <name>` — `fastpass` (default), `escapevc`, `spin`,
//!   `swap`, `drain`, `pitstop`, `minbd`, `tfc`, `vct-xy`;
//! * `--pattern <name>` — `uniform` (default), `transpose`, `shuffle`,
//!   `bit-rotation`, `bit-complement`, `tornado`, `neighbor`, `hotspot`;
//! * `--app <name>` — run a closed-loop application model instead of a
//!   synthetic pattern (`radix`, `canneal`, `fft`, `fmm`, `lu_cb`,
//!   `streamcluster`, `volrend`, `barnes`); `--pattern` and `--rate`
//!   are then unused;
//! * `--rate <f64>` — injection rate in packets/node/cycle, in `(0, 1]`
//!   (default 0.05);
//! * `--size <n>` — mesh edge (default 8, 2 to 255; DRAIN needs it even,
//!   the bit patterns a power-of-two node count); `--vcs <n>` —
//!   FastPass VCs (1 to 12; every other scheme runs Table II's VN/VC
//!   configuration);
//! * `--warmup/--cycles <n>` — window lengths (a synthetic run measures
//!   at least 1 cycle); `--quota <n>` — closed-loop
//!   transactions per core: with `--app`, a quota runs the application to
//!   completion with no warmup, capped at `max(--cycles, 1000000)` cycles
//!   (so `--cycles` can raise the cap but never lower it);
//! * `--seed <n>`; `--json` for machine output.
//!
//! A synthetic run is the sweep spec of the same axes, admitted by
//! `SweepSpec::admit` — the rule the `nocserve` daemon applies to a
//! wire submit — so the two refuse the same specs with the same
//! message. An application run is refused where
//! `SchemeId::try_sim_config` errs. Every refusal, like every bad
//! argument, is one `nocsim:` line and exit 2.

use fastpass_noc::core::stats::NetStats;
use fastpass_noc::schemes::{SchemeId, ALL_SCHEMES};
use fastpass_noc::serve::runner::{make_sim, SweepSpec};
use fastpass_noc::sim::Simulation;
use fastpass_noc::traffic::{AppModel, SyntheticPattern};
use serde::Serialize;
use std::collections::HashMap;
use std::process::ExitCode;

struct Args(HashMap<String, String>);

/// Flags that stand alone.
const SWITCHES: [&str; 3] = ["list", "json", "help"];
/// Flags that take a value.
const OPTIONS: [&str; 10] = [
    "scheme", "pattern", "app", "rate", "size", "vcs", "seed", "warmup", "cycles", "quota",
];

impl Args {
    fn parse() -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(k) = it.next() {
            let Some(key) = k.strip_prefix("--") else {
                return Err(format!("unexpected argument `{k}` (expected --key value)"));
            };
            if SWITCHES.contains(&key) {
                map.insert(key.to_string(), "true".to_string());
                continue;
            }
            if !OPTIONS.contains(&key) {
                return Err(format!("unknown flag `--{key}` (try --help)"));
            }
            let Some(v) = it.next() else {
                return Err(format!("missing value for --{key}"));
            };
            map.insert(key.to_string(), v);
        }
        Ok(Args(map))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid --{key} `{v}`")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.get(key) == Some("true")
    }
}

/// Every application model: Fig. 10's seven plus Barnes.
fn apps() -> impl Iterator<Item = AppModel> {
    AppModel::FIG10.into_iter().chain([AppModel::Barnes])
}

fn app_by_name(name: &str) -> Option<AppModel> {
    apps().find(|a| a.name().eq_ignore_ascii_case(name))
}

fn print_listing() {
    print!("schemes :");
    for id in ALL_SCHEMES.into_iter().chain([SchemeId::Vct]) {
        print!(" {}", id.name().to_lowercase());
    }
    println!();
    print!("patterns:");
    for p in SyntheticPattern::ALL {
        print!(" {}", p.name());
    }
    println!();
    print!("apps    :");
    for a in apps() {
        print!(" {}", a.name().to_lowercase());
    }
    println!();
}

/// The `--json` report: one object per run. A float with no value
/// (the latency of a run that delivered nothing) is `null`, as in the
/// result store.
#[derive(Serialize)]
struct JsonReport {
    delivered: u64,
    avg_latency: f64,
    throughput: f64,
    fastpass_fraction: f64,
    dropped: u64,
    rejections: u64,
    deflections: u64,
    cycles: u64,
}

fn report(stats: &NetStats, cycles_run: u64, json: bool) {
    if json {
        let report = JsonReport {
            delivered: stats.delivered(),
            avg_latency: stats.avg_latency(),
            throughput: stats.throughput_packets(),
            fastpass_fraction: stats.fastpass_fraction(),
            dropped: stats.dropped,
            rejections: stats.rejections,
            deflections: stats.deflections,
            cycles: cycles_run,
        };
        println!(
            "{}",
            serde_json::to_string(&report).expect("a flat record serializes")
        );
        return;
    }
    println!("cycles simulated   : {cycles_run}");
    println!("packets delivered  : {}", stats.delivered());
    println!("avg latency        : {:.1} cycles", stats.avg_latency());
    println!(
        "throughput         : {:.4} packets/node/cycle ({:.4} flits/node/cycle)",
        stats.throughput_packets(),
        stats.throughput_flits()
    );
    println!(
        "avg hops           : {:.2}",
        stats.hops.mean().unwrap_or(f64::NAN)
    );
    println!(
        "FastPass-Packets   : {} ({:.1}%)",
        stats.delivered_fastpass,
        100.0 * stats.fastpass_fraction()
    );
    println!(
        "rejections/drops   : {} / {}",
        stats.rejections, stats.dropped
    );
    println!("misroutes          : {}", stats.deflections);
}

fn run() -> Result<(), String> {
    let args = Args::parse()?;
    if args.flag("help") {
        println!(
            "see the module docs: nocsim --scheme <s> --pattern <p> --rate <r> [--size N] [--json]"
        );
        print_listing();
        return Ok(());
    }
    if args.flag("list") {
        print_listing();
        return Ok(());
    }
    let scheme_name = args.get("scheme").unwrap_or("fastpass");
    let size: usize = args.num("size", 8)?;
    let vcs: usize = args.num("vcs", 4)?;
    let seed: u64 = args.num("seed", 0xCAFE)?;
    let warmup: u64 = args.num("warmup", 5_000)?;
    let cycles: u64 = args.num("cycles", 20_000)?;
    let rate: f64 = args.num("rate", 0.05)?;
    let quota: u64 = args.num("quota", 0)?;
    let id = SchemeId::parse(scheme_name)
        .ok_or_else(|| format!("unknown scheme `{scheme_name}` (try --list)"))?;

    let stats = if let Some(app_name) = args.get("app") {
        let app = app_by_name(app_name)
            .ok_or_else(|| format!("unknown app `{app_name}` (try --list)"))?;
        // Table II's configuration for the scheme, from the one registry.
        let cfg = id
            .try_sim_config(size, vcs, seed)
            .map_err(|e| e.to_string())?;
        let workload = app.workload(cfg.mesh.num_nodes(), (quota > 0).then_some(quota));
        let scheme = id.build(&cfg, seed);
        let mut sim = Simulation::new(cfg, scheme, Box::new(workload));
        if quota > 0 {
            // Closed loop: run to completion, capped at 1M cycles or at
            // --cycles if that is larger; --cycles never lowers the cap.
            let ran = sim.run(cycles.max(1_000_000));
            let mut s = sim.core.stats.clone();
            s.cycles = ran;
            s
        } else {
            sim.run_windows(warmup, cycles)
        }
    } else {
        // The sweep's own spec, admitted under the one rule the daemon
        // applies, and its own point constructor, so a run reproduces a
        // stored point of the same spec.
        let pname = args.get("pattern").unwrap_or("uniform");
        let pattern = SyntheticPattern::from_name(pname)
            .ok_or_else(|| format!("unknown pattern `{pname}` (try --list)"))?;
        let spec = SweepSpec {
            id,
            pattern,
            rates: vec![rate],
            size,
            fp_vcs: vcs,
            warmup,
            measure: cycles,
            seed,
        };
        spec.admit()?;
        make_sim(id, pattern, rate, size, vcs, seed).run_windows(warmup, cycles)
    };
    report(&stats, stats.cycles, args.flag("json"));
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        // Everything `run` rejects is a bad argument: usage error.
        Err(e) => {
            eprintln!("nocsim: {e}");
            ExitCode::from(2)
        }
    }
}
