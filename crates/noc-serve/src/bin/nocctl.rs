//! Operator CLI for a running `nocserve` daemon.
//!
//! ```text
//! nocctl [--sock PATH] ping [--wait SECS]
//! nocctl [--sock PATH] metrics [--json]
//! nocctl [--sock PATH] watch
//! nocctl [--sock PATH] fetch KEY...
//! nocctl [--sock PATH] evict KEY...
//! nocctl [--sock PATH] gc
//! nocctl [--sock PATH] shutdown
//! nocctl flight IN.jsonl [--chrome OUT.json]
//! ```
//!
//! The socket defaults to `NOC_SERVE`, then `results/nocserve.sock`. `ping --wait N` retries for up to N seconds
//! — CI uses it as the daemon-readiness barrier. `metrics --json` dumps
//! the full [`noc_serve::proto::MetricsReport`], the daemon's one
//! report (CI asserts dedup with its counters). `watch`
//! streams the daemon's live flight records as JSON lines until the
//! daemon shuts down (or ctrl-C). `flight` works **offline**: it loads
//! a flight-recorder JSONL log, proves every job's span chain is
//! complete, and with `--chrome` streams a Perfetto-loadable Chrome
//! trace to the file, then validates it by streaming it back; a file
//! that fails the check is removed, so a file left behind is a checked
//! one.

use noc_serve::client::Client;
use noc_serve::flight::{check_daemon_trace, chrome_trace, load_flight, validate_chains};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: nocctl [--sock PATH] <ping [--wait SECS] | metrics [--json] | watch | fetch KEY... | evict KEY... | gc | shutdown> | nocctl flight IN.jsonl [--chrome OUT.json]";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut sock = noc_serve::ServeConfig::from_env().socket;
    if args.first().is_some_and(|a| a == "--sock") {
        args.remove(0);
        if args.is_empty() {
            return Err(format!("--sock needs a value\n{USAGE}"));
        }
        sock = PathBuf::from(args.remove(0));
    }
    let Some(cmd) = args.first().cloned() else {
        return Err(USAGE.to_string());
    };
    let rest = &args[1..];

    let connect = || {
        Client::connect(&sock)
            .map_err(|e| format!("cannot reach nocserve at {}: {e}", sock.display()))
    };
    match cmd.as_str() {
        "ping" => {
            let wait_secs: u64 = match rest {
                [] => 0,
                [flag, secs] if flag == "--wait" => secs
                    .parse()
                    .map_err(|_| format!("--wait wants seconds, got `{secs}`"))?,
                _ => return Err(USAGE.to_string()),
            };
            let deadline = Instant::now() + Duration::from_secs(wait_secs);
            loop {
                match connect().and_then(|mut c| c.ping()) {
                    Ok(proto) => {
                        println!("pong (proto v{proto}) from {}", sock.display());
                        return Ok(());
                    }
                    Err(e) if Instant::now() >= deadline => return Err(e),
                    Err(_) => std::thread::sleep(Duration::from_millis(100)),
                }
            }
        }
        "metrics" => {
            let report = connect()?.metrics()?;
            if rest.iter().any(|a| a == "--json") {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&report)
                        .map_err(|e| format!("cannot encode metrics: {e}"))?
                );
            } else {
                println!(
                    "nocserve metrics at {} (proto v{}, uptime {}s)",
                    sock.display(),
                    report.proto,
                    report.uptime_secs
                );
                println!("  counters:");
                for c in &report.counters {
                    println!("    {:<24} {}", c.name, c.value);
                }
                println!("  gauges:");
                for g in &report.gauges {
                    println!("    {:<24} {}", g.name, g.value);
                }
                println!("  histograms (count / p50 / p90 / p99 / max):");
                for h in &report.histograms {
                    println!(
                        "    {:<24} {} / {} / {} / {} / {}",
                        h.name, h.count, h.p50, h.p90, h.p99, h.max
                    );
                }
                println!("  workers:");
                for w in &report.workers {
                    println!(
                        "    worker {}: {} batches, {} points, {}ms busy, {:.0}% utilized",
                        w.worker,
                        w.batches,
                        w.points,
                        w.busy_ms,
                        w.utilization * 100.0
                    );
                }
                let f = &report.flight;
                println!(
                    "  flight: {} emitted, {} written, {} dropped, {} watchers",
                    f.emitted, f.written, f.dropped, f.watchers
                );
            }
            Ok(())
        }
        "watch" => {
            if !rest.is_empty() {
                return Err(USAGE.to_string());
            }
            eprintln!("watching {} (until daemon shutdown)…", sock.display());
            connect()?.watch(|record| match serde_json::to_string(&record) {
                Ok(line) => {
                    println!("{line}");
                    true
                }
                Err(_) => false,
            })?;
            Ok(())
        }
        "flight" => {
            let (input, chrome_out) = match rest {
                [input] => (input, None),
                [input, flag, out] if flag == "--chrome" => (input, Some(out)),
                _ => {
                    return Err(format!(
                        "flight wants IN.jsonl [--chrome OUT.json]\n{USAGE}"
                    ))
                }
            };
            let records = load_flight(&PathBuf::from(input))?;
            let problems = validate_chains(&records);
            if !problems.is_empty() {
                for p in &problems {
                    eprintln!("  broken chain: {p}");
                }
                return Err(format!(
                    "{}: {} of {} records leave broken span chains",
                    input,
                    problems.len(),
                    records.len()
                ));
            }
            println!(
                "{input}: {} records, every span chain complete",
                records.len()
            );
            if let Some(out) = chrome_out {
                let exported = File::create(out)
                    .and_then(|file| chrome_trace(&records, BufWriter::new(file)))
                    .map_err(|e| format!("cannot write {out}: {e}"))
                    .and_then(|()| {
                        let file =
                            File::open(out).map_err(|e| format!("cannot read {out}: {e}"))?;
                        check_daemon_trace(BufReader::new(file))
                            .map_err(|e| format!("exported trace failed validation: {e}"))
                    });
                let summary = exported.inspect_err(|_| {
                    let _ = std::fs::remove_file(out);
                })?;
                println!(
                    "{out}: chrome trace with {} job spans, {} batch spans, {} queue samples",
                    summary.jobs, summary.batch_spans, summary.counter_samples
                );
            }
            Ok(())
        }
        "fetch" => {
            if rest.is_empty() {
                return Err(format!("fetch needs at least one KEY\n{USAGE}"));
            }
            let points = connect()?.fetch(rest.to_vec())?;
            let mut missing = 0;
            for p in &points {
                match &p.point {
                    Some(point) => {
                        println!(
                            "{}  rate={} avg_latency={} throughput={}",
                            p.key, point.rate, point.avg_latency, point.throughput
                        );
                        if let Some(prov) = &p.provenance {
                            let by = match prov.worker {
                                Some(w) => format!("worker {w}"),
                                None => "batch executor".to_string(),
                            };
                            println!(
                                "    computed by {by} in {}ms ({} cycles, git {})",
                                prov.wall_ms,
                                prov.cycles,
                                if prov.git_sha.is_empty() {
                                    "unknown"
                                } else {
                                    &prov.git_sha
                                }
                            );
                        }
                    }
                    None => {
                        println!("{}  (not stored)", p.key);
                        missing += 1;
                    }
                }
            }
            if missing > 0 {
                return Err(format!("{missing} of {} keys not stored", points.len()));
            }
            Ok(())
        }
        "evict" => {
            if rest.is_empty() {
                return Err(format!("evict needs at least one KEY\n{USAGE}"));
            }
            let removed = connect()?.evict(rest.to_vec())?;
            println!("evicted {removed} of {} entries", rest.len());
            Ok(())
        }
        "gc" => {
            let report = connect()?.gc()?;
            println!(
                "gc: scanned {}, kept {}, dropped {} ({} stale, {} corrupt, {} temp)",
                report.scanned,
                report.kept,
                report.dropped(),
                report.dropped_stale,
                report.dropped_corrupt,
                report.dropped_temp
            );
            Ok(())
        }
        "shutdown" => {
            connect()?.shutdown()?;
            println!("nocserve at {} is shutting down", sock.display());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}
