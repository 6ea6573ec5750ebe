//! A run's result: the metrics by name, the op counts, the failures and
//! the combined statistics digest; printed as a table, written to
//! `out/<workload>.json` and reduced to the one-line JSON the driver
//! reads.

use crate::catalogue::{Base, MetricDef, END_TO_END, PER_LAYER};
use serde::Content;
use std::collections::BTreeMap;

/// Paper values for the simulated ratios that have one (EXPERIMENTS.md
/// is the reference); every other simulated row is unvalidated.
const PAPER: [(&str, f64); 2] = [
    // Fig. 10: FastPass(0VN,4VC) execution time 6-9% under EscapeVC.
    ("bench.model.exec_norm", 0.925),
    // Fig. 7/8: 1.8x saturation throughput over SPIN.
    ("bench.model.sat_ratio_spin", 1.8),
];

/// The result of one workload run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this was the traced (per-layer) run.
    pub traced: bool,
    /// Metric values by catalogue name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Points attempted.
    pub attempted: u64,
    /// Points that failed any check.
    pub failed: u64,
    /// Failure messages (first few distinct ones).
    pub failures: Vec<String>,
    /// Combined digest of the reference statistics, hex.
    pub stats_digest: String,
    /// Op counts and sizes, stamped into the output file.
    pub info: Vec<(String, Content)>,
    /// Free-form lines printed under the table (span table, sample
    /// counts, written-down predictions).
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, traced: bool) -> Report {
        Report {
            workload,
            traced,
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            stats_digest: String::new(),
            info: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Sets a metric. Non-finite values read 0: the output is JSON.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Records failed points: counts all, keeps a few distinct messages.
    pub fn fail(&mut self, messages: Vec<String>) {
        self.failed += messages.len() as u64;
        for m in messages {
            if self.failures.len() < 8 && !self.failures.contains(&m) {
                self.failures.push(m);
            }
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn defs(&self) -> &'static [MetricDef] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    fn value(&self, def: &MetricDef) -> f64 {
        // A per-layer row whose layer this workload never enters reads 0.
        self.metrics.get(def.name).copied().unwrap_or(0.0)
    }

    /// Prints every metric by name with its unit and time base.
    pub fn print(&self) {
        println!(
            "== {} ({}) ==",
            self.workload,
            if self.traced {
                "traced, per layer"
            } else {
                "end to end"
            }
        );
        for def in self.defs() {
            let base = match def.base {
                Base::Host => "host",
                Base::Sim => "simulated",
                Base::Count => "count",
            };
            let v = self.value(def);
            let mut line = format!("  {:<46} {:>16.6} {:<15} {base}", def.name, v, def.unit);
            if def.base == Base::Sim {
                match PAPER.iter().find(|(n, _)| *n == def.name) {
                    Some((_, paper)) if v != 0.0 => line.push_str(&format!(
                        "  paper {paper} ({:+.1}%)",
                        100.0 * (v / paper - 1.0)
                    )),
                    _ => line.push_str("  unvalidated"),
                }
            }
            println!("{line}");
        }
        for n in &self.notes {
            println!("  {n}");
        }
        println!(
            "  stats_digest {}  attempted {}  failed {}",
            self.stats_digest, self.attempted, self.failed
        );
        for f in &self.failures {
            println!("  FAILED {f}");
        }
    }

    fn metrics_content(&self) -> Content {
        Content::Map(
            self.defs()
                .iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        Content::Map(vec![
                            ("value".into(), Content::F64(self.value(d))),
                            ("unit".into(), Content::Str(d.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The output-file document: stamp, op counts, digest, metrics.
    pub fn file_json(&self, stamp: &[(String, Content)], seed: u64) -> String {
        let mut doc = vec![
            ("workload".to_string(), Content::Str(self.workload.into())),
            ("traced".to_string(), Content::Bool(self.traced)),
            ("seed".to_string(), Content::U128(u128::from(seed))),
        ];
        doc.extend(stamp.iter().cloned());
        doc.extend(self.info.iter().cloned());
        doc.push((
            "stats_digest".into(),
            Content::Str(self.stats_digest.clone()),
        ));
        doc.push((
            "attempted".into(),
            Content::U128(u128::from(self.attempted)),
        ));
        doc.push(("failed".into(), Content::U128(u128::from(self.failed))));
        doc.push((
            "failures".into(),
            Content::Seq(self.failures.iter().cloned().map(Content::Str).collect()),
        ));
        doc.push(("metrics".into(), self.metrics_content()));
        serde_json::to_string_pretty(&Content::Map(doc)).expect("report serializes")
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn final_line(&self) -> String {
        let doc = Content::Map(vec![
            ("correct".into(), Content::Bool(self.correct())),
            (
                "attempted".into(),
                Content::U128(u128::from(self.attempted.max(1))),
            ),
            ("failed".into(), Content::U128(u128::from(self.failed))),
            ("metrics".into(), self.metrics_content()),
        ]);
        serde_json::to_string(&doc).expect("result serializes")
    }
}
