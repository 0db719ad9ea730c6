//! The repository benchmark: four seeded workloads driven through the
//! public crate APIs, with end-to-end metrics, output checks and a
//! traced per-layer breakdown.
//!
//! ```text
//! drybell-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `pipeline-product`, `pipeline-events`, `serve`,
//! `stream-topic` (see `perfbench/README.md` for why each exists).
//! With `--trace 0` the run reports every end-to-end metric; with
//! `--trace 1` it runs the workload twice, untraced then traced, and
//! reports every per-layer metric plus a Perfetto trace under
//! `perfbench/out/`. The last line of standard output is always one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod events;
mod layers;
mod product;
mod serve;
mod spans;
mod stats;
mod stream;
mod sys;

use drybell_obs::json::Json;
use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics: every untraced run reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("examples_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Per-layer metrics: every traced run reports each of them (0 for a
/// layer the workload never calls).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // Span attribution of the traced phase.
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
    ("unattributed_s", "s", "lower"),
    ("dataflow.self_s", "s", "lower"),
    ("lf.self_s", "s", "lower"),
    ("core.self_s", "s", "lower"),
    ("serving.self_s", "s", "lower"),
    ("doctor.self_s", "s", "lower"),
    ("obs.self_s", "s", "lower"),
    ("idle.self_s", "s", "higher"),
    // dataflow
    ("dataflow.shard_write_s", "s", "lower"),
    ("dataflow.shard_read_s", "s", "lower"),
    ("dataflow.label_write_s", "s", "lower"),
    ("dataflow.spill_bytes", "bytes", "lower"),
    ("dataflow.worker_busy_ratio", "ratio", "higher"),
    ("dataflow.stream_poll_us_p50", "us", "lower"),
    ("dataflow.stream_poll_growth", "ratio", "lower"),
    ("dataflow.stream_read_us_per_shard", "us", "lower"),
    ("stream.backlog_max", "count", "lower"),
    ("stream.generator_late_ms_max", "ms", "lower"),
    // nlp
    ("nlp.annotate_us_per_doc", "us", "lower"),
    ("nlp.tokenize_us_per_doc", "us", "lower"),
    ("nlp.langid_us_per_doc", "us", "lower"),
    ("nlp.ner_us_per_doc", "us", "lower"),
    ("nlp.topic_us_per_doc", "us", "lower"),
    ("nlp.sentiment_us_per_doc", "us", "lower"),
    ("nlp.calls_per_example", "ratio", "lower"),
    // lf
    ("lf.exec_s", "s", "lower"),
    ("lf.exec_unattributed_s", "s", "lower"),
    ("lf.kw_en.vote_us_per_example", "us", "lower"),
    ("lf.kw_photo_strict_en.vote_us_per_example", "us", "lower"),
    ("lf.kg_multilang.vote_us_per_example", "us", "lower"),
    ("lf.kg_foreign_product.vote_us_per_example", "us", "lower"),
    ("lf.topic_noncommerce.vote_us_per_example", "us", "lower"),
    (
        "lf.kg_core_plus_accessory.vote_us_per_example",
        "us",
        "lower",
    ),
    ("lf.legacy_positive_side.vote_us_per_example", "us", "lower"),
    ("lf.no_product_terms.vote_us_per_example", "us", "lower"),
    ("lf.nonabstain_ratio", "ratio", "higher"),
    ("lf.exec_ms_per_shard", "ms", "lower"),
    // core
    ("core.fit_s", "s", "lower"),
    ("core.fit_rows_per_s", "1/s", "higher"),
    ("core.predict_s", "s", "lower"),
    ("core.vote_density", "ratio", "higher"),
    ("core.fold_ms_per_shard", "ms", "lower"),
    // serving
    ("serving.submit_us_p50", "us", "lower"),
    ("serving.wait_us_p50", "us", "lower"),
    ("serving.kernel_ns_per_input", "ns", "lower"),
    ("serving.kernel_share", "ratio", "lower"),
    ("serving.mean_batch_size", "count", "higher"),
    ("serving.degraded", "count", "lower"),
    ("serving.rejected", "count", "lower"),
    ("serving.shadow_ms_per_shard", "ms", "lower"),
    // doctor
    ("doctor.observe_us_per_event", "us", "lower"),
    ("doctor.windows_closed", "count", "higher"),
    // obs
    ("obs.snapshot_us", "us", "lower"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &[
    "pipeline-product",
    "pipeline-events",
    "serve",
    "stream-topic",
];

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What the benchmark was asked to do.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget (both phases together in a traced run).
    pub budget: Duration,
    /// Traced run?
    pub trace: bool,
}

/// The result of one workload run.
pub struct Outcome {
    /// Operations attempted (passes, requests or shards).
    pub attempted: u64,
    /// Operations whose output check failed, plus refused or degraded
    /// requests.
    pub failed: u64,
    /// Input sizes, recorded with the provenance.
    pub inputs: Json,
    /// Metric values by name (units come from the tables above).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Everything else worth keeping: provenance, quantiles with their
    /// sample counts, per-phase figures.
    pub details: Vec<(&'static str, Json)>,
}

impl Default for Outcome {
    fn default() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            inputs: Json::Null,
            metrics: BTreeMap::new(),
            details: Vec::new(),
        }
    }
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Attach a details field.
    pub fn detail(&mut self, name: &'static str, value: Json) {
        self.details.push((name, value));
    }
}

/// The result line: every metric of the mode's table, with its unit.
fn result_line(outcome: &Outcome, trace: bool) -> Json {
    let table: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END.to_vec()
    };
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            // A quantile over failed operations (recorded as infinitely
            // late) still prints as a number.
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { f64::MAX };
            (
                name,
                Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::from(unit)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        (
            "correct",
            Json::from(outcome.failed == 0 && outcome.attempted > 0),
        ),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("drybell-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        trace: args.trace,
    };
    let run = match args.workload.as_str() {
        "pipeline-product" => product::run(&ctx),
        "pipeline-events" => events::run(&ctx),
        "serve" => serve::run(&ctx),
        "stream-topic" => stream::run(&ctx),
        other => Err(format!("unknown workload {other}")),
    };
    let mut outcome = match run {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("drybell-perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if !args.trace {
        outcome.set("peak_rss_mb", sys::peak_rss_mb());
    }
    let inputs = std::mem::replace(&mut outcome.inputs, Json::Null);
    let mut details = vec![(
        "provenance",
        sys::provenance(&args.workload, args.seed, args.seconds, args.trace, inputs),
    )];
    details.append(&mut outcome.details);
    let line = result_line(&outcome, args.trace);
    details.push(("result", line.clone()));
    let report = Json::obj(details);

    let out = sys::out_dir();
    let name = format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::create_dir_all(&out)
        .and_then(|_| std::fs::write(out.join(&name), report.to_pretty()))
    {
        eprintln!(
            "drybell-perfbench: cannot write {}: {e}",
            out.join(&name).display()
        );
    }
    println!(
        "{}",
        report
            .get("provenance")
            .map(Json::to_line)
            .unwrap_or_default()
    );
    println!("{}", line.to_line());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// workloads and metrics this binary reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let doc = drybell_obs::parse_json(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .expect(key)
                .items()
                .iter()
                .map(|m| {
                    let s = |k: &str| match m.get(k) {
                        Some(Json::Str(s)) => s.clone(),
                        _ => String::new(),
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layer: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layer);
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_has_every_metric_of_its_mode() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        outcome.set("setup_s", 1.5);
        let line = result_line(&outcome, false);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let metrics = line.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).unwrap();
            assert_eq!(m.get("unit"), Some(&Json::from(*unit)));
        }
        assert_eq!(
            metrics.get("setup_s").unwrap().get("value"),
            Some(&Json::Num(1.5))
        );
        outcome.failed = 1;
        let line = result_line(&outcome, true);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        let Json::Obj(fields) = line.get("metrics").unwrap() else {
            panic!("metrics is an object")
        };
        assert_eq!(fields.len(), PER_LAYER.len());
    }
}
