//! `pipeline-product`: the paper's §1 path over the product corpus.
//!
//! Each pass writes the corpus as record shards, executes the eight
//! product LFs shard-to-shard with per-worker NLP servers, fits the
//! generative model, predicts posteriors and writes them back as
//! label shards. Every pass is checked against a single-thread
//! in-memory reference for the seed: the same vote rows and the same
//! FNV checksum over the posteriors' bits.

use crate::layers::{
    repeat_for, replay_nlp, report_attribution, report_pipeline, timed_lf_set, vote_density,
    write_trace,
};
use crate::spans::Spans;
use crate::stats::{bits_checksum, median};
use crate::sys::{matrix_checksum, repeated_setup, workers, WorkDir};
use crate::{Ctx, Outcome};
use drybell_core::{GenerativeModel, TrainConfig};
use drybell_dataflow::{read_all, write_all, JobConfig, JobStats, ShardSpec};
use drybell_datagen::product::{self, ProductDoc};
use drybell_lf::executor::{
    execute_in_memory, execute_sharded_observed, ExecOptions, TextExtractor,
};
use drybell_lf::LfSet;
use drybell_obs::json::Json;
use drybell_obs::{Telemetry, Tracer};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Documents per pass.
const DOCS: usize = 16_000;

/// Input shards per pass.
const SHARDS: usize = 8;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Documents of the warm-up pass.
const WARMUP_DOCS: usize = 500;

/// Label-model steps and batch (the §1 scaling run's settings).
const STEPS: usize = 3000;
const BATCH: usize = 64;

fn train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        steps: STEPS,
        batch_size: BATCH,
        seed,
        ..TrainConfig::default()
    }
}

struct Inputs {
    docs: Vec<ProductDoc>,
    set: Arc<LfSet<ProductDoc>>,
    text: TextExtractor<ProductDoc>,
}

fn setup(seed: u64) -> Result<(Inputs, u64), String> {
    let cfg = product::ProductTaskConfig {
        num_unlabeled: DOCS,
        num_dev: 0,
        num_test: 0,
        seed,
        ..product::ProductTaskConfig::paper()
    };
    let ds = product::generate(&cfg);
    let set = Arc::new(product::lf_set(ds.kg.clone()));
    let text = product::text_extractor();
    // Warm-up: model servers, knowledge-graph pages and allocator.
    let warm = &ds.unlabeled[..WARMUP_DOCS.min(ds.unlabeled.len())];
    execute_in_memory(&set, Some(&text), warm, workers()).map_err(|e| e.to_string())?;
    let fingerprint = ds.unlabeled.iter().fold(crate::sys::FNV_BASIS, |h, d| {
        crate::sys::fnv_bytes(h, d.text.as_bytes())
    });
    Ok((
        Inputs {
            docs: ds.unlabeled,
            set,
            text,
        },
        fingerprint,
    ))
}

/// The expected outputs: vote rows and posterior checksum.
struct Reference {
    votes: u64,
    posteriors: u64,
}

fn reference(inputs: &Inputs, seed: u64) -> Result<Reference, String> {
    let (matrix, _) = execute_in_memory(&inputs.set, Some(&inputs.text), &inputs.docs, 1)
        .map_err(|e| e.to_string())?;
    let mut model = GenerativeModel::new(matrix.num_lfs(), 0.7);
    model
        .fit(&matrix, &train_config(seed))
        .map_err(|e| e.to_string())?;
    Ok(Reference {
        votes: matrix_checksum(&matrix),
        posteriors: bits_checksum(model.predict_proba(&matrix)),
    })
}

/// One pass's timings and outputs.
struct Pass {
    wall_s: f64,
    write_s: f64,
    exec_s: f64,
    fit_s: f64,
    predict_s: f64,
    labels_s: f64,
    job: JobStats,
    /// Share of non-abstain votes in the pass's label matrix.
    density: f64,
    ok: bool,
}

fn pass(
    inputs: &Inputs,
    set: &LfSet<ProductDoc>,
    dir: &std::path::Path,
    seed: u64,
    telemetry: &Telemetry,
    spans: &Spans,
    want: &Reference,
) -> Result<Pass, String> {
    let input = ShardSpec::new(dir, "docs", SHARDS);
    let output = input.derive("votes");
    let labels = input.derive("labels");
    let job = JobConfig::new("product-lfs").with_workers(workers());
    let opts = ExecOptions::new().with_telemetry(telemetry.clone());
    let cfg = train_config(seed);

    let start = Instant::now();
    let t = Instant::now();
    spans
        .span("dataflow/write_shards", || write_all(&input, &inputs.docs))
        .map_err(|e| e.to_string())?;
    let write_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (matrix, job) = spans
        .span("lf/execute_sharded", || {
            execute_sharded_observed(
                set,
                Some(&inputs.text),
                &input,
                &output,
                &job,
                |d| d.id,
                &opts,
            )
        })
        .map_err(|e| e.to_string())?;
    let exec_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut model = GenerativeModel::new(matrix.num_lfs(), 0.7);
    spans
        .span("core/fit", || {
            model.fit_observed(&matrix, &cfg, Some(telemetry))
        })
        .map_err(|e| e.to_string())?;
    let fit_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let posteriors = spans.span("core/predict", || {
        model.predict_proba_observed(&matrix, 1, Some(telemetry))
    });
    let predict_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let records: Vec<(u64, f64)> = posteriors
        .iter()
        .enumerate()
        .map(|(i, &p)| (i as u64, p))
        .collect();
    spans
        .span("dataflow/write_labels", || write_all(&labels, &records))
        .map_err(|e| e.to_string())?;
    let labels_s = t.elapsed().as_secs_f64();
    let wall_s = start.elapsed().as_secs_f64();

    let ok = matrix.num_examples() == inputs.docs.len()
        && matrix_checksum(&matrix) == want.votes
        && bits_checksum(posteriors) == want.posteriors;
    Ok(Pass {
        wall_s,
        write_s,
        exec_s,
        fit_s,
        predict_s,
        labels_s,
        job,
        density: vote_density(&matrix),
        ok,
    })
}

/// Run passes until `budget` is spent (at least one). Every pass
/// writes under `work/pass`; the last pass's files stay for replays.
fn phase(
    inputs: &Inputs,
    set: &LfSet<ProductDoc>,
    work: &WorkDir,
    seed: u64,
    spans: &Spans,
    budget: Duration,
    want: &Reference,
) -> Result<Vec<Pass>, String> {
    let telemetry = Telemetry::new();
    let dir = work.path().join("pass");
    repeat_for(budget, || {
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        }
        pass(inputs, set, &dir, seed, &telemetry, spans, want)
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (inputs, setup_s, mismatched) = repeated_setup(SETUPS, || setup(ctx.seed))?;
    let want = reference(&inputs, ctx.seed)?;
    let work = WorkDir::create("pipeline-product").map_err(|e| e.to_string())?;
    out.failed += mismatched;
    out.inputs = Json::obj(vec![
        ("docs", Json::from(inputs.docs.len())),
        ("lfs", Json::from(inputs.set.len())),
        ("shards", Json::from(SHARDS)),
        ("workers", Json::from(workers())),
        ("train_steps", Json::from(STEPS)),
        ("train_batch", Json::from(BATCH)),
    ]);
    out.detail(
        "setup_s",
        Json::Arr(setup_s.iter().map(|&s| Json::from(s)).collect()),
    );

    if !ctx.trace {
        let passes = phase(
            &inputs,
            &inputs.set,
            &work,
            ctx.seed,
            &Spans::off(),
            ctx.budget,
            &want,
        )?;
        out.attempted = passes.len() as u64;
        out.failed += passes.iter().filter(|p| !p.ok).count() as u64;
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        report_pipeline(&mut out, &setup_s, &walls, inputs.docs.len());
        return Ok(out);
    }

    // Traced run: the same passes untraced, then traced with the LF
    // timing shim, for the overhead; then single-thread replays.
    let half = ctx.budget / 2;
    let plain = phase(
        &inputs,
        &inputs.set,
        &work,
        ctx.seed,
        &Spans::off(),
        half,
        &want,
    )?;
    let (timed_set, clock) = timed_lf_set(Arc::clone(&inputs.set));
    let tracer = Tracer::new();
    let spans = Spans::on(&tracer);
    let traced = phase(&inputs, &timed_set, &work, ctx.seed, &spans, half, &want)?;
    let attribution = spans.finish("bench/pipeline-product").ok_or("no trace")?;
    out.attempted = (plain.len() + traced.len()) as u64;
    out.failed += plain.iter().chain(&traced).filter(|p| !p.ok).count() as u64;
    report_attribution(&mut out, &attribution);
    let plain_wall = median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    out.set(
        "trace.overhead_pct",
        (traced_wall - plain_wall) / plain_wall * 100.0,
    );

    let per_pass = |f: fn(&Pass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let exec_s = per_pass(|p| p.exec_s);
    out.set("dataflow.shard_write_s", per_pass(|p| p.write_s));
    out.set("dataflow.label_write_s", per_pass(|p| p.labels_s));
    out.set(
        "dataflow.spill_bytes",
        per_pass(|p| p.job.spill_bytes as f64),
    );
    out.set(
        "dataflow.worker_busy_ratio",
        per_pass(|p| {
            p.job.worker_busy.iter().sum::<f64>()
                / (p.job.workers.max(1) as f64 * p.job.seconds.max(1e-9))
        }),
    );
    out.set("lf.exec_s", exec_s);
    out.set("core.fit_s", per_pass(|p| p.fit_s));
    out.set(
        "core.fit_rows_per_s",
        (STEPS * BATCH) as f64 / per_pass(|p| p.fit_s),
    );
    out.set("core.predict_s", per_pass(|p| p.predict_s));
    let last = traced.last().expect("at least one traced pass");
    out.set("core.vote_density", last.density);
    out.set("lf.nonabstain_ratio", last.density);
    let examples = (traced.len() * inputs.docs.len()) as f64;
    let nlp_calls: u64 = traced.iter().map(|p| p.job.counters.get("nlp_calls")).sum();
    out.set("nlp.calls_per_example", nlp_calls as f64 / examples);
    for (name, ns) in clock.totals() {
        let metric: &'static str = match name.as_str() {
            "kw_en" => "lf.kw_en.vote_us_per_example",
            "kw_photo_strict_en" => "lf.kw_photo_strict_en.vote_us_per_example",
            "kg_multilang" => "lf.kg_multilang.vote_us_per_example",
            "kg_foreign_product" => "lf.kg_foreign_product.vote_us_per_example",
            "topic_noncommerce" => "lf.topic_noncommerce.vote_us_per_example",
            "kg_core_plus_accessory" => "lf.kg_core_plus_accessory.vote_us_per_example",
            "legacy_positive_side" => "lf.legacy_positive_side.vote_us_per_example",
            "no_product_terms" => "lf.no_product_terms.vote_us_per_example",
            _ => continue,
        };
        out.set(metric, ns as f64 / 1e3 / examples);
    }
    let tracer_file = write_trace(&tracer, "pipeline-product", ctx.seed);

    // Replays over the last traced pass's inputs.
    let input = ShardSpec::new(work.path().join("pass"), "docs", SHARDS);
    let t = Instant::now();
    let reread: Vec<ProductDoc> = read_all(&input).map_err(|e| e.to_string())?;
    let read_s = t.elapsed().as_secs_f64();
    if reread.len() != inputs.docs.len() {
        out.failed += 1;
    }
    out.set("dataflow.shard_read_s", read_s);
    let texts: Vec<String> = inputs.docs.iter().map(|d| (inputs.text)(d)).collect();
    let nlp = replay_nlp(&texts);
    nlp.report(&mut out);
    // Worker time inside the executor that the replays do not explain:
    // the engine's own spill, vote encoding and thread handoff.
    let replayed = nlp.annotate_us * inputs.docs.len() as f64 / 1e6
        + clock.total_ns() as f64 / 1e9 / traced.len() as f64
        + read_s;
    out.set(
        "lf.exec_unattributed_s",
        workers() as f64 * exec_s - replayed,
    );
    out.detail("trace_file", Json::from(tracer_file));
    out.detail("nlp_replay_digest", Json::from(nlp.digest));
    out.detail(
        "passes",
        Json::obj(vec![
            ("untraced", Json::from(plain.len())),
            ("traced", Json::from(traced.len())),
            ("untraced_wall_s", Json::from(plain_wall)),
            ("traced_wall_s", Json::from(traced_wall)),
        ]),
    );
    Ok(out)
}
