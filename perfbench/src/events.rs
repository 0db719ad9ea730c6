//! `pipeline-events`: the §6.4 real-time events application.
//!
//! 140 plain LFs over structured events — no text, no NLP, no shards —
//! executed in memory, then the label model fitted with the app's
//! 6000 × 256 settings and posteriors predicted. The label model does
//! most of the work here, the inverse of `pipeline-product`. Every pass
//! is checked against a single-thread reference: the same vote rows and
//! the same posterior checksum (the fit is byte-identical at any thread
//! count).

use crate::layers::{repeat_for, report_attribution, report_pipeline, vote_density, write_trace};
use crate::spans::Spans;
use crate::stats::{bits_checksum, median};
use crate::sys::{fnv_bytes, matrix_checksum, repeated_setup, workers, FNV_BASIS};
use crate::{Ctx, Outcome};
use drybell_core::{GenerativeModel, TrainConfig, Vote};
use drybell_datagen::events::{self, EventTaskConfig, RealTimeEvent};
use drybell_lf::executor::{execute_in_memory, execute_in_memory_observed, ExecOptions};
use drybell_lf::LfSet;
use drybell_obs::json::Json;
use drybell_obs::{Telemetry, Tracer};
use std::time::{Duration, Instant};

/// Events per pass.
const EVENTS: usize = 100_000;

/// Weak supervision sources (§3.3: 140).
const LFS: usize = 140;

/// Label-model steps and batch (the app's settings).
const STEPS: usize = 6000;
const BATCH: usize = 256;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

fn train_config(seed: u64, threads: usize) -> TrainConfig {
    TrainConfig {
        steps: STEPS,
        batch_size: BATCH,
        class_prior: 0.5,
        seed,
        num_threads: threads,
        ..TrainConfig::default()
    }
}

struct Inputs {
    events: Vec<RealTimeEvent>,
    set: LfSet<RealTimeEvent>,
}

fn setup(seed: u64) -> Result<(Inputs, u64), String> {
    let cfg = EventTaskConfig {
        num_unlabeled: EVENTS,
        num_test: 1,
        num_lfs: LFS,
        seed,
        ..EventTaskConfig::paper()
    };
    let ds = events::generate(&cfg);
    let set = events::lf_set(LFS, seed);
    // Warm-up: one small execution over the head of the stream.
    execute_in_memory(&set, None, &ds.unlabeled[..1000.min(EVENTS)], workers())
        .map_err(|e| e.to_string())?;
    let fingerprint = ds.unlabeled.iter().fold(FNV_BASIS, |h, e| {
        e.servable
            .iter()
            .chain(&e.aggregates)
            .fold(fnv_bytes(h, &e.id.to_le_bytes()), |h, x| {
                fnv_bytes(h, &x.to_bits().to_le_bytes())
            })
    });
    Ok((
        Inputs {
            events: ds.unlabeled,
            set,
        },
        fingerprint,
    ))
}

struct Reference {
    votes: u64,
    posteriors: u64,
}

fn reference(inputs: &Inputs, seed: u64) -> Result<Reference, String> {
    let (matrix, _) =
        execute_in_memory(&inputs.set, None, &inputs.events, 1).map_err(|e| e.to_string())?;
    let mut model = GenerativeModel::new(matrix.num_lfs(), 0.7);
    model
        .fit(&matrix, &train_config(seed, 1))
        .map_err(|e| e.to_string())?;
    Ok(Reference {
        votes: matrix_checksum(&matrix),
        posteriors: bits_checksum(model.predict_proba(&matrix)),
    })
}

struct Pass {
    wall_s: f64,
    exec_s: f64,
    fit_s: f64,
    predict_s: f64,
    /// Share of non-abstain votes in the pass's label matrix.
    density: f64,
    ok: bool,
}

fn pass(
    inputs: &Inputs,
    set: &LfSet<RealTimeEvent>,
    seed: u64,
    telemetry: &Telemetry,
    spans: &Spans,
    want: &Reference,
) -> Result<Pass, String> {
    let opts = ExecOptions::new().with_telemetry(telemetry.clone());
    let cfg = train_config(seed, workers());
    let start = Instant::now();
    let (matrix, _) = spans
        .span("lf/execute_in_memory", || {
            execute_in_memory_observed(set, None, &inputs.events, workers(), &opts)
        })
        .map_err(|e| e.to_string())?;
    let exec_s = start.elapsed().as_secs_f64();
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
        model.predict_proba_observed(&matrix, workers(), Some(telemetry))
    });
    let predict_s = t.elapsed().as_secs_f64();
    let wall_s = start.elapsed().as_secs_f64();
    let ok = matrix.num_examples() == inputs.events.len()
        && matrix_checksum(&matrix) == want.votes
        && bits_checksum(posteriors) == want.posteriors;
    Ok(Pass {
        wall_s,
        exec_s,
        fit_s,
        predict_s,
        density: vote_density(&matrix),
        ok,
    })
}

fn phase(
    inputs: &Inputs,
    set: &LfSet<RealTimeEvent>,
    seed: u64,
    spans: &Spans,
    budget: Duration,
    want: &Reference,
) -> Result<Vec<Pass>, String> {
    let telemetry = Telemetry::new();
    repeat_for(budget, || pass(inputs, set, seed, &telemetry, spans, want))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (inputs, setup_s, mismatched) = repeated_setup(SETUPS, || setup(ctx.seed))?;
    let want = reference(&inputs, ctx.seed)?;
    out.failed += mismatched;
    out.inputs = Json::obj(vec![
        ("events", Json::from(inputs.events.len())),
        ("lfs", Json::from(inputs.set.len())),
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
            ctx.seed,
            &Spans::off(),
            ctx.budget,
            &want,
        )?;
        out.attempted = passes.len() as u64;
        out.failed += passes.iter().filter(|p| !p.ok).count() as u64;
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        report_pipeline(&mut out, &setup_s, &walls, inputs.events.len());
        return Ok(out);
    }

    let half = ctx.budget / 2;
    let plain = phase(&inputs, &inputs.set, ctx.seed, &Spans::off(), half, &want)?;
    let tracer = Tracer::new();
    let spans = Spans::on(&tracer);
    let traced = phase(&inputs, &inputs.set, ctx.seed, &spans, half, &want)?;
    let attribution = spans.finish("bench/pipeline-events").ok_or("no trace")?;
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
    let fit_s = per_pass(|p| p.fit_s);
    out.set("lf.exec_s", exec_s);
    // No NLP and no shards here: what a single-thread replay of the LF
    // bodies does not explain is the in-memory engine (row assembly,
    // thread handoff). With 140 LFs a per-call timing shim would cost
    // more than the bodies, so the bodies are replayed in one timed loop.
    let t = Instant::now();
    let mut replayed_votes = 0usize;
    for e in &inputs.events {
        for lf in inputs.set.lfs() {
            let vote = lf.try_vote(e, None, None).map_err(|e| e.to_string())?;
            replayed_votes += usize::from(vote != Vote::Abstain);
        }
    }
    let bodies_s = t.elapsed().as_secs_f64();
    out.set(
        "lf.exec_unattributed_s",
        workers() as f64 * exec_s - bodies_s,
    );
    out.set("core.fit_s", fit_s);
    out.set("core.fit_rows_per_s", (STEPS * BATCH) as f64 / fit_s);
    out.set("core.predict_s", per_pass(|p| p.predict_s));
    let last = traced.last().expect("at least one traced pass");
    let density = last.density;
    let cells = (inputs.events.len() * inputs.set.len()) as f64;
    if (replayed_votes as f64 / cells - density).abs() > 1e-12 {
        out.failed += 1;
    }
    out.detail("lf_bodies_replay_s", Json::from(bodies_s));
    out.set("core.vote_density", last.density);
    out.set("lf.nonabstain_ratio", last.density);
    out.detail(
        "trace_file",
        Json::from(write_trace(&tracer, "pipeline-events", ctx.seed)),
    );
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
