//! `stream-topic`: an open-loop spool of small topic shards.
//!
//! A generator thread commits one shard of topic-document ids into a
//! spool directory on a fixed schedule, below the rate the consumer can
//! sustain, whether or not the consumer keeps up. The consumer polls
//! the spool (`StreamIngestor::poll`), reads each arriving shard
//! (`ShardReader`), labels its documents (`execute_in_memory_observed`),
//! folds the votes into the label model (`fit_incremental`), sweeps a
//! probe pool through a windowed shadow eval (`WindowedShadow`) and
//! feeds the shard's events and a metrics snapshot to the in-stream
//! drift monitor (`StreamMonitor`). Lag runs from a shard's scheduled
//! commit time to the end of its monitor observation.
//!
//! Checks: every shard delivered exactly once and in order, no monitor
//! window gating on this healthy stream, and the final label-model
//! parameters equal to a drained replay of the same spool.

use crate::layers::{logreg_registry, replay_nlp, report_attribution, vote_density, write_trace};
use crate::spans::Spans;
use crate::stats::{
    bits_checksum, mean, median, quantile, quantile_sorted, segment_median, Quantile,
};
use crate::sys::{fnv_bytes, repeated_setup, WorkDir, FNV_BASIS};
use crate::{Ctx, Outcome};
use drybell_core::optim::Optimizer;
use drybell_core::{GenerativeModel, LabelMatrix, TrainConfig};
use drybell_dataflow::{ShardReader, ShardWriter, StreamIngestor};
use drybell_datagen::topic::{self, TopicDoc};
use drybell_doctor::{DoctorConfig, StreamMonitor, WindowFolder};
use drybell_features::SparseVector;
use drybell_lf::executor::{
    execute_in_memory, execute_in_memory_observed, ExecOptions, ExecutionStats, TextExtractor,
};
use drybell_lf::LfSet;
use drybell_obs::json::Json;
use drybell_obs::{Telemetry, Tracer};
use drybell_serving::{ScoreInput, ServingRegistry, ShadowEval, WindowedShadow};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Documents per shard.
const DOCS_PER_SHARD: usize = 60;

/// Shards committed per second.
const RATE: f64 = 30.0;

/// Journal events per monitor window (two per shard): 50 shards, or
/// 3,000 documents, so that even the rarest LF votes in every window.
const WINDOW_EVENTS: usize = 100;

/// Equal consecutive runs of shards. Lag figures are the median
/// segment's, so one host stall does not set a run's tail; each
/// segment keeps at least ten samples beyond its p95 at 20 s.
const SEGMENTS: usize = 3;

/// LF executor threads per shard. One: with two, a 100-doc shard took
/// either ~9 or ~19 ms depending on whether both threads found a free
/// core, and the median lag flipped between the two.
const LF_WORKERS: usize = 1;

/// Gradient steps and batch per incremental fold.
const FOLD_STEPS: usize = 40;
const FOLD_BATCH: usize = 64;

/// Base Adam learning rate, decayed `BASE_LR / (fold + 1)`.
const BASE_LR: f64 = 0.05;

/// Probe payloads swept through the shadow eval per shard.
const PROBES: usize = 256;

/// Consumer nap between empty polls.
const POLL_NAP: Duration = Duration::from_millis(1);

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Registry versions: v1 serves, v2 is the faithful candidate.
const SERVING: u32 = 1;
const CANDIDATE: u32 = 2;

struct Inputs {
    docs: Vec<TopicDoc>,
    set: LfSet<TopicDoc>,
    text: TextExtractor<TopicDoc>,
    registry: ServingRegistry,
    probes: Vec<SparseVector>,
}

fn setup(seed: u64, shards: usize) -> Result<(Inputs, u64), String> {
    let cfg = topic::TopicTaskConfig {
        num_unlabeled: shards * DOCS_PER_SHARD,
        num_dev: 0,
        num_test: 0,
        seed,
        ..topic::TopicTaskConfig::paper()
    };
    let ds = topic::generate(&cfg);
    let set = topic::lf_set(ds.crawl_table.clone());
    let text = topic::text_extractor();

    // Shadow fixture: a serving model and a byte-identical candidate.
    let (registry, probes) = logreg_registry(seed ^ 0x7368_6164, &[SERVING, CANDIDATE], PROBES)?;

    // Warm-up: label one shard's worth of documents.
    execute_in_memory(
        &set,
        Some(&text),
        &ds.unlabeled[..DOCS_PER_SHARD],
        LF_WORKERS,
    )
    .map_err(|e| e.to_string())?;
    let fingerprint = ds
        .unlabeled
        .iter()
        .fold(FNV_BASIS, |h, d| fnv_bytes(h, d.full_text().as_bytes()));
    Ok((
        Inputs {
            docs: ds.unlabeled,
            set,
            text,
            registry,
            probes,
        },
        fingerprint,
    ))
}

fn shard_path(spool: &Path, index: usize) -> PathBuf {
    spool.join(format!("shard-{index:06}.rec"))
}

fn fold_config(seed: u64) -> TrainConfig {
    TrainConfig {
        steps: FOLD_STEPS,
        batch_size: FOLD_BATCH,
        class_prior: 0.5,
        seed,
        ..TrainConfig::default()
    }
}

/// The per-shard `lf_execution` event the monitor folds.
fn lf_event(stats: &ExecutionStats) -> Json {
    Json::obj(vec![
        ("kind", Json::from("lf_execution")),
        ("seconds", Json::from(stats.seconds)),
        ("examples", Json::from(stats.examples as u64)),
        ("nlp_calls", Json::from(stats.nlp_calls)),
        ("nlp_degraded", Json::from(stats.nlp_degraded)),
    ])
}

/// Sweep the probes through a shadow eval of the candidate; the sweep
/// closes exactly one window, whose `shadow` event the monitor judges.
fn shadow_event(inputs: &Inputs) -> Result<Json, String> {
    let eval = ShadowEval::new(&inputs.registry, "m", CANDIDATE).map_err(|e| e.to_string())?;
    let mut shadow = WindowedShadow::new(eval, inputs.probes.len() as u64);
    let mut report = None;
    for probe in &inputs.probes {
        let (_score, closed) = shadow
            .observe(ScoreInput::Sparse(probe))
            .map_err(|e| e.to_string())?;
        report = closed.or(report);
    }
    Ok(report
        .ok_or("a full probe sweep closes one window")?
        .to_event()
        .to_json())
}

/// Per-shard timings of one consume pass, µs unless named otherwise.
#[derive(Default)]
struct Consumed {
    shards: usize,
    examples: usize,
    failed: u64,
    /// Scheduled-commit-to-observed lag per shard, ms (live passes).
    lag_ms: Vec<f64>,
    /// Every poll's duration.
    poll_us: Vec<f64>,
    /// Duration of the poll that delivered each shard.
    delivering_poll_us: Vec<f64>,
    read_us: Vec<f64>,
    exec_us: Vec<f64>,
    fold_us: Vec<f64>,
    shadow_us: Vec<f64>,
    snapshot_us: Vec<f64>,
    doctor_us: Vec<f64>,
    events: u64,
    windows_closed: u64,
    gating_windows: u64,
    backlog_max: usize,
    busy_s: f64,
    nlp_calls: u64,
    vote_density: f64,
    params: u64,
}

/// When shards are due, for a live pass.
struct Schedule<'a> {
    start: Instant,
    period: Duration,
    committed: &'a AtomicUsize,
}

/// Consume `shards` shards from `spool`.
fn consume(
    inputs: &Inputs,
    spool: &Path,
    shards: usize,
    seed: u64,
    spans: &Spans,
    schedule: Option<&Schedule<'_>>,
) -> Result<Consumed, String> {
    let telemetry = Telemetry::new();
    let mut ingestor = StreamIngestor::new(spool).with_telemetry(telemetry.clone());
    let cfg = fold_config(seed);
    let mut model = GenerativeModel::new(inputs.set.len(), 0.7);
    let mut state = model.begin_incremental(&cfg).map_err(|e| e.to_string())?;
    let mut baseline = Some(WindowFolder::new());
    let mut monitor: Option<StreamMonitor> = None;
    let mut all = LabelMatrix::with_capacity(inputs.set.len(), shards * DOCS_PER_SHARD);
    let mut c = Consumed::default();
    let opts = ExecOptions::new().with_telemetry(telemetry.clone());
    let timed = |v: &mut Vec<f64>, start: Instant| v.push(start.elapsed().as_secs_f64() * 1e6);

    while c.shards < shards {
        let t = Instant::now();
        let arrivals = spans
            .span("dataflow/poll", || ingestor.poll())
            .map_err(|e| e.to_string())?;
        let poll_us = t.elapsed().as_secs_f64() * 1e6;
        c.poll_us.push(poll_us);
        if arrivals.is_empty() {
            spans.span("idle/wait_for_shard", || std::thread::sleep(POLL_NAP));
            continue;
        }
        c.busy_s += poll_us / 1e6;
        if let Some(s) = schedule {
            c.backlog_max = c
                .backlog_max
                .max(s.committed.load(Ordering::Acquire).saturating_sub(c.shards));
        }
        for arrived in arrivals {
            let k = c.shards;
            let busy = Instant::now();
            c.delivering_poll_us.push(poll_us);
            let mut ok = arrived.sequence == k as u64 && arrived.path == shard_path(spool, k);

            let t = Instant::now();
            let ids = spans
                .span("dataflow/read_shard", || {
                    ShardReader::<u64>::open(&arrived.path)?.collect::<Result<Vec<u64>, _>>()
                })
                .map_err(|e| e.to_string())?;
            timed(&mut c.read_us, t);
            let (lo, hi) = (k * DOCS_PER_SHARD, (k + 1) * DOCS_PER_SHARD);
            ok &= ids.iter().copied().eq(lo as u64..hi as u64);
            let docs = inputs.docs.get(lo..hi).ok_or("shard beyond the corpus")?;

            let t = Instant::now();
            let (matrix, stats) = spans
                .span("lf/execute_in_memory", || {
                    execute_in_memory_observed(
                        &inputs.set,
                        Some(&inputs.text),
                        docs,
                        LF_WORKERS,
                        &opts,
                    )
                })
                .map_err(|e| e.to_string())?;
            timed(&mut c.exec_us, t);
            c.nlp_calls += stats.nlp_calls;

            let t = Instant::now();
            state.set_optimizer(Optimizer::adam(BASE_LR / (k + 1) as f64));
            spans
                .span("core/fit_incremental", || {
                    model.fit_incremental(&matrix, &cfg, &mut state)
                })
                .map_err(|e| e.to_string())?;
            timed(&mut c.fold_us, t);
            for row in 0..matrix.num_examples() {
                all.push_raw_row(matrix.row(row))
                    .map_err(|e| e.to_string())?;
            }

            let t = Instant::now();
            let shadow = spans.span("serving/shadow_sweep", || shadow_event(inputs))?;
            timed(&mut c.shadow_us, t);
            let t = Instant::now();
            let snapshot = spans.span("obs/snapshot", || telemetry.metrics().snapshot());
            timed(&mut c.snapshot_us, t);

            let t = Instant::now();
            let events = [lf_event(&stats), shadow];
            let gated = spans.span("doctor/observe", || {
                if let Some(folder) = baseline.as_mut() {
                    folder.fold_metrics(&snapshot);
                    for event in &events {
                        folder.fold_event(event);
                    }
                    if folder.events() >= WINDOW_EVENTS {
                        let mut folder = baseline.take().expect("folder present");
                        let summary = folder.take();
                        monitor = Some(
                            StreamMonitor::new(summary, DoctorConfig::default(), WINDOW_EVENTS)
                                .with_telemetry(telemetry.clone())
                                .with_folder(folder),
                        );
                    }
                    0
                } else {
                    let m = monitor.as_mut().expect("monitor after the baseline window");
                    m.observe_metrics(&snapshot);
                    events
                        .iter()
                        .filter_map(|e| m.observe_event(e))
                        .filter(|v| v.gates())
                        .inspect(|v| {
                            let signals: Vec<String> =
                                v.report.gating().map(|g| g.signal.clone()).collect();
                            eprintln!("gating window at shard {k}: {signals:?}");
                        })
                        .count() as u64
                }
            });
            timed(&mut c.doctor_us, t);
            c.events += 2;
            c.gating_windows += gated;
            ok &= gated == 0;

            if let Some(s) = schedule {
                let due = s.start + s.period * k as u32;
                let lag_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                // A shard that fails its checks misses any lag limit.
                c.lag_ms.push(if ok { lag_ms } else { f64::INFINITY });
            }
            c.busy_s += busy.elapsed().as_secs_f64();
            c.failed += u64::from(!ok);
            c.examples += docs.len();
            c.shards += 1;
        }
    }
    // A drained spool delivers nothing more.
    if !ingestor.poll().map_err(|e| e.to_string())?.is_empty() {
        c.failed += 1;
    }
    c.windows_closed = monitor.as_ref().map_or(0, StreamMonitor::windows_closed);
    c.vote_density = vote_density(&all);
    c.params = bits_checksum(
        model
            .alphas()
            .iter()
            .chain(model.betas())
            .copied()
            .chain(std::iter::once(model.eta())),
    );
    Ok(c)
}

/// One live pass: a generator thread commits `shards` shards on the
/// schedule while the consumer drains them. Returns the consumer's
/// figures and how late, in ms, the generator committed each shard.
fn live(
    inputs: &Inputs,
    spool: &Path,
    shards: usize,
    seed: u64,
    spans: &Spans,
) -> Result<(Consumed, Vec<f64>), String> {
    std::fs::create_dir_all(spool).map_err(|e| e.to_string())?;
    let committed = AtomicUsize::new(0);
    let schedule = Schedule {
        start: Instant::now() + Duration::from_millis(20),
        period: Duration::from_secs_f64(1.0 / RATE),
        committed: &committed,
    };
    std::thread::scope(|scope| {
        let generator = scope.spawn(|| -> Result<Vec<f64>, String> {
            let mut late_ms = Vec::with_capacity(shards);
            for k in 0..shards {
                let due = schedule.start + schedule.period * k as u32;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                let mut w =
                    ShardWriter::<u64>::create(&shard_path(spool, k)).map_err(|e| e.to_string())?;
                for id in k * DOCS_PER_SHARD..(k + 1) * DOCS_PER_SHARD {
                    w.write(&(id as u64)).map_err(|e| e.to_string())?;
                }
                w.finish().map_err(|e| e.to_string())?;
                committed.fetch_add(1, Ordering::Release);
            }
            Ok(late_ms)
        });
        let consumed = consume(inputs, spool, shards, seed, spans, Some(&schedule));
        let late = generator
            .join()
            .map_err(|_| "generator panicked".to_string())?;
        Ok((consumed?, late?))
    })
}

/// Shards in a live pass of `budget`.
fn shards_for(budget: Duration) -> usize {
    ((budget.as_secs_f64() * RATE) as usize).max(WINDOW_EVENTS)
}

fn lateness(out: &mut Outcome, late_ms: &[f64]) -> f64 {
    let mut sorted = late_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let max = sorted.last().copied().unwrap_or(0.0);
    let p50 = quantile_sorted(&sorted, 0.5);
    out.detail(
        "generator_late_ms",
        Json::obj(vec![
            ("p50", p50.map_or(Json::Null, |q| q.to_json())),
            ("max", Json::from(max)),
        ]),
    );
    max
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let shards = shards_for(ctx.budget);
    let (inputs, setup_s, mismatched) = repeated_setup(SETUPS, || setup(ctx.seed, shards))?;
    out.failed += mismatched;
    let work = WorkDir::create("stream-topic").map_err(|e| e.to_string())?;
    out.inputs = Json::obj(vec![
        ("shards", Json::from(shards)),
        ("docs_per_shard", Json::from(DOCS_PER_SHARD)),
        ("rate_shards_per_s", Json::from(RATE)),
        ("lfs", Json::from(inputs.set.len())),
        ("workers", Json::from(LF_WORKERS)),
        ("window_events", Json::from(WINDOW_EVENTS)),
        ("fold_steps", Json::from(FOLD_STEPS)),
        ("fold_batch", Json::from(FOLD_BATCH)),
        ("probes", Json::from(PROBES)),
    ]);
    out.detail(
        "setup_s",
        Json::Arr(setup_s.iter().map(|&s| Json::from(s)).collect()),
    );

    // Replays the drained spool of a live pass and checks the final
    // parameters match.
    let replay_matches = |spool: &Path, n: usize, live_params: u64| -> Result<bool, String> {
        let replay = consume(&inputs, spool, n, ctx.seed, &Spans::off(), None)?;
        Ok(replay.failed == 0 && replay.params == live_params)
    };

    if !ctx.trace {
        let spool = work.path().join("spool");
        let (c, late) = live(&inputs, &spool, shards, ctx.seed, &Spans::off())?;
        out.attempted = c.shards as u64;
        out.failed += c.failed;
        if !replay_matches(&spool, shards, c.params)? {
            out.failed += 1;
        }
        let segment = c.lag_ms.len().div_ceil(SEGMENTS).max(1);
        let per_segment = |q: f64| -> Vec<Option<Quantile>> {
            c.lag_ms.chunks(segment).map(|s| quantile(s, q)).collect()
        };
        let (p50, p50_parts) = segment_median(&per_segment(0.5)).ok_or("no shards")?;
        let (p95, p95_parts) = segment_median(&per_segment(0.95)).ok_or("no shards")?;
        out.set("setup_s", median(&setup_s));
        out.set("examples_per_s", c.examples as f64 / c.busy_s);
        out.set("latency_p50_ms", p50);
        out.set("latency_tail_ms", p95);
        out.detail("segment_lag_p50_ms", p50_parts);
        out.detail("segment_lag_p95_ms", p95_parts);
        let mut lag = c.lag_ms.clone();
        lag.sort_by(f64::total_cmp);
        let whole = |q: f64| quantile_sorted(&lag, q).map_or(Json::Null, Quantile::to_json);
        out.detail("lag_p50_ms", whole(0.5));
        out.detail("lag_p95_ms", whole(0.95));
        out.detail(
            "lag_deciles_ms",
            Json::Arr(
                (1..10)
                    .filter_map(|d| quantile_sorted(&lag, f64::from(d) / 10.0))
                    .map(|q| Json::from(q.value))
                    .collect(),
            ),
        );
        out.detail(
            "exec_ms_deciles",
            Json::Arr({
                let mut e: Vec<f64> = c.exec_us.iter().map(|u| u / 1e3).collect();
                e.sort_by(f64::total_cmp);
                (1..10)
                    .filter_map(|d| quantile_sorted(&e, f64::from(d) / 10.0))
                    .map(|q| Json::from(q.value))
                    .collect()
            }),
        );
        out.detail("backlog_max", Json::from(c.backlog_max));
        out.detail("consumer_busy_s", Json::from(c.busy_s));
        lateness(&mut out, &late);
        return Ok(out);
    }

    let half = shards_for(ctx.budget / 2);
    let plain_spool = work.path().join("spool-untraced");
    let (plain, _) = live(&inputs, &plain_spool, half, ctx.seed, &Spans::off())?;
    let tracer = Tracer::new();
    let spans = Spans::on(&tracer);
    let traced_spool = work.path().join("spool-traced");
    let (c, late) = live(&inputs, &traced_spool, half, ctx.seed, &spans)?;
    let attribution = spans.finish("bench/stream-topic").ok_or("no trace")?;
    out.attempted = (plain.shards + c.shards) as u64;
    out.failed += plain.failed + c.failed;
    if !replay_matches(&traced_spool, half, c.params)? || plain.params != c.params {
        out.failed += 1;
    }
    report_attribution(&mut out, &attribution);
    // Open loop: wall time is the schedule's, so the overhead is taken
    // on consumer busy time per shard.
    let busy = |c: &Consumed| c.busy_s / c.shards.max(1) as f64;
    out.set(
        "trace.overhead_pct",
        (busy(&c) - busy(&plain)) / busy(&plain) * 100.0,
    );

    let mut polls = c.poll_us.clone();
    polls.sort_by(f64::total_cmp);
    out.set(
        "dataflow.stream_poll_us_p50",
        quantile_sorted(&polls, 0.5).map_or(0.0, |q| q.value),
    );
    let tenth = (c.delivering_poll_us.len() / 10).max(1);
    let first = mean(&c.delivering_poll_us[..tenth]);
    let last = mean(&c.delivering_poll_us[c.delivering_poll_us.len() - tenth..]);
    out.set("dataflow.stream_poll_growth", last / first);
    out.set("dataflow.stream_read_us_per_shard", mean(&c.read_us));
    out.set("stream.backlog_max", c.backlog_max as f64);
    let late_max = lateness(&mut out, &late);
    out.set("stream.generator_late_ms_max", late_max);
    out.set("lf.exec_ms_per_shard", mean(&c.exec_us) / 1e3);
    out.set("lf.nonabstain_ratio", c.vote_density);
    out.set("core.fold_ms_per_shard", mean(&c.fold_us) / 1e3);
    out.set("core.vote_density", c.vote_density);
    out.set("serving.shadow_ms_per_shard", mean(&c.shadow_us) / 1e3);
    out.set("obs.snapshot_us", mean(&c.snapshot_us));
    out.set(
        "doctor.observe_us_per_event",
        c.doctor_us.iter().sum::<f64>() / c.events.max(1) as f64,
    );
    out.set("doctor.windows_closed", c.windows_closed as f64);
    out.set(
        "nlp.calls_per_example",
        c.nlp_calls as f64 / c.examples.max(1) as f64,
    );
    let texts: Vec<String> = inputs.docs[..c.examples]
        .iter()
        .map(|d| (inputs.text)(d))
        .collect();
    let nlp = replay_nlp(&texts);
    nlp.report(&mut out);
    out.detail(
        "trace_file",
        Json::from(write_trace(&tracer, "stream-topic", ctx.seed)),
    );
    out.detail("nlp_replay_digest", Json::from(nlp.digest));
    out.detail(
        "phases",
        Json::obj(vec![
            ("shards_per_phase", Json::from(half)),
            ("untraced_busy_s", Json::from(plain.busy_s)),
            ("traced_busy_s", Json::from(c.busy_s)),
            ("gating_windows", Json::from(c.gating_windows)),
        ]),
    );
    Ok(out)
}
