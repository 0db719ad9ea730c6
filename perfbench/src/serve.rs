//! `serve`: a windowed closed loop through the batched serving
//! front-end.
//!
//! One generator thread keeps a fixed window of requests in flight
//! through `Frontend::submit` / `Pending::wait` (the default
//! `FrontendConfig` but for the request budget), cycling the
//! 256-payload hashed logistic-regression pool. Latency runs from
//! `submit` to the response in the generator's hands. Every response
//! is checked: bit-equal to one-at-a-time `score_spec` for its payload,
//! not degraded, and from the published (epoch, version). A refused
//! submit counts as failed.

use crate::layers::{logreg_registry, report_attribution, write_trace};
use crate::spans::Spans;
use crate::stats::{median, quantile_sorted, segment_median, Latencies, Quantile};
use crate::sys::{fnv_bytes, repeated_setup, FNV_BASIS};
use crate::{Ctx, Outcome};
use drybell_features::SparseVector;
use drybell_ml::MlpScratch;
use drybell_obs::json::Json;
use drybell_obs::{Telemetry, Tracer};
use drybell_serving::{
    score_spec, score_spec_batch, BatchScratch, Frontend, FrontendConfig, OwnedInput, Pending,
    ScoreInput, Scored, ServingError, ServingRegistry,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct request payloads.
const POOL: usize = 256;

/// Requests in flight: two default batches.
const WINDOW: usize = 128;

/// Requests pushed through before timing.
const WARMUP_REQUESTS: usize = 20_000;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Equal time segments of a run. Latency figures are the median
/// segment's, so one host stall does not set a run's tail.
const SEGMENTS: usize = 5;

/// Cap on traced requests, so the span buffer and trace file stay
/// small.
const TRACED_REQUESTS: usize = 50_000;

/// Kernel replay inputs.
const KERNEL_INPUTS: usize = 200_000;

/// The published pairing every response must carry.
const EPOCH: u64 = 1;
const VERSION: u32 = 1;

/// The default front-end, except for the per-request latency budget:
/// this 2-vCPU host stalls for 20–40 ms now and then (no steal time is
/// reported), which at the default 20 ms budget degrades the whole
/// in-flight window in about one 20 s run in three. The workload
/// measures the scoring path, not the degrade path, so the budget is
/// one second; a degraded response still fails the run.
fn frontend_config() -> FrontendConfig {
    FrontendConfig {
        request_budget: Duration::from_secs(1),
        ..FrontendConfig::default()
    }
}

struct Inputs {
    registry: ServingRegistry,
    frontend: Frontend,
    pool: Vec<SparseVector>,
    /// One-at-a-time `score_spec` for each payload.
    expected: Vec<f64>,
}

fn setup(seed: u64, telemetry: &Telemetry) -> Result<(Inputs, u64), String> {
    let (registry, pool) = logreg_registry(seed, &[VERSION], POOL)?;

    let spec = Arc::clone(
        registry
            .epoch_cell("m")
            .map_err(|e| e.to_string())?
            .pin()
            .spec(),
    );
    let mut scratch = MlpScratch::default();
    let expected = pool
        .iter()
        .map(|x| score_spec(&spec, &ScoreInput::Sparse(x), &mut scratch).map_err(|e| e.to_string()))
        .collect::<Result<Vec<f64>, String>>()?;
    let fingerprint = expected
        .iter()
        .fold(FNV_BASIS, |h, s| fnv_bytes(h, &s.to_bits().to_le_bytes()));

    let frontend = Frontend::for_model_with_telemetry(&registry, "m", frontend_config(), telemetry)
        .map_err(|e| e.to_string())?;
    let inputs = Inputs {
        registry,
        frontend,
        pool,
        expected,
    };
    closed_loop(&inputs, &Spans::off(), Duration::MAX, WARMUP_REQUESTS);
    Ok((inputs, fingerprint))
}

/// What one closed-loop phase measured.
struct Phase {
    requests: usize,
    /// Submits refused by admission.
    rejected: u64,
    /// Responses degraded to the default score.
    degraded: u64,
    /// Responses not bit-equal to `score_spec`, or not from the
    /// published (epoch, version).
    mismatched: u64,
    elapsed_s: f64,
    /// Submit-to-response latency of every request.
    latency: Latencies,
    /// The same, split into `SEGMENTS` equal spans of the budget by
    /// submit time.
    segments: Vec<Latencies>,
    /// Time inside `submit` / `wait`, µs (traced phases only).
    submit_us: Vec<f64>,
    wait_us: Vec<f64>,
}

/// Drive the window until `budget` has passed or `max_requests` have
/// completed.
fn closed_loop(inputs: &Inputs, spans: &Spans, budget: Duration, max_requests: usize) -> Phase {
    let traced = spans.enabled();
    let mut ring: VecDeque<(Instant, usize, Pending)> = VecDeque::with_capacity(WINDOW);
    let mut latency = Latencies::new();
    let mut segments: Vec<Latencies> = (0..SEGMENTS).map(|_| Latencies::new()).collect();
    let (mut submit_us, mut wait_us) = (Vec::new(), Vec::new());
    let (mut rejected, mut degraded, mut mismatched) = (0u64, 0u64, 0u64);
    let mut next = 0usize;
    let mut submitted = 0usize;
    let start = Instant::now();
    let segment_of = |at: Instant| {
        let share = at.saturating_duration_since(start).as_secs_f64() / budget.as_secs_f64();
        ((share * SEGMENTS as f64) as usize).min(SEGMENTS - 1)
    };
    let mut record = |at: Instant, us: f64| {
        latency.record_us(us);
        segments[segment_of(at)].record_us(us);
    };
    let check = |idx: usize, scored: &Result<Scored, ServingError>| {
        matches!(*scored, Ok(s) if s.epoch == EPOCH
            && s.version == VERSION
            && s.score.to_bits() == inputs.expected[idx].to_bits())
    };
    loop {
        let open = submitted < max_requests && start.elapsed() < budget;
        if open && ring.len() < WINDOW {
            let idx = next % POOL;
            next += 1;
            submitted += 1;
            let input = OwnedInput::Sparse(inputs.pool[idx].clone());
            let t0 = Instant::now();
            let pending = spans.span("serving/submit", || inputs.frontend.submit(input));
            if traced {
                submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            match pending {
                Ok(p) => ring.push_back((t0, idx, p)),
                Err(_) => {
                    rejected += 1;
                    // A refused request misses any latency limit.
                    record(t0, f64::INFINITY);
                }
            }
            continue;
        }
        let Some((t0, idx, pending)) = ring.pop_front() else {
            break;
        };
        let tw = Instant::now();
        let scored = spans.span("serving/wait", || pending.wait());
        let done = Instant::now();
        if traced {
            wait_us.push((done - tw).as_secs_f64() * 1e6);
        }
        let ok = match scored {
            Ok(s) if s.degraded => {
                degraded += 1;
                false
            }
            _ if !check(idx, &scored) => {
                mismatched += 1;
                false
            }
            _ => true,
        };
        // A failed request misses any latency limit.
        let us = if ok {
            (done - t0).as_secs_f64() * 1e6
        } else {
            f64::INFINITY
        };
        record(t0, us);
    }
    Phase {
        requests: submitted,
        rejected,
        degraded,
        mismatched,
        elapsed_s: start.elapsed().as_secs_f64(),
        latency,
        segments,
        submit_us,
        wait_us,
    }
}

impl Phase {
    fn failed(&self) -> u64 {
        self.rejected + self.degraded + self.mismatched
    }

    fn failures_json(&self) -> Json {
        Json::obj(vec![
            ("rejected", Json::from(self.rejected)),
            ("degraded", Json::from(self.degraded)),
            ("mismatched", Json::from(self.mismatched)),
        ])
    }
}

fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let telemetry = Telemetry::new();
    let (inputs, setup_s, mismatched) = repeated_setup(SETUPS, || {
        let (inputs, fp) = setup(ctx.seed, &telemetry)?;
        Ok((inputs, fp))
    })?;
    out.failed += mismatched;
    out.inputs = Json::obj(vec![
        ("payloads", Json::from(POOL)),
        ("window", Json::from(WINDOW)),
        ("generator_threads", Json::from(1u64)),
        ("frontend_workers", Json::from(frontend_config().workers)),
        ("max_batch", Json::from(frontend_config().max_batch)),
        (
            "batch_wait_us",
            Json::from(frontend_config().batch_wait.as_micros() as u64),
        ),
        (
            "request_budget_ms",
            Json::from(frontend_config().request_budget.as_millis() as u64),
        ),
    ]);
    out.detail(
        "setup_s",
        Json::Arr(setup_s.iter().map(|&s| Json::from(s)).collect()),
    );
    // Counters from here on cover the measured phases only.
    let before = telemetry.metrics().snapshot();

    if !ctx.trace {
        let phase = closed_loop(&inputs, &Spans::off(), ctx.budget, usize::MAX);
        inputs.frontend.shutdown();
        out.attempted = phase.requests as u64;
        out.failed += phase.failed();
        let per_segment = |q: f64| -> Vec<Option<Quantile>> {
            phase.segments.iter().map(|s| s.quantile(q)).collect()
        };
        let (p50, p50_parts) = segment_median(&per_segment(0.5)).ok_or("no responses")?;
        let (p99, p99_parts) = segment_median(&per_segment(0.99)).ok_or("no responses")?;
        out.set("setup_s", median(&setup_s));
        out.set("examples_per_s", phase.requests as f64 / phase.elapsed_s);
        out.set("latency_p50_ms", p50 / 1e3);
        out.set("latency_tail_ms", p99 / 1e3);
        out.detail("segment_p50_us", p50_parts);
        out.detail("segment_p99_us", p99_parts);
        let whole = |q: f64| {
            phase
                .latency
                .quantile(q)
                .map_or(Json::Null, Quantile::to_json)
        };
        out.detail("latency_p50_us", whole(0.5));
        out.detail("latency_p99_us", whole(0.99));
        out.detail("latency_p999_us", whole(0.999));
        out.detail("failures", phase.failures_json());
        out.detail("latency_samples", Json::from(phase.latency.len()));
        return Ok(out);
    }

    // Two spans per request would outgrow memory over a whole phase, so
    // a burst of TRACED_REQUESTS is traced between two untraced parts.
    let start = Instant::now();
    let first = closed_loop(&inputs, &Spans::off(), ctx.budget / 2, usize::MAX);
    let tracer = Tracer::new();
    let spans = Spans::on(&tracer);
    let traced = closed_loop(&inputs, &spans, ctx.budget, TRACED_REQUESTS);
    let attribution = spans.finish("bench/serve").ok_or("no trace")?;
    let rest = ctx.budget.saturating_sub(start.elapsed());
    let second = closed_loop(&inputs, &Spans::off(), rest, usize::MAX);
    inputs.frontend.shutdown();
    let after = telemetry.metrics().snapshot();
    let plain = Phase {
        requests: first.requests + second.requests,
        elapsed_s: first.elapsed_s + second.elapsed_s,
        ..first
    };
    out.attempted = (plain.requests + traced.requests) as u64;
    out.failed += plain.failed() + second.failed() + traced.failed();
    report_attribution(&mut out, &attribution);
    let per_request = |p: &Phase| p.elapsed_s / p.requests.max(1) as f64;
    out.set(
        "trace.overhead_pct",
        (per_request(&traced) - per_request(&plain)) / per_request(&plain) * 100.0,
    );
    let submit = quantile_sorted(&sorted(traced.submit_us), 0.5).ok_or("no submits")?;
    let wait = quantile_sorted(&sorted(traced.wait_us), 0.5).ok_or("no waits")?;
    out.set("serving.submit_us_p50", submit.value);
    out.set("serving.wait_us_p50", wait.value);

    let batches = after
        .histogram("obs/serving/batch_us")
        .map_or(0, |h| h.count())
        - before
            .histogram("obs/serving/batch_us")
            .map_or(0, |h| h.count());
    let requests = (plain.requests + traced.requests) as f64;
    let mean_batch = requests / batches.max(1) as f64;
    out.set("serving.mean_batch_size", mean_batch);
    out.set(
        "serving.degraded",
        (after.counter("serving/degraded") - before.counter("serving/degraded")) as f64,
    );
    out.set(
        "serving.rejected",
        (after.counter("serving/rejected") - before.counter("serving/rejected")) as f64,
    );

    // Kernel replay at the observed batch width.
    let width = (mean_batch.round() as usize).clamp(1, frontend_config().max_batch);
    let spec = Arc::clone(
        inputs
            .registry
            .epoch_cell("m")
            .map_err(|e| e.to_string())?
            .pin()
            .spec(),
    );
    let batch: Vec<ScoreInput<'_>> = (0..width)
        .map(|i| ScoreInput::Sparse(&inputs.pool[i % POOL]))
        .collect();
    let mut scratch = BatchScratch::default();
    let mut scores = vec![0.0; width];
    let rounds = KERNEL_INPUTS.div_ceil(width);
    let t = Instant::now();
    for _ in 0..rounds {
        score_spec_batch(&spec, &batch, &mut scratch, &mut scores).map_err(|e| e.to_string())?;
        std::hint::black_box(&mut scores);
    }
    let kernel_ns = t.elapsed().as_secs_f64() * 1e9 / (rounds * width) as f64;
    if scores
        .iter()
        .enumerate()
        .any(|(i, s)| s.to_bits() != inputs.expected[i % POOL].to_bits())
    {
        out.failed += 1;
    }
    out.set("serving.kernel_ns_per_input", kernel_ns);
    let rps = plain.requests as f64 / plain.elapsed_s;
    out.set("serving.kernel_share", kernel_ns * 1e-9 * rps);
    out.detail(
        "trace_file",
        Json::from(write_trace(&tracer, "serve", ctx.seed)),
    );
    out.detail(
        "phases",
        Json::obj(vec![
            ("untraced_requests", Json::from(plain.requests)),
            ("traced_requests", Json::from(traced.requests)),
            ("untraced_rps", Json::from(rps)),
            (
                "traced_rps",
                Json::from(traced.requests as f64 / traced.elapsed_s),
            ),
            ("submit_us_p50", submit.to_json()),
            ("wait_us_p50", wait.to_json()),
            ("kernel_batch_width", Json::from(width)),
        ]),
    );
    Ok(out)
}
