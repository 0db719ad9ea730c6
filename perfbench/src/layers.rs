//! Code shared by the workloads: the labeling-function timing shim, the
//! single-thread NLP replays, the serving fixture, and the reporting of
//! pipeline passes and traced phases.

use drybell_core::Vote;
use drybell_features::{FeatureHasher, FeatureSpace, SpaceRegistry, SparseVector};
use drybell_kg::KnowledgeGraph;
use drybell_lf::{Lf, LfSet};
use drybell_ml::{FtrlConfig, LogisticRegression};
use drybell_nlp::langid::LangDetector;
use drybell_nlp::sentiment::SentimentScorer;
use drybell_nlp::{tokenize, NerTagger, NlpResult, NlpServer, SemanticCategorizer};
use drybell_serving::{ExportedModel, ModelSpec, ServingRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nanoseconds spent inside each wrapped LF's `try_vote`, in LF order.
pub struct VoteClock {
    names: Vec<String>,
    ns: Vec<AtomicU64>,
}

impl VoteClock {
    /// Total nanoseconds per LF, paired with the LF's name.
    pub fn totals(&self) -> Vec<(String, u64)> {
        self.names
            .iter()
            .cloned()
            .zip(self.ns.iter().map(|n| n.load(Ordering::Relaxed)))
            .collect()
    }

    /// Nanoseconds across every LF.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().map(|n| n.load(Ordering::Relaxed)).sum()
    }
}

/// An LF set whose every LF forwards to the original through
/// [`Lf::try_vote`], timing the call. Kinds (plain, NLP, graph) and the
/// knowledge graph carry over, so the executor runs it exactly as it
/// runs the original.
pub fn timed_lf_set<X: Send + Sync + 'static>(set: Arc<LfSet<X>>) -> (LfSet<X>, Arc<VoteClock>) {
    let clock = Arc::new(VoteClock {
        names: set.names(),
        ns: (0..set.len()).map(|_| AtomicU64::new(0)).collect(),
    });
    let mut wrapped = LfSet::new();
    if let Some(kg) = set.knowledge_graph() {
        wrapped = wrapped.with_knowledge_graph(Arc::clone(kg));
    }
    for (i, lf) in set.lfs().iter().enumerate() {
        let meta = lf.metadata().clone();
        let (set, clock) = (Arc::clone(&set), Arc::clone(&clock));
        let timed = move |x: &X, nlp: Option<&NlpResult>, kg: Option<&KnowledgeGraph>| -> Vote {
            let start = Instant::now();
            let vote = set.lfs()[i].try_vote(x, nlp, kg);
            clock.ns[i].fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            // The original was built with the same kind, so its feature
            // spaces are present; an error here would be a wiring bug
            // the executor reports the same way.
            vote.unwrap_or(Vote::Abstain)
        };
        let shim = if lf.needs_nlp() {
            Lf::nlp(&meta.name, move |x: &X, nlp| timed(x, Some(nlp), None))
        } else if lf.needs_graph() {
            Lf::graph(&meta.name, meta.servable, move |x: &X, kg| {
                timed(x, None, Some(kg))
            })
        } else {
            Lf::plain(&meta.name, meta.category, meta.servable, move |x: &X| {
                timed(x, None, None)
            })
        };
        wrapped.push(shim);
    }
    (wrapped, clock)
}

/// Single-thread replay of the NLP server and each of its sub-models
/// over the same texts, µs per document.
pub struct NlpReplay {
    /// `NlpServer::annotate`.
    pub annotate_us: f64,
    /// `tokenize` plus per-token lowercasing (what `annotate` does
    /// before the topic model).
    pub tokenize_us: f64,
    /// `LangDetector::detect`.
    pub langid_us: f64,
    /// `NerTagger::tag`.
    pub ner_us: f64,
    /// `SemanticCategorizer::classify` plus `top_topic` over the
    /// lowercased tokens.
    pub topic_us: f64,
    /// `SentimentScorer::score`.
    pub sentiment_us: f64,
    /// A digest of the replayed outputs, so none of the work can be
    /// optimized away.
    pub digest: u64,
}

/// Replay the NLP layer over `texts`.
pub fn replay_nlp(texts: &[String]) -> NlpReplay {
    let n = texts.len().max(1) as f64;
    let mut digest = 0u64;
    let per_doc = |f: &mut dyn FnMut(&str)| {
        let start = Instant::now();
        for t in texts {
            f(t);
        }
        start.elapsed().as_secs_f64() * 1e6 / n
    };

    let server = NlpServer::new();
    let annotate_us = per_doc(&mut |t| {
        let r = server.annotate(t);
        digest = digest.wrapping_add(r.tokens.len() as u64 + r.entities.len() as u64);
    });
    let tokenize_us = per_doc(&mut |t| {
        let lower: Vec<String> = tokenize(t).iter().map(|tok| tok.lower()).collect();
        digest = digest.wrapping_add(lower.len() as u64);
    });
    let langid = LangDetector::new();
    let langid_us = per_doc(&mut |t| {
        digest = digest.wrapping_add(langid.detect(t).map_or(0, |l| l as u64));
    });
    let ner = NerTagger::new();
    let ner_us = per_doc(&mut |t| {
        digest = digest.wrapping_add(ner.tag(t).len() as u64);
    });
    // The topic replay needs the lowercased tokens as input; prepare
    // them outside the timed loop.
    let lowered: Vec<Vec<String>> = texts
        .iter()
        .map(|t| tokenize(t).iter().map(|tok| tok.lower()).collect())
        .collect();
    let topics = SemanticCategorizer::from_seeds();
    let start = Instant::now();
    for lower in &lowered {
        let probs = topics.classify(lower);
        let (top, _) = topics.top_topic(lower);
        digest = digest.wrapping_add(top.index() as u64 + probs[0].to_bits());
    }
    let topic_us = start.elapsed().as_secs_f64() * 1e6 / n;
    let sentiment = SentimentScorer::new();
    let sentiment_us = per_doc(&mut |t| {
        digest = digest.wrapping_add(sentiment.score(t).to_bits());
    });
    NlpReplay {
        annotate_us,
        tokenize_us,
        langid_us,
        ner_us,
        topic_us,
        sentiment_us,
        digest,
    }
}

impl NlpReplay {
    /// Set the `nlp.*_us_per_doc` metrics.
    pub fn report(&self, out: &mut crate::Outcome) {
        out.set("nlp.annotate_us_per_doc", self.annotate_us);
        out.set("nlp.tokenize_us_per_doc", self.tokenize_us);
        out.set("nlp.langid_us_per_doc", self.langid_us);
        out.set("nlp.ner_us_per_doc", self.ner_us);
        out.set("nlp.topic_us_per_doc", self.topic_us);
        out.set("nlp.sentiment_us_per_doc", self.sentiment_us);
    }
}

/// Share of a label matrix's cells holding a non-abstain vote.
pub fn vote_density(m: &drybell_core::LabelMatrix) -> f64 {
    let cells = (m.num_examples() * m.num_lfs()).max(1);
    let votes: usize = (0..m.num_examples())
        .map(|i| m.row(i).iter().filter(|&&v| v != 0).count())
        .sum();
    votes as f64 / cells as f64
}

/// Attach a traced phase's layer attribution to the outcome: the
/// `<layer>.self_s` metrics, `unattributed_s`, wall and span count.
pub fn report_attribution(out: &mut crate::Outcome, a: &crate::stats::Attribution) {
    let s = |us: u64| us as f64 / 1e6;
    out.set("trace.wall_s", s(a.wall_us));
    out.set("trace.spans", a.spans as f64);
    out.set("unattributed_s", a.unattributed_us as f64 / 1e6);
    for (layer, &us) in &a.layers {
        let name: &'static str = match layer.as_str() {
            "dataflow" => "dataflow.self_s",
            "lf" => "lf.self_s",
            "core" => "core.self_s",
            "serving" => "serving.self_s",
            "doctor" => "doctor.self_s",
            "obs" => "obs.self_s",
            "idle" => "idle.self_s",
            _ => continue,
        };
        out.set(name, s(us));
    }
    let layers = a
        .layers
        .iter()
        .map(|(k, &v)| (k.as_str(), drybell_obs::Json::from(v)))
        .collect();
    out.detail(
        "attribution_us",
        drybell_obs::Json::obj(vec![
            ("wall", drybell_obs::Json::from(a.wall_us)),
            ("layers", drybell_obs::Json::obj(layers)),
            ("unattributed", drybell_obs::Json::from(a.unattributed_us)),
            ("spans", drybell_obs::Json::from(a.spans)),
        ]),
    );
}

/// Write the tracer's spans as a Perfetto (Chrome trace-event) file
/// under `perfbench/out/` and return its path as a string.
pub fn write_trace(tracer: &drybell_obs::Tracer, workload: &str, seed: u64) -> String {
    let path = crate::sys::out_dir().join(format!("{workload}-seed{seed}.perfetto.json"));
    let _ = std::fs::create_dir_all(crate::sys::out_dir());
    match tracer.write_chrome(&path) {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("unwritten: {e}"),
    }
}

/// Set the end-to-end metrics of a batch pipeline from its passes.
/// Throughput is examples over the summed pass wall time: the host's
/// speed drifts over seconds, and a median over passes jumps between
/// its fast and slow states where the total does not. Latency is the
/// wall time of one pass, its median and its p90 (with fewer than ten
/// passes beyond any level, the count shows how thin the tail is).
pub fn report_pipeline(out: &mut crate::Outcome, setup_s: &[f64], walls: &[f64], examples: usize) {
    let total_s: f64 = walls.iter().sum();
    let p50 = crate::stats::quantile(walls, 0.5);
    let p90 = crate::stats::quantile(walls, 0.9);
    out.set("setup_s", crate::stats::median(setup_s));
    out.set("examples_per_s", (examples * walls.len()) as f64 / total_s);
    out.set("latency_p50_ms", p50.map_or(0.0, |q| q.value * 1e3));
    out.set("latency_tail_ms", p90.map_or(0.0, |q| q.value * 1e3));
    let json =
        |q: Option<crate::stats::Quantile>| q.map_or(drybell_obs::Json::Null, |q| q.to_json());
    out.detail(
        "pass_wall_s",
        drybell_obs::Json::Arr(walls.iter().map(|&w| drybell_obs::Json::from(w)).collect()),
    );
    out.detail("latency_p50_s", json(p50));
    out.detail("latency_p90_s", json(p90));
}

/// The hashed logistic-regression fixture of `exp_serving`: model `"m"`
/// trained on 2,000 seeded bag-of-words docs, staged at every version in
/// `versions` (the first one promoted), plus `payloads` further docs to
/// score.
pub fn logreg_registry(
    seed: u64,
    versions: &[u32],
    payloads: usize,
) -> Result<(ServingRegistry, Vec<SparseVector>), String> {
    const HASH_BITS: u32 = 10;
    let mut spaces = SpaceRegistry::new();
    let hashed = spaces
        .register(FeatureSpace::servable("hashed", 10))
        .ok_or("feature space already registered")?;
    let registry = ServingRegistry::new(spaces, 1_000);
    let h = FeatureHasher::new(1 << HASH_BITS);
    let mut rng = StdRng::seed_from_u64(seed);
    let vocab: Vec<String> = (0..400).map(|i| format!("tok{i}")).collect();
    let doc = |rng: &mut StdRng| -> Vec<&str> {
        (0..16)
            .map(|_| vocab[rng.gen_range(0..vocab.len())].as_str())
            .collect()
    };
    let data: Vec<(SparseVector, f64)> = (0..2_000)
        .map(|_| {
            let tokens = doc(&mut rng);
            let y = f64::from(u8::from(tokens.iter().any(|t| t.ends_with('7'))));
            (h.bag_of_words(&tokens), y)
        })
        .collect();
    let mut model = LogisticRegression::new(1 << HASH_BITS, FtrlConfig::default());
    model.fit(&data).map_err(|e| e.to_string())?;
    for &version in versions {
        registry
            .stage(ModelSpec {
                name: "m".into(),
                version,
                feature_spaces: vec![hashed],
                model: ExportedModel::LogReg(model.clone()),
            })
            .map_err(|e| e.to_string())?;
    }
    let first = versions.first().ok_or("no version to promote")?;
    registry.promote("m", *first).map_err(|e| e.to_string())?;
    let pool = (0..payloads)
        .map(|_| h.bag_of_words(&doc(&mut rng)))
        .collect();
    Ok((registry, pool))
}

/// Run `f` until `budget` has passed (at least once), collecting its
/// results.
pub fn repeat_for<T>(
    budget: Duration,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || start.elapsed() < budget {
        out.push(f()?);
    }
    Ok(out)
}
