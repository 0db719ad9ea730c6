//! Layer spans recorded from the benchmark's side of each call into the
//! system, on the public [`drybell_obs::Tracer`].
//!
//! A [`Spans`] is either off (the end-to-end runs: a branch, nothing
//! recorded) or on, holding one open root interval. Each
//! [`Spans::span`] records a child of the root named
//! `<layer>/<call>`. Start and end both come from [`Tracer::now_us`],
//! so truncation to whole microseconds is unbiased and the children of
//! a long run sum to their true total.

use crate::stats::{attribute, Attribution};
use drybell_obs::{TraceHandle, Tracer};
use std::time::Instant;

/// The span recorder of one measured phase.
pub struct Spans {
    on: Option<(Tracer, TraceHandle, Instant)>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans { on: None }
    }

    /// Open a root interval on `tracer`; spans recorded through the
    /// returned recorder become its children.
    pub fn on(tracer: &Tracer) -> Spans {
        let root = tracer.open_child_of(None);
        Spans {
            on: Some((tracer.clone(), root, Instant::now())),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on.is_some()
    }

    /// Run `f`, recording it as the span `name` when on.
    #[inline]
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        match &self.on {
            None => f(),
            Some((tracer, root, _)) => {
                let start = tracer.now_us();
                let out = f();
                let end = tracer.now_us();
                tracer.record_interval_at(name, start, end - start, Some(root.id()));
                out
            }
        }
    }

    /// Close the root as `name` and attribute its wall time to layers.
    /// `None` when off.
    pub fn finish(self, name: &str) -> Option<Attribution> {
        let (tracer, root, start) = self.on?;
        let id = root.id();
        root.close(name, start);
        attribute(&tracer.snapshot(), id)
    }
}
