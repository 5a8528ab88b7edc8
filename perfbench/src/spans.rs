//! The harness's own tracing, recorded from outside the program: spans
//! around calls into public functions and around the public trait
//! objects the program is wired through ([`Transport`] and
//! [`RemoteEndpoint`]). Spans are kept in memory and summarised when the
//! run ends; the untraced measurement installs none of this.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use wideleak::android_drm::binder::{DrmCall, DrmReply, Transport};
use wideleak::android_drm::DrmError;
use wideleak::device::net::RemoteEndpoint;

/// One completed span. `layer` names the boundary (`transact`,
/// `endpoint`, `app`, `monitor`, `attack`); `key` the operation on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub layer: &'static str,
    pub key: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ok: bool,
    /// The first transaction on a freshly connected binder.
    pub first: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Open span ids on this thread, innermost last: the parent of a new
    /// span is whatever this thread has open.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from every thread of a run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("runs last < 584 years")
    }

    /// Opens a span on the calling thread; it closes when the guard drops.
    pub fn open(&self, layer: &'static str, key: &'static str) -> OpenSpan<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        OpenSpan {
            rec: self,
            span: Span {
                id,
                parent,
                layer,
                key,
                start_ns: self.now_ns(),
                end_ns: 0,
                ok: true,
                first: false,
            },
        }
    }

    /// Times `f` as one span.
    pub fn time<T>(&self, layer: &'static str, key: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.open(layer, key);
        f()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock poisoned by a panicking thread").clone()
    }
}

/// An open span; recorded when dropped.
pub struct OpenSpan<'a> {
    rec: &'a Recorder,
    span: Span,
}

impl OpenSpan<'_> {
    pub fn set_ok(&mut self, ok: bool) {
        self.span.ok = ok;
    }

    pub fn set_first(&mut self, first: bool) {
        self.span.first = first;
    }
}

impl Drop for OpenSpan<'_> {
    fn drop(&mut self) {
        self.span.end_ns = self.rec.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&id| id == self.span.id) {
                open.remove(pos);
            }
        });
        if let Ok(mut spans) = self.rec.spans.lock() {
            spans.push(self.span.clone());
        }
    }
}

/// Self time: the span's duration minus the part of its interval that
/// its children cover (overlapping children count once; anything a
/// child spends outside the parent's interval does not count).
pub fn self_time_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut covered: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    covered.sort_unstable();
    let mut total = 0;
    let mut reach = parent.start_ns;
    for (s, e) in covered {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    parent.duration_ns() - total
}

/// One decrypt transaction seen by a [`TracedTransport`], kept for the
/// isolated replays.
#[derive(Debug, Clone)]
pub struct Captured {
    pub call: DrmCall,
    pub reply: Vec<u8>,
    pub round_trip_ns: u64,
}

/// A bounded store of captured decrypt transactions.
#[derive(Debug)]
pub struct Capture {
    budget_bytes: AtomicU64,
    calls: Mutex<Vec<Captured>>,
}

impl Capture {
    pub fn new(budget_bytes: u64) -> Arc<Self> {
        Arc::new(Capture {
            budget_bytes: AtomicU64::new(budget_bytes),
            calls: Mutex::new(Vec::new()),
        })
    }

    fn wants(&self) -> bool {
        self.budget_bytes.load(Ordering::Relaxed) > 0
    }

    fn push(&self, captured: Captured) {
        let len = captured.reply.len() as u64;
        let left = self.budget_bytes.load(Ordering::Relaxed);
        self.budget_bytes.store(left.saturating_sub(len.max(1)), Ordering::Relaxed);
        self.calls.lock().expect("capture lock poisoned by a panicking thread").push(captured);
    }

    pub fn take(&self) -> Vec<Captured> {
        std::mem::take(&mut *self.calls.lock().expect("capture lock poisoned"))
    }
}

/// Wraps the program's binder: one `transact` span per call, keyed by
/// [`DrmCall::kind`].
pub struct TracedTransport {
    inner: Arc<dyn Transport>,
    rec: Arc<Recorder>,
    fresh: AtomicBool,
    capture: Option<Arc<Capture>>,
}

impl TracedTransport {
    /// `fresh` marks a binder whose connection has not carried a call
    /// yet, so its first span is flagged as a first call.
    pub fn new(
        inner: Arc<dyn Transport>,
        rec: Arc<Recorder>,
        fresh: bool,
        capture: Option<Arc<Capture>>,
    ) -> Self {
        TracedTransport { inner, rec, fresh: AtomicBool::new(fresh), capture }
    }
}

impl Transport for TracedTransport {
    fn transact(&self, call: DrmCall) -> Result<DrmReply, DrmError> {
        let kept = match (&self.capture, &call) {
            (Some(capture), DrmCall::DecryptSample { .. }) if capture.wants() => Some(call.clone()),
            _ => None,
        };
        let mut span = self.rec.open("transact", call.kind());
        span.set_first(self.fresh.swap(false, Ordering::Relaxed));
        let result = self.inner.transact(call);
        span.set_ok(result.is_ok());
        let round_trip_ns = self.rec.now_ns() - span.span.start_ns;
        drop(span);
        if let (Some(capture), Some(call), Ok(DrmReply::Bytes(reply))) =
            (&self.capture, kept, &result)
        {
            capture.push(Captured { call, reply: reply.clone(), round_trip_ns });
        }
        result
    }
}

/// The backend route a request path belongs to.
pub fn endpoint_key(path: &str) -> &'static str {
    match path.split('/').next() {
        Some("provision") => "provision",
        Some("license") => "license",
        // The CDN serves manifests and media segments.
        Some("manifest" | "asset") => "cdn",
        _ => "other",
    }
}

/// Wraps the program's backend: one `endpoint` span per request, keyed
/// by [`endpoint_key`]; a refused request is a failed span.
pub struct TracedEndpoint {
    inner: Arc<dyn RemoteEndpoint>,
    rec: Arc<Recorder>,
}

impl TracedEndpoint {
    pub fn new(inner: Arc<dyn RemoteEndpoint>, rec: Arc<Recorder>) -> Self {
        TracedEndpoint { inner, rec }
    }
}

impl RemoteEndpoint for TracedEndpoint {
    fn handle(&self, path: &str, body: &[u8]) -> Result<Vec<u8>, String> {
        let mut span = self.rec.open("endpoint", endpoint_key(path));
        let result = self.inner.handle(path, body);
        span.set_ok(result.is_ok());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Rng;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, layer: "t", key: "t", start_ns, end_ns, ok: true, first: false }
    }

    #[test]
    fn self_time_is_span_time_minus_child_coverage() {
        let mut rng = Rng::new(5);
        for _ in 0..500 {
            let start = rng.below(50);
            let end = start + 1 + rng.below(100);
            let parent = span(1, None, start, end);
            let children: Vec<Span> = (0..rng.below(6))
                .map(|i| {
                    let s = rng.below(180);
                    span(2 + i, Some(1), s, s + rng.below(40))
                })
                .collect();
            // Oracle: walk the parent's interval one unit at a time.
            let uncovered = (start..end)
                .filter(|&t| !children.iter().any(|c| c.start_ns <= t && t < c.end_ns))
                .count() as u64;
            let refs: Vec<&Span> = children.iter().collect();
            assert_eq!(self_time_ns(&parent, &refs), uncovered, "{parent:?} {children:?}");
        }
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let rec = Recorder::new();
        rec.time("app", "play", || {
            rec.time("transact", "open_session", || ());
            rec.time("endpoint", "license", || ());
        });
        rec.time("monitor", "study_app", || ());
        let spans = rec.spans();
        let play = spans.iter().find(|s| s.key == "play").unwrap();
        assert_eq!(play.parent, None);
        for key in ["open_session", "license"] {
            assert_eq!(spans.iter().find(|s| s.key == key).unwrap().parent, Some(play.id));
        }
        assert_eq!(spans.iter().find(|s| s.key == "study_app").unwrap().parent, None);
        let children: Vec<&Span> = spans.iter().filter(|s| s.parent == Some(play.id)).collect();
        let covered: u64 = children.iter().map(|c| c.duration_ns()).sum();
        assert_eq!(self_time_ns(play, &children), play.duration_ns() - covered);
    }

    #[test]
    fn endpoint_keys_follow_the_path_prefix() {
        assert_eq!(endpoint_key("provision/netflix"), "provision");
        assert_eq!(endpoint_key("license/hulu/title-001"), "license");
        assert_eq!(endpoint_key("manifest/hulu/title-001"), "cdn");
        assert_eq!(endpoint_key("asset/hulu/title-001/video-540p/1"), "cdn");
        assert_eq!(endpoint_key("bogus"), "other");
    }
}
