//! The admission queue and worker pool behind `mt4g serve`.
//!
//! A [`ServeEngine`] owns three pieces:
//!
//! * a bounded **admission queue** — at most `queue_cap` jobs may be
//!   in flight (queued or running); submissions beyond that are rejected
//!   with a `queue_full` error instead of accumulating unbounded memory;
//! * a **worker pool** of `workers` threads, each popping jobs and
//!   executing them through the existing per-unit executor
//!   ([`Job::run`] → `execute_plan` fan-out) — inter-job parallelism
//!   comes from the pool, so each job's own unit fan-out defaults to a
//!   single thread;
//! * the shared **result cache** ([`ResultCache`]) consulted at admission:
//!   hits answer immediately from the submitting thread, misses enqueue a
//!   recompute whose bytes are inserted on completion.
//!
//! Responses flow out through an `mpsc` channel so a single writer thread
//! can serialize them to stdout in completion order; the channel is
//! returned by [`ServeEngine::new`] and closes when the engine (and its
//! workers) shut down. Shutdown is a drain: the queue closes, workers
//! finish what was admitted, and every admitted request still gets its
//! response.

use std::collections::{BTreeMap, VecDeque};
use std::io::BufRead;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::suite::Job;

use super::cache::{CacheKey, ResultCache};

/// The state consulted at admission, under one lock: the result cache
/// and the in-flight pending map (cell descriptor -> coalesced waiters).
/// One lock for both closes the race where a recompute completes between
/// a cache miss and the attach-to-pending step, which would strand the
/// waiter unanswered.
struct CacheState {
    cache: ResultCache,
    pending: BTreeMap<String, Vec<(u64, Instant)>>,
}

/// Locks a mutex, recovering the data from a poisoned lock. The guarded
/// state (cache contents, pending map, queue bookkeeping) stays
/// consistent across a panic because every critical section completes
/// its writes before unlocking or only performs single-call updates; a
/// dead requester must not make the daemon unable to answer everyone
/// else, so poisoning is explicitly not treated as fatal on the serve
/// request path.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
use super::protocol::{parse_request, salvage_id, ErrorBody, Request, Response, ServeStats};

/// Tuning knobs of a [`ServeEngine`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads executing cache misses.
    pub workers: usize,
    /// Bound on in-flight (queued + running) jobs; submissions past it
    /// are rejected with `queue_full`.
    pub queue_cap: usize,
    /// Result-cache bound, in entries.
    pub cache_cap: usize,
    /// Per-job unit fan-out (`DiscoveryConfig::jobs` for served jobs).
    /// The pool provides inter-job parallelism, so this defaults to 1.
    pub job_threads: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 2,
            queue_cap: 128,
            cache_cap: 64,
            job_threads: 1,
        }
    }
}

/// Upper bound on an accepted request line, in bytes. Protocol requests
/// are a few hundred bytes; anything past this is rejected unparsed with
/// a `bad_request` error.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// What the caller should do after feeding a line to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep reading requests.
    Continue,
    /// A `shutdown` request was acknowledged: stop reading and call
    /// [`ServeEngine::shutdown`].
    Shutdown,
}

/// An admitted cache miss, waiting for (or being executed by) a worker.
/// Requests for the same cell that arrive while this job is in flight
/// are *coalesced*: recorded as waiters in the shared pending map and
/// answered by this job's single recompute.
struct Queued {
    id: u64,
    fingerprint: String,
    key: CacheKey,
    job: Job,
    t0: Instant,
}

/// Queue state guarded by one mutex: the FIFO itself, the closed flag,
/// and the in-flight count (queued + running — decremented only when a
/// worker *finishes* a job, which is what makes the bound an admission
/// control rather than a buffer size).
struct QueueState {
    fifo: VecDeque<Box<Queued>>,
    closed: bool,
    in_flight: usize,
}

struct SharedQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    cap: usize,
}

impl SharedQueue {
    fn new(cap: usize) -> SharedQueue {
        SharedQueue {
            state: Mutex::new(QueueState {
                fifo: VecDeque::new(),
                closed: false,
                in_flight: 0,
            }),
            ready: Condvar::new(),
            cap,
        }
    }

    /// Admits a job unless the in-flight bound is reached.
    fn try_push(&self, item: Box<Queued>) -> Result<(), Box<Queued>> {
        let mut state = lock_recover(&self.state);
        if state.closed || state.in_flight >= self.cap {
            return Err(item);
        }
        state.in_flight += 1;
        state.fifo.push_back(item);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the queue is closed and
    /// drained (the worker's signal to exit).
    fn pop(&self) -> Option<Box<Queued>> {
        let mut state = lock_recover(&self.state);
        loop {
            if let Some(item) = state.fifo.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Marks one admitted job finished, freeing an admission slot.
    fn done(&self) {
        lock_recover(&self.state).in_flight -= 1;
    }

    /// Closes admission and wakes every blocked worker to drain.
    fn close(&self) {
        lock_recover(&self.state).closed = true;
        self.ready.notify_all();
    }
}

/// The serve engine: admission queue + worker pool + result cache.
///
/// Feed a byte stream with [`read_requests`](Self::read_requests), request
/// lines with [`handle_line`](Self::handle_line), or parsed [`Request`]s
/// with [`handle_request`](Self::handle_request); read
/// [`Response`]s from the channel returned by [`new`](Self::new). The
/// engine is the *entire* daemon logic — the `mt4g serve` subcommand is
/// just stdin/stdout plumbing around it, which is what lets the tests and
/// the load generator drive it in-process.
pub struct ServeEngine {
    opts: ServeOptions,
    queue: Arc<SharedQueue>,
    shared: Arc<Mutex<CacheState>>,
    tx: Sender<Response>,
    workers: Vec<JoinHandle<()>>,
    requests: u64,
    hits: u64,
    misses: u64,
    coalesced: u64,
    rejected: u64,
    bad_requests: u64,
}

impl ServeEngine {
    /// Spawns the worker pool and returns the engine plus the response
    /// channel. The channel closes after [`shutdown`](Self::shutdown)
    /// (or drop) once every admitted job has answered.
    pub fn new(opts: ServeOptions) -> (ServeEngine, Receiver<Response>) {
        let opts = ServeOptions {
            workers: opts.workers.max(1),
            queue_cap: opts.queue_cap.max(1),
            cache_cap: opts.cache_cap.max(1),
            job_threads: opts.job_threads.max(1),
        };
        let (tx, rx) = mpsc::channel();
        let queue = Arc::new(SharedQueue::new(opts.queue_cap));
        let shared = Arc::new(Mutex::new(CacheState {
            cache: ResultCache::new(opts.cache_cap),
            pending: BTreeMap::new(),
        }));
        let workers = (0..opts.workers)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let shared = Arc::clone(&shared);
                let tx = tx.clone();
                std::thread::spawn(move || worker_loop(&queue, &shared, &tx))
            })
            .collect();
        (
            ServeEngine {
                opts,
                queue,
                shared,
                tx,
                workers,
                requests: 0,
                hits: 0,
                misses: 0,
                coalesced: 0,
                rejected: 0,
                bad_requests: 0,
            },
            rx,
        )
    }

    /// Handles one raw request line. Malformed lines are answered with a
    /// structured `bad_request` error (correlated by a salvaged id when
    /// the line at least carried one) — never a panic, never a silent
    /// drop. Lines beyond [`MAX_LINE_BYTES`] are rejected before parsing:
    /// a real request is a few hundred bytes, so an oversized line is
    /// adversarial or corrupt, and feeding it to the parser would only
    /// burn CPU on garbage.
    pub fn handle_line(&mut self, line: &str) -> Flow {
        if line.len() > MAX_LINE_BYTES {
            self.reject_oversized(line.len());
            return Flow::Continue;
        }
        match parse_request(line) {
            Ok(req) => self.handle_request(&req),
            Err(err) => {
                self.requests += 1;
                self.bad_requests += 1;
                self.respond(Response::error(salvage_id(line), err));
                Flow::Continue
            }
        }
    }

    /// Feeds the lines of `input` to [`handle_line`](Self::handle_line)
    /// until end of input or a `shutdown` request; blank lines are
    /// skipped. At most [`MAX_LINE_BYTES`] + 1 bytes of a line are ever
    /// held, so an oversized line is answered from its counted length
    /// and its remainder is skipped unstored. A line that is not UTF-8
    /// gets a `bad_request` error too. Only an I/O error on `input`
    /// stops the loop early.
    pub fn read_requests(&mut self, mut input: impl BufRead) -> std::io::Result<()> {
        let mut line = Vec::new();
        while let Some(len) = read_bounded_line(&mut input, &mut line)? {
            let flow = if len > MAX_LINE_BYTES {
                self.reject_oversized(len);
                Flow::Continue
            } else {
                match std::str::from_utf8(&line).map(str::trim) {
                    Ok("") => Flow::Continue,
                    Ok(text) => self.handle_line(text),
                    Err(e) => {
                        self.reject_line(format!("request line is not UTF-8: {e}"));
                        Flow::Continue
                    }
                }
            };
            if flow == Flow::Shutdown {
                break;
            }
        }
        Ok(())
    }

    fn reject_oversized(&mut self, len: usize) {
        self.reject_line(format!(
            "request line of {len} bytes exceeds the {MAX_LINE_BYTES}-byte limit"
        ));
    }

    /// Answers a line that is not even parsed (too long, not text) with
    /// an uncorrelated `bad_request` error.
    fn reject_line(&mut self, message: String) {
        self.requests += 1;
        self.bad_requests += 1;
        self.respond(Response::error(0, ErrorBody::new("bad_request", message)));
    }

    /// Handles one parsed request.
    pub fn handle_request(&mut self, req: &Request) -> Flow {
        self.requests += 1;
        match req.op.as_str() {
            "discover" => {
                self.submit_discover(req);
                Flow::Continue
            }
            "stats" => {
                let stats = self.stats();
                self.respond(Response::stats(req.id, stats));
                Flow::Continue
            }
            "shutdown" => {
                self.respond(Response::ack(req.id));
                Flow::Shutdown
            }
            other => {
                self.bad_requests += 1;
                let msg = if other.is_empty() {
                    "missing \"op\" field (expected discover, stats, or shutdown)".to_string()
                } else {
                    format!("unknown op '{other}' (expected discover, stats, or shutdown)")
                };
                self.respond(Response::error(req.id, ErrorBody::new("bad_request", msg)));
                Flow::Continue
            }
        }
    }

    /// Validates, resolves, and either answers from the cache or admits a
    /// recompute.
    fn submit_discover(&mut self, req: &Request) {
        #[expect(
            clippy::disallowed_methods,
            reason = "job queue latency accounting for `stats`; not part of any discovery report"
        )]
        let t0 = Instant::now();
        let spec = match req.to_spec(self.opts.job_threads) {
            Ok(spec) => spec,
            Err(err) => {
                self.bad_requests += 1;
                self.respond(Response::error(req.id, err));
                return;
            }
        };
        let job = match spec.resolve() {
            Ok(job) => job,
            Err(err) => {
                self.bad_requests += 1;
                let code = match err {
                    crate::suite::JobError::UnknownPreset { .. } => "unknown_preset",
                    crate::suite::JobError::Scenario(_) => "bad_scenario",
                    crate::suite::JobError::ElementNotOnDevice { .. } => "bad_element",
                };
                self.respond(Response::error(req.id, ErrorBody::new(code, err)));
                return;
            }
        };
        let key = CacheKey::new(&job.cell());
        // Cache lookup, pending attach, and admission happen under the
        // one CacheState lock: a recompute completing in between cannot
        // strand this request (lock order is CacheState -> queue; workers
        // never hold the queue lock while taking CacheState).
        let mut shared = lock_recover(&self.shared);
        if let Some(bytes) = shared.cache.get(&key) {
            self.hits += 1;
            self.respond(Response::report(
                req.id,
                true,
                t0.elapsed().as_nanos() as u64,
                job.fingerprint(),
                &bytes,
            ));
            return;
        }
        if let Some(waiters) = shared.pending.get_mut(key.cell()) {
            // Same cell already in flight: one recompute will answer both.
            waiters.push((req.id, t0));
            self.coalesced += 1;
            return;
        }
        shared.pending.insert(key.cell().to_string(), Vec::new());
        self.misses += 1;
        let fingerprint = job.fingerprint().to_string();
        if let Err(item) = self.queue.try_push(Box::new(Queued {
            id: req.id,
            fingerprint,
            key,
            job,
            t0,
        })) {
            // Unregister atomically — the lock was never released, so no
            // waiter can have attached to the doomed entry.
            shared.pending.remove(item.key.cell());
            self.misses -= 1;
            self.rejected += 1;
            self.respond(Response::error(
                item.id,
                ErrorBody::new(
                    "queue_full",
                    format!(
                        "admission queue is full ({} jobs in flight)",
                        self.opts.queue_cap
                    ),
                ),
            ));
        }
    }

    /// Counter snapshot, merged with the cache's own bookkeeping.
    pub fn stats(&self) -> ServeStats {
        let shared = lock_recover(&self.shared);
        ServeStats {
            requests: self.requests,
            hits: self.hits,
            misses: self.misses,
            coalesced: self.coalesced,
            rejected: self.rejected,
            bad_requests: self.bad_requests,
            cache_entries: shared.cache.len() as u64,
            cache_capacity: shared.cache.capacity() as u64,
            cache_evictions: shared.cache.stats().evictions,
            workers: self.opts.workers as u64,
            queue_capacity: self.opts.queue_cap as u64,
        }
    }

    /// Closes admission, drains the queue (every admitted job still gets
    /// its response), joins the workers, and closes the response channel.
    /// Returns the final counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.stats()
        // `self.tx` drops here; once the receiver drains what workers
        // already sent, the channel reports disconnected and the writer
        // thread exits.
    }

    fn respond(&self, resp: Response) {
        // A vanished receiver (writer thread gone) only happens on
        // teardown; nothing useful to do with the response then.
        let _ = self.tx.send(resp);
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Reads the next line of `input` into `line` without its `\n`, storing
/// at most [`MAX_LINE_BYTES`] + 1 bytes of it. Returns the line's full
/// length, or `None` at end of input.
fn read_bounded_line(
    input: &mut impl BufRead,
    line: &mut Vec<u8>,
) -> std::io::Result<Option<usize>> {
    line.clear();
    let mut len = 0;
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok((len > 0).then_some(len));
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let part = &chunk[..newline.unwrap_or(chunk.len())];
        let room = (MAX_LINE_BYTES + 1).saturating_sub(line.len());
        line.extend_from_slice(&part[..part.len().min(room)]);
        len += part.len();
        let consumed = part.len() + usize::from(newline.is_some());
        input.consume(consumed);
        if newline.is_some() {
            return Ok(Some(len));
        }
    }
}

/// Serial ticket for deterministic worker naming in panics/debuggers.
static WORKER_SEQ: AtomicU64 = AtomicU64::new(0);

/// Best-effort text of a caught panic payload (`panic!` carries `&str`
/// or `String`; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

fn worker_loop(queue: &SharedQueue, shared: &Mutex<CacheState>, tx: &Sender<Response>) {
    let _ticket = WORKER_SEQ.fetch_add(1, Ordering::Relaxed);
    while let Some(mut item) = queue.pop() {
        // A panicking benchmark must not take the worker thread — and
        // with it the admission slot, the pending entry, and every
        // coalesced waiter — down: the unwind is caught and answered as
        // a structured `internal` error. `AssertUnwindSafe` is sound
        // because the job is owned by this iteration and discarded on
        // panic; no shared lock is held across the call.
        let outcome = catch_unwind(AssertUnwindSafe(|| item.job.run()));
        match outcome {
            Ok(Ok(out)) => {
                let bytes: Arc<str> = Arc::from(out.bytes.as_str());
                // Publish and unregister under one lock: after this point
                // new requests for the cell hit the cache instead of
                // finding (or re-creating) a pending entry.
                let waiters = {
                    let mut state = lock_recover(shared);
                    state.cache.insert(&item.key, Arc::clone(&bytes));
                    state.pending.remove(item.key.cell()).unwrap_or_default()
                };
                let _ = tx.send(Response::report(
                    item.id,
                    false,
                    item.t0.elapsed().as_nanos() as u64,
                    &item.fingerprint,
                    &bytes,
                ));
                for (id, t0) in waiters {
                    let _ = tx.send(Response {
                        coalesced: true,
                        ..Response::report(
                            id,
                            false,
                            t0.elapsed().as_nanos() as u64,
                            &item.fingerprint,
                            &bytes,
                        )
                    });
                }
            }
            Ok(Err(e)) => {
                let waiters = lock_recover(shared)
                    .pending
                    .remove(item.key.cell())
                    .unwrap_or_default();
                let body = ErrorBody::new("internal", format!("serialization failed: {e}"));
                let _ = tx.send(Response::error(item.id, body.clone()));
                for (id, _) in waiters {
                    let _ = tx.send(Response::error(id, body.clone()));
                }
            }
            Err(payload) => {
                let waiters = lock_recover(shared)
                    .pending
                    .remove(item.key.cell())
                    .unwrap_or_default();
                let body = ErrorBody::new(
                    "internal",
                    format!("discovery panicked: {}", panic_message(payload.as_ref())),
                );
                let _ = tx.send(Response::error(item.id, body.clone()));
                for (id, _) in waiters {
                    let _ = tx.send(Response::error(id, body.clone()));
                }
            }
        }
        queue.done();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_engine() -> (ServeEngine, Receiver<Response>) {
        ServeEngine::new(ServeOptions {
            workers: 1,
            queue_cap: 4,
            cache_cap: 8,
            job_threads: 1,
        })
    }

    fn discover_line(id: u64) -> String {
        format!(r#"{{"id":{id},"op":"discover","gpu":"T1000","only":"cl1"}}"#)
    }

    #[test]
    fn discover_miss_then_hit_and_bytes_agree() {
        let (mut engine, rx) = tiny_engine();
        assert_eq!(engine.handle_line(&discover_line(1)), Flow::Continue);
        let miss = rx.recv().unwrap();
        assert!(miss.ok && !miss.cached);
        assert_eq!(engine.handle_line(&discover_line(2)), Flow::Continue);
        let hit = rx.recv().unwrap();
        assert!(hit.ok && hit.cached, "second identical request hits");
        assert_eq!(hit.report, miss.report, "hit serves the exact bytes");
        assert_eq!(hit.fingerprint, miss.fingerprint);
        let stats = engine.shutdown();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn malformed_and_unknown_requests_get_structured_errors() {
        let (mut engine, rx) = tiny_engine();
        engine.handle_line("certainly not json");
        assert_eq!(rx.recv().unwrap().error.unwrap().code, "bad_request");
        engine.handle_line(r#"{"id":9,"op":"frobnicate"}"#);
        let resp = rx.recv().unwrap();
        assert_eq!(resp.id, 9);
        assert_eq!(resp.error.unwrap().code, "bad_request");
        engine.handle_line(r#"{"id":10,"op":"discover","gpu":"RTX9090"}"#);
        assert_eq!(rx.recv().unwrap().error.unwrap().code, "unknown_preset");
        engine.handle_line(r#"{"id":11,"op":"discover","gpu":"MI210","scenario":"mig:1g.5gb"}"#);
        assert_eq!(rx.recv().unwrap().error.unwrap().code, "bad_scenario");
        let stats = engine.shutdown();
        assert_eq!(stats.bad_requests, 4);
    }

    #[test]
    fn shutdown_request_stops_the_read_loop_and_drains() {
        let (mut engine, rx) = tiny_engine();
        engine.handle_line(&discover_line(1));
        assert_eq!(
            engine.handle_line(r#"{"id":2,"op":"shutdown"}"#),
            Flow::Shutdown
        );
        let stats = engine.shutdown();
        // Both the admitted job and the shutdown ack were answered.
        let mut answered: Vec<u64> = rx.iter().map(|r| r.id).collect();
        answered.sort_unstable();
        assert_eq!(answered, vec![1, 2]);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn identical_inflight_requests_coalesce_onto_one_recompute() {
        // Submit the same cell twice before any worker can finish: the
        // second must attach to the first's recompute, not duplicate it.
        // A full fast run (~0.4 s) leaves orders of magnitude more margin
        // than the back-to-back submission takes.
        let (mut engine, rx) = tiny_engine();
        let line = |id| format!(r#"{{"id":{id},"op":"discover","gpu":"T1000","mode":"fast"}}"#);
        engine.handle_line(&line(1));
        engine.handle_line(&line(2));
        let stats = engine.shutdown();
        assert_eq!(stats.misses, 1, "one recompute");
        assert_eq!(stats.coalesced, 1, "second request coalesced");
        let mut resps: Vec<Response> = rx.iter().collect();
        resps.sort_by_key(|r| r.id);
        assert_eq!(resps.len(), 2);
        assert!(resps.iter().all(|r| r.ok));
        assert_eq!(resps[0].report, resps[1].report, "same bytes for both");
        assert!(!resps[0].coalesced && resps[1].coalesced);
    }

    #[test]
    fn stats_request_reports_counters() {
        let (mut engine, rx) = tiny_engine();
        engine.handle_line(&discover_line(1));
        let _ = rx.recv().unwrap();
        engine.handle_line(r#"{"id":5,"op":"stats"}"#);
        let resp = rx.recv().unwrap();
        let stats = resp.stats.unwrap();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.cache_entries, 1);
        engine.shutdown();
    }
}
