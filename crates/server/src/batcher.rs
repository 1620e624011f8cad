//! Group commit: amortizing the fsync across concurrent appenders.
//!
//! Per-append durability (`FsyncPolicy::Always`) costs one payload fsync
//! and one WAL fsync per transaction — the disk barrier, not the
//! cryptography, dominates. The [`GroupCommitter`] runs one committer
//! thread that drains queued appends into a batch (bounded by
//! [`BatchConfig::max_batch`] requests or [`BatchConfig::max_delay`] of
//! accumulation), commits the whole batch through
//! [`SharedLedger::append_batch`] — which writes every payload with one
//! `write`+`fsync` and every journal WAL record behind one final sync
//! barrier — and only *then* answers each waiting request. The ack
//! contract is identical to per-append fsync: **no request is
//! acknowledged before its bytes are stable**; only the latency of the
//! barrier is shared.
//!
//! Ordering discipline (DESIGN §6 payload→WAL→memory) holds batch-wide:
//! all payloads of a batch are durable before any of its WAL records is
//! written, so a crash can strand orphan payloads (recovery trims them)
//! but never a journal record whose payload is missing.

use crate::metrics::BatchMetrics;
use crate::protocol::{ErrorCode, ErrorFrame};
pub use ledgerdb_core::Admission;
use ledgerdb_core::{Receipt, SharedLedger, TxRequest};
use ledgerdb_crypto::digest::Digest;
use ledgerdb_crypto::sync::Mutex;
use ledgerdb_telemetry::trace::{self, TraceContext};
use ledgerdb_telemetry::Registry;
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Group-commit tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Commit as soon as this many requests are queued.
    pub max_batch: usize,
    /// Commit a non-empty batch after at most this much accumulation.
    pub max_delay: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        // Wide enough to gather the concurrent burst that follows an
        // ack, narrow enough that a lone append is not stalled
        // noticeably.
        BatchConfig { max_batch: 64, max_delay: Duration::from_micros(150) }
    }
}

/// What a committed job resolves to.
#[derive(Clone, Debug)]
pub enum CommitOutcome {
    /// A durable plain append.
    Appended { jsn: u64, tx_hash: Digest },
    /// A durable append sealed into a block, with the LSP receipt.
    Committed(Receipt),
}

/// A queued append waiting for its batch to become durable.
struct Job {
    request: TxRequest,
    /// Seal + receipt requested (`AppendCommitted`).
    committed: bool,
    /// When the job entered the queue (for `batch_queue_wait_seconds`).
    enqueued: Instant,
    /// The same instant on the trace clock, plus the submitter's trace
    /// context: the committer records the real queue wait into the
    /// submitting request's span tree and installs a window scope over
    /// every member so the shared commit stages (fsync barrier, seal)
    /// land in each tree.
    enqueued_ns: u64,
    ctx: Option<TraceContext>,
    /// `Some` until the job is answered. [`Job::settle`] is the only
    /// path that replies and the only path that decrements the
    /// queue-depth gauge, so both happen exactly once per job.
    reply: Option<mpsc::SyncSender<Result<CommitOutcome, ErrorFrame>>>,
    metrics: BatchMetrics,
}

impl Job {
    /// Answer the waiting submitter (at most once) and take the job off
    /// the queue-depth gauge. The receiver may have given up
    /// (connection died): a failed send is ignored — the append is
    /// durable regardless, which is exactly the at-least-once contract.
    fn settle(&mut self, outcome: Result<CommitOutcome, ErrorFrame>) {
        if let Some(reply) = self.reply.take() {
            self.metrics.queue_depth.add(-1);
            let _ = reply.send(outcome);
        }
    }
}

impl Drop for Job {
    /// A job dropped unanswered — committer panic, or a queue torn down
    /// with jobs still buffered — must neither strand its submitter on
    /// `recv` nor leak the queue-depth gauge: settle with a typed
    /// rejection on the way out.
    fn drop(&mut self) {
        self.settle(Err(ErrorFrame {
            code: ErrorCode::ShuttingDown,
            detail: "group committer dropped the job before answering".into(),
        }));
    }
}

/// Handle to the committer thread. Cloneable submission via
/// [`GroupCommitter::submit`]; [`GroupCommitter::shutdown`] drains every
/// queued job before returning.
pub struct GroupCommitter {
    shared: SharedLedger,
    admission: Admission,
    metrics: BatchMetrics,
    submit_tx: Mutex<Option<mpsc::Sender<Job>>>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl GroupCommitter {
    /// Spawn the committer thread over a shared ledger, recording into
    /// `registry`. π_c was already checked at
    /// [`GroupCommitter::submit`], so a commit window's off-lock stage
    /// only digests its payloads, inline on the committer thread,
    /// before the write lock is taken; the locked window is structural
    /// inserts plus one WAL write.
    pub fn start(
        shared: SharedLedger,
        config: BatchConfig,
        admission: Admission,
        registry: &Registry,
    ) -> Self {
        let metrics = BatchMetrics::bind(registry);
        let (tx, rx) = mpsc::channel::<Job>();
        let committer_shared = shared.clone();
        let committer_metrics = metrics.clone();
        let handle = thread::Builder::new()
            .name("ledgerd-committer".into())
            .spawn(move || committer_loop(committer_shared, config, rx, committer_metrics))
            .expect("spawn committer thread");
        GroupCommitter {
            shared,
            admission,
            metrics,
            submit_tx: Mutex::new(Some(tx)),
            handle: Mutex::new(Some(handle)),
        }
    }

    /// Queue one append and block until its batch is durable (or
    /// rejected). Returns a `ShuttingDown` error frame if the committer
    /// has been stopped.
    ///
    /// Admission (membership + π_c) runs here, on the *caller's*
    /// thread under a shared read lock — concurrent submitters verify
    /// signatures in parallel and the serial committer only pays for
    /// hashing and I/O. Under [`Admission::ProxyTrusted`] π_c is the
    /// proxy tier's job and only membership is checked (at commit).
    pub fn submit(
        &self,
        request: TxRequest,
        committed: bool,
    ) -> Result<CommitOutcome, ErrorFrame> {
        if self.admission == Admission::Verify {
            self.shared
                .verify_request(&request)
                .map_err(|e| ErrorFrame::from_ledger_error(&e))?;
        }
        let shutting_down = || ErrorFrame {
            code: ErrorCode::ShuttingDown,
            detail: "group committer stopped".into(),
        };
        let sender = match &*self.submit_tx.lock() {
            Some(tx) => tx.clone(),
            None => return Err(shutting_down()),
        };
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        self.metrics.queue_depth.add(1);
        let job = Job {
            request,
            committed,
            enqueued: Instant::now(),
            enqueued_ns: trace::now_ns(),
            ctx: trace::current(),
            reply: Some(reply_tx),
            metrics: self.metrics.clone(),
        };
        if sender.send(job).is_err() {
            // Committer gone: the rejected Job settled itself (gauge
            // decrement included) when the failed send dropped it.
            return Err(shutting_down());
        }
        // Drop our sender clone *before* blocking on the reply: a
        // waiter must not keep the channel open, or a steady stream of
        // submitters racing `shutdown()` could hold its drain (which
        // runs until every sender is gone) open indefinitely.
        drop(sender);
        reply_rx.recv().unwrap_or_else(|_| Err(shutting_down()))
    }

    /// Stop accepting new jobs, drain everything already queued (each
    /// gets its durable ack or error), and join the committer thread.
    /// Idempotent.
    pub fn shutdown(&self) {
        drop(self.submit_tx.lock().take());
        if let Some(handle) = self.handle.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for GroupCommitter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn committer_loop(
    shared: SharedLedger,
    config: BatchConfig,
    rx: mpsc::Receiver<Job>,
    metrics: BatchMetrics,
) {
    let max_batch = config.max_batch.max(1);
    loop {
        // Block for the first job of the next batch; channel closed and
        // drained means shutdown.
        let first = match rx.recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        let mut jobs = vec![first];
        let deadline = Instant::now() + config.max_delay;
        loop {
            while jobs.len() < max_batch {
                match rx.try_recv() {
                    Ok(job) => jobs.push(job),
                    Err(_) => break,
                }
            }
            if jobs.len() >= max_batch {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            // Sleep the window out in one gulp rather than blocking in
            // `recv_timeout`: senders enqueue without waking this thread
            // (nobody is parked on the channel), so a batch of N costs
            // one committer wakeup instead of N — a real saving when
            // cores are scarce.
            thread::sleep(deadline - now);
        }
        commit_batch(&shared, jobs, &metrics);
    }
}

/// Make one window durable and answer every job (via [`Job::settle`], so
/// each waiter is answered exactly once even on the error paths).
fn commit_batch(
    shared: &SharedLedger,
    mut jobs: Vec<Job>,
    metrics: &BatchMetrics,
) {
    metrics.windows.inc();
    metrics.batch_size.observe(jobs.len() as u64);
    let window_start_ns = trace::now_ns();
    for job in &jobs {
        metrics.queue_wait_seconds.observe_duration(job.enqueued.elapsed());
        if let Some(ctx) = job.ctx {
            trace::record_span(ctx, "batch_queue_wait", job.enqueued_ns, window_start_ns);
        }
    }
    // Every stage below this point — WAL write, seal legs, the shared
    // fsync barrier — records one span per member trace.
    let members: Vec<TraceContext> = jobs.iter().filter_map(|job| job.ctx).collect();
    let _window_scope = trace::install_window(&members);
    let _commit_span = metrics.commit_seconds.time("batch_commit");
    let window: Vec<(TxRequest, bool)> =
        jobs.iter().map(|job| (job.request.clone(), job.committed)).collect();
    match commit_window(shared, window) {
        Ok(outcomes) => {
            debug_assert_eq!(outcomes.len(), jobs.len());
            for (mut job, outcome) in jobs.into_iter().zip(outcomes) {
                job.settle(outcome);
            }
        }
        // Window-wide failure: nothing was acked, nothing is promised.
        Err(frame) => {
            for job in &mut jobs {
                job.settle(Err(frame.clone()));
            }
        }
    }
}

/// Commit `(request, wants_receipt)` pairs as one durable unit and
/// resolve each to its outcome, positionally — the body of a commit
/// window. An outer `Err` means nothing in the window may be
/// acknowledged.
fn commit_window(
    shared: &SharedLedger,
    window: Vec<(TxRequest, bool)>,
) -> Result<Vec<Result<CommitOutcome, ErrorFrame>>, ErrorFrame> {
    let (requests, committed): (Vec<TxRequest>, Vec<bool>) = window.into_iter().unzip();
    // π_c was verified at submit(): the window skips the redundant ECDSA.
    let results = shared
        .append_batch(requests, Admission::ProxyTrusted)
        .map_err(|e| ErrorFrame::from_ledger_error(&e))?;

    // Seal before answering `committed` members: a receipt binds its
    // block hash, so the seal's WAL record must be durable before the
    // receipt leaves the building.
    let wants_seal = committed.iter().zip(&results).any(|(&c, result)| c && result.is_ok());
    let seal_error = if wants_seal {
        shared
            .try_seal_block()
            .and_then(|()| shared.sync_durable())
            .err()
            .map(|e| ErrorFrame::from_ledger_error(&e))
    } else {
        None
    };

    Ok(results
        .into_iter()
        .zip(committed)
        .map(|(result, committed)| match result {
            Err(e) => Err(ErrorFrame::from_ledger_error(&e)),
            Ok(ack) if !committed => {
                Ok(CommitOutcome::Appended { jsn: ack.jsn, tx_hash: ack.tx_hash })
            }
            Ok(ack) => match &seal_error {
                Some(frame) => Err(frame.clone()),
                None => match shared.receipt(ack.jsn) {
                    Ok(Some(receipt)) => Ok(CommitOutcome::Committed(receipt)),
                    Ok(None) => Err(ErrorFrame {
                        code: ErrorCode::Internal,
                        detail: format!("journal {} sealed but receipt unavailable", ack.jsn),
                    }),
                    Err(e) => Err(ErrorFrame::from_ledger_error(&e)),
                },
            },
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::shared;

    #[test]
    fn concurrent_submitters_share_batches() {
        let (shared, alice) = shared(16);
        let committer = GroupCommitter::start(
            shared.clone(),
            BatchConfig { max_batch: 8, max_delay: Duration::from_millis(20) },
            Admission::Verify,
            Registry::global(),
        );
        let outcomes = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..24u64)
                .map(|i| {
                    let committer = &committer;
                    let req = TxRequest::signed(
                        &alice,
                        format!("doc-{i}").into_bytes(),
                        vec![format!("c{}", i % 3)],
                        i,
                    );
                    scope.spawn(move || committer.submit(req, false))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });
        let mut jsns: Vec<u64> = outcomes
            .into_iter()
            .map(|o| match o.unwrap() {
                CommitOutcome::Appended { jsn, .. } => jsn,
                other => panic!("expected plain ack, got {other:?}"),
            })
            .collect();
        jsns.sort_unstable();
        assert_eq!(jsns, (0..24).collect::<Vec<_>>());
        committer.shutdown();
        assert_eq!(shared.journal_count(), 24);
    }

    #[test]
    fn committed_jobs_get_verifying_receipts() {
        let (shared, alice) = shared(64);
        let committer = GroupCommitter::start(
            shared.clone(),
            BatchConfig::default(),
            Admission::Verify,
            Registry::global(),
        );
        let req = TxRequest::signed(&alice, b"receipt me".to_vec(), vec!["r".into()], 1);
        let outcome = committer.submit(req, true).unwrap();
        match outcome {
            CommitOutcome::Committed(receipt) => {
                assert!(receipt.verify());
                assert_eq!(receipt.jsn, 0);
            }
            other => panic!("expected receipt, got {other:?}"),
        }
        // The seal happened even though block_size (64) wasn't reached.
        assert_eq!(shared.block_count(), 1);
    }

    #[test]
    fn rejected_requests_do_not_poison_the_batch() {
        let (shared, alice) = shared(16);
        let committer = GroupCommitter::start(
            shared.clone(),
            BatchConfig { max_batch: 4, max_delay: Duration::from_millis(50) },
            Admission::Verify,
            Registry::global(),
        );
        let stranger = ledgerdb_crypto::keys::KeyPair::from_seed(b"not-registered");
        let outcomes = std::thread::scope(|scope| {
            let good_a = TxRequest::signed(&alice, b"a".to_vec(), vec![], 0);
            let bad = TxRequest::signed(&stranger, b"b".to_vec(), vec![], 1);
            let good_c = TxRequest::signed(&alice, b"c".to_vec(), vec![], 2);
            [good_a, bad, good_c].map(|req| {
                let committer = &committer;
                scope.spawn(move || committer.submit(req, false))
            })
            .map(|h| h.join().unwrap())
        });
        let (ok, err): (Vec<_>, Vec<_>) = outcomes.into_iter().partition(|o| o.is_ok());
        assert_eq!(ok.len(), 2);
        assert_eq!(err.len(), 1);
        assert_eq!(err[0].as_ref().unwrap_err().code, ErrorCode::Rejected);
        assert_eq!(shared.journal_count(), 2);
    }

    #[test]
    fn telemetry_counts_windows_not_appends() {
        use ledgerdb_core::recovery::open_durable_with;
        use ledgerdb_core::{LedgerConfig, SharedLedger};
        use ledgerdb_storage::FsyncPolicy;
        use ledgerdb_telemetry::parse_value;
        use ledgerdb_timesvc::clock::SimClock;
        use std::sync::Arc;

        let (member_registry, alice) = crate::testutil::registry();
        let telemetry = Arc::new(Registry::new());
        let dir = std::env::temp_dir()
            .join(format!("ledgerdb-batch-telemetry-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config =
            LedgerConfig { block_size: 1024, fam_delta: 15, name: "batch-telemetry".into(), state_backend: Default::default() };
        // FsyncPolicy::Never: the committer's batch barrier is the only
        // fsync source, so the counter isolates group-commit behavior.
        let (ledger, _) = open_durable_with(
            config,
            member_registry,
            &dir,
            FsyncPolicy::Never,
            Arc::new(SimClock::new()),
            &telemetry,
        )
        .unwrap();
        let shared = SharedLedger::new(ledger);
        let fsyncs_before = telemetry.counter("storage_fsync_total").get();

        // Pre-sign every request and admit proxy-trusted: this test
        // measures how fsync barriers scale with commit windows, so the
        // slow client-side ECDSA (several ms per op in debug on a small
        // box) must not pace job arrival — it would stretch the
        // submission span across extra windows and turn the scaling
        // assertion into a CPU-speed assertion.
        let appends = 24u64;
        let requests: Vec<TxRequest> = (0..appends)
            .map(|i| TxRequest::signed(&alice, format!("t-{i}").into_bytes(), vec![], i))
            .collect();
        let committer = GroupCommitter::start(
            shared.clone(),
            BatchConfig { max_batch: 8, max_delay: Duration::from_millis(10) },
            Admission::ProxyTrusted,
            &telemetry,
        );
        std::thread::scope(|scope| {
            let handles: Vec<_> = requests
                .into_iter()
                .map(|req| {
                    let committer = &committer;
                    scope.spawn(move || committer.submit(req, false).unwrap())
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        committer.shutdown();

        let text = ledgerdb_telemetry::render(&telemetry);
        let windows = parse_value(&text, "batch_windows_total").unwrap() as u64;
        assert!(windows >= 1, "at least one commit window ran");
        // Group commit's whole point: the disk barrier scales with
        // windows (payload + WAL fsync each), not with appends.
        let fsyncs = telemetry.counter("storage_fsync_total").get() - fsyncs_before;
        assert_eq!(fsyncs, 2 * windows, "two fsync barriers per commit window:\n{text}");
        assert!(fsyncs < appends, "fewer fsyncs ({fsyncs}) than appends ({appends})");
        // Every job passed through the queue-wait histogram and every
        // submitted append landed in exactly one window.
        assert_eq!(parse_value(&text, "batch_queue_wait_seconds_count"), Some(appends as f64));
        assert_eq!(parse_value(&text, "batch_size_sum"), Some(appends as f64));
        assert_eq!(parse_value(&text, "batch_windows_total"), Some(windows as f64));
        // Graceful drain flushed everything: no job still counted queued.
        assert_eq!(parse_value(&text, "batch_queue_depth"), Some(0.0));
        assert_eq!(shared.journal_count(), appends);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drain_race_rejects_typed_and_never_hangs() {
        use ledgerdb_telemetry::parse_value;
        use std::sync::atomic::{AtomicU64, Ordering};

        let telemetry = Registry::new();
        let (shared, alice) = shared(16);
        let acked = AtomicU64::new(0);
        // Several rounds with submitters mid-flight when shutdown lands,
        // to hit the clone-sender/drop-sender window from both sides.
        for round in 0..6u64 {
            let committer = GroupCommitter::start(
                shared.clone(),
                BatchConfig { max_batch: 4, max_delay: Duration::from_micros(200) },
                Admission::Verify,
                &telemetry,
            );
            std::thread::scope(|scope| {
                for t in 0..4u64 {
                    let committer = &committer;
                    let alice = &alice;
                    let acked = &acked;
                    scope.spawn(move || {
                        for i in 0.. {
                            let req = TxRequest::signed(
                                alice,
                                format!("race-{round}-{t}-{i}").into_bytes(),
                                vec![],
                                round << 32 | t << 16 | i,
                            );
                            // Every submit must resolve: a durable ack
                            // or a typed shutdown — never a hang, never
                            // an untyped failure.
                            match committer.submit(req, false) {
                                Ok(CommitOutcome::Appended { .. }) => {
                                    acked.fetch_add(1, Ordering::Relaxed);
                                }
                                Ok(other) => panic!("plain append acked as {other:?}"),
                                Err(frame) => {
                                    assert_eq!(frame.code, ErrorCode::ShuttingDown, "{frame}");
                                    return;
                                }
                            }
                        }
                    });
                }
                std::thread::sleep(Duration::from_millis(1 + round % 3));
                committer.shutdown();
            });
        }
        // Exactly the acked jobs are in the ledger: nothing acked was
        // lost, nothing unacked slipped in.
        assert_eq!(shared.journal_count(), acked.load(Ordering::Relaxed));
        // No job is still counted as queued once every round drained.
        let text = ledgerdb_telemetry::render(&telemetry);
        assert_eq!(parse_value(&text, "batch_queue_depth"), Some(0.0), "{text}");
    }

    #[test]
    fn submit_after_shutdown_fails_typed() {
        let (shared, alice) = shared(16);
        let committer = GroupCommitter::start(
            shared,
            BatchConfig::default(),
            Admission::Verify,
            Registry::global(),
        );
        committer.shutdown();
        let req = TxRequest::signed(&alice, b"late".to_vec(), vec![], 9);
        let err = committer.submit(req, false).unwrap_err();
        assert_eq!(err.code, ErrorCode::ShuttingDown);
    }
}
