//! Execution-side queueing for the event-loop server: a bounded,
//! per-client fair scheduler feeding the evaluation pool, and the
//! shared-scan batch registry that coalesces identical in-flight
//! queries.
//!
//! Fairness: jobs are queued per client (connection) and dispatched
//! round-robin across clients, so a connection pipelining heavy twig
//! queries advances one evaluation per turn while point lookups from
//! other connections interleave — one client cannot starve the rest.
//!
//! Admission: the queue is bounded by [`Sched::new`]'s capacity. A full
//! queue rejects at dispatch time — the I/O thread answers `503` with
//! `Retry-After` immediately instead of letting latency collapse under
//! an unbounded backlog. Batch joins bypass admission: they add no
//! evaluation work.

use crate::catalog::DocEntry;
use crate::http::Request;
use crate::span::RequestSpan;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Where a finished response is delivered: an I/O thread, a
/// generation-tagged connection token on it, and the request's sequence
/// slot in that connection's pipeline.
#[derive(Debug, Clone, Copy)]
pub struct Destination {
    pub io_thread: usize,
    pub conn_token: u64,
    pub seq: u64,
}

/// One request awaiting a response — its destination plus the
/// per-request facts a (possibly batched) completion needs, and the
/// request's lifecycle span (which is why `Member` is move-only: the
/// span's stage laps and id travel with exactly one owner).
#[derive(Debug)]
pub struct Member {
    pub dest: Destination,
    /// This member's own cooperative deadline (arrival + budget).
    pub deadline: Option<Instant>,
    pub keep_alive: bool,
    /// When the request was parsed off the wire; latency histograms
    /// measure from here, so queueing delay is included.
    pub arrived: Instant,
    /// Lifecycle span: read/parse laps already recorded at dispatch.
    pub span: RequestSpan,
}

/// The coalescing key: two `/query` requests share one evaluation iff
/// they agree on the document *instance* (uid, not name — a reload
/// changes the uid), the canonical query text and the strategy.
/// Deadlines are deliberately excluded: they are per-member (see
/// `eventloop`'s batch completion).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BatchKey {
    pub doc_uid: u64,
    pub query: String,
    pub strategy: String,
}

/// One unit of execution-pool work.
pub enum Job {
    /// Serve exactly one request (everything except batchable queries);
    /// the member (and its span) rides in the job.
    Plain { request: Request, member: Member },
    /// Leader of a coalesced batch: evaluate once, then answer every
    /// member registered under `key` when execution starts. The leader's
    /// own member is the first entry in the batch registry, not here.
    BatchLeader { request: Request, key: BatchKey, entry: Arc<DocEntry> },
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Job::Plain { member, .. } => {
                f.debug_struct("Job").field("kind", &"plain").field("member", member).finish()
            }
            Job::BatchLeader { key, .. } => {
                f.debug_struct("Job").field("kind", &"batch-leader").field("key", key).finish()
            }
        }
    }
}

struct SchedInner {
    /// Per-client FIFO queues; `ring` holds clients with pending work
    /// in round-robin order (each client appears at most once).
    queues: HashMap<u64, VecDeque<Job>>,
    ring: VecDeque<u64>,
    len: usize,
    peak: usize,
    closed: bool,
}

/// The bounded fair scheduler between I/O threads and the execution
/// pool.
pub struct Sched {
    inner: Mutex<SchedInner>,
    cv: Condvar,
    cap: usize,
}

impl Sched {
    pub fn new(cap: usize) -> Sched {
        Sched {
            inner: Mutex::new(SchedInner {
                queues: HashMap::new(),
                ring: VecDeque::new(),
                len: 0,
                peak: 0,
                closed: false,
            }),
            cv: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueue `job` for `client`; `Err(job)` when the queue is at
    /// capacity (admission rejection — the job is handed back so the
    /// caller can answer 503 without cloning requests).
    pub fn push(&self, client: u64, job: Job) -> Result<(), Job> {
        let mut inner = self.inner.lock().unwrap();
        if inner.len >= self.cap || inner.closed {
            return Err(job);
        }
        let queue = inner.queues.entry(client).or_default();
        let was_empty = queue.is_empty();
        queue.push_back(job);
        if was_empty {
            inner.ring.push_back(client);
        }
        inner.len += 1;
        inner.peak = inner.peak.max(inner.len);
        drop(inner);
        self.cv.notify_one();
        Ok(())
    }

    /// Dequeue the next job round-robin across clients; blocks while
    /// empty, returns `None` once closed *and* drained (workers exit
    /// only after every admitted job ran — the drain guarantee).
    pub fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(client) = inner.ring.pop_front() {
                let queue = inner.queues.get_mut(&client).expect("ring entry has a queue");
                let job = queue.pop_front().expect("ring entry queue is non-empty");
                if queue.is_empty() {
                    inner.queues.remove(&client);
                } else {
                    inner.ring.push_back(client);
                }
                inner.len -= 1;
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.cv.wait(inner).unwrap();
        }
    }

    /// Stop admitting and wake every blocked worker; queued jobs still
    /// drain through [`Sched::pop`].
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.cv.notify_all();
    }

    /// Jobs currently queued (the `/stats` gauge).
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap().len
    }

    /// High-water mark of the queue depth.
    pub fn peak(&self) -> usize {
        self.inner.lock().unwrap().peak
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

/// How [`Batches::join_or_lead`] admitted a member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Added to an in-flight batch: its leader's evaluation answers it.
    Joined,
    /// Opened a fresh batch: the caller owes it an execution job (or a
    /// roll-back through [`Batches::take`]).
    Leader,
}

/// In-flight batches: key → members waiting on one evaluation.
///
/// Lifecycle: [`Batches::join_or_lead`] makes the first request for a
/// key the batch's leader, which enqueues an execution job; concurrent
/// identical requests join for free. When the leader's job starts
/// evaluating it calls [`Batches::take`], fixing the member set —
/// requests arriving after that start a fresh batch, so nobody waits on
/// an evaluation that began with a shorter deadline than their own.
#[derive(Default)]
pub struct Batches {
    inner: Mutex<HashMap<BatchKey, Vec<Member>>>,
}

impl Batches {
    pub fn new() -> Batches {
        Batches::default()
    }

    /// Join the in-flight batch for `key`, or open one with `member` as
    /// its leader. One critical section: I/O threads dispatching the same
    /// query at the same instant must not both see "no batch" and both
    /// lead — the second registration would replace the first leader's,
    /// whose connection then waits for a response nobody owes it.
    pub fn join_or_lead(&self, key: &BatchKey, member: Member) -> Admission {
        let mut inner = self.inner.lock().unwrap();
        match inner.get_mut(key) {
            Some(members) => {
                members.push(member);
                Admission::Joined
            }
            None => {
                inner.insert(key.clone(), vec![member]);
                Admission::Leader
            }
        }
    }

    /// Claim the batch: every member registered so far, in join order
    /// (leader first). The key is removed, ending the coalescing
    /// window.
    pub fn take(&self, key: &BatchKey) -> Vec<Member> {
        self.inner.lock().unwrap().remove(key).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn job(path: &str) -> Job {
        Job::Plain {
            request: Request {
                method: "GET".into(),
                path: path.into(),
                params: Vec::new(),
                headers: Vec::new(),
                body: Vec::new(),
                keep_alive: true,
            },
            member: member(0),
        }
    }

    fn member(seq: u64) -> Member {
        Member {
            dest: Destination { io_thread: 0, conn_token: 0, seq },
            deadline: None,
            keep_alive: true,
            arrived: Instant::now(),
            span: RequestSpan::begin(Instant::now()),
        }
    }

    fn path_of(job: &Job) -> String {
        match job {
            Job::Plain { request, .. } => request.path.clone(),
            Job::BatchLeader { .. } => unreachable!(),
        }
    }

    /// A client with a deep backlog cannot starve a one-shot client:
    /// round-robin dispatch serves the newcomer on the next turn.
    #[test]
    fn round_robin_interleaves_clients() {
        let sched = Sched::new(64);
        for i in 0..10 {
            sched.push(1, job(&format!("/heavy{i}"))).unwrap();
        }
        sched.push(2, job("/point")).unwrap();
        assert_eq!(path_of(&sched.pop().unwrap()), "/heavy0");
        // Client 2 arrived second and gets the second turn, not the 11th.
        assert_eq!(path_of(&sched.pop().unwrap()), "/point");
        assert_eq!(path_of(&sched.pop().unwrap()), "/heavy1");
    }

    #[test]
    fn admission_bound_rejects_and_hands_the_job_back() {
        let sched = Sched::new(2);
        sched.push(1, job("/a")).unwrap();
        sched.push(2, job("/b")).unwrap();
        let rejected = sched.push(3, job("/c")).unwrap_err();
        assert_eq!(path_of(&rejected), "/c");
        assert_eq!(sched.depth(), 2);
        assert_eq!(sched.peak(), 2);
        // Draining reopens admission.
        sched.pop().unwrap();
        sched.push(3, job("/c")).unwrap();
    }

    #[test]
    fn close_drains_queued_jobs_then_returns_none() {
        let sched = Sched::new(8);
        sched.push(1, job("/a")).unwrap();
        sched.close();
        assert!(sched.push(1, job("/late")).is_err(), "closed queue admits nothing");
        assert_eq!(path_of(&sched.pop().unwrap()), "/a");
        assert!(sched.pop().is_none());
    }

    #[test]
    fn pop_blocks_until_push() {
        let sched = Arc::new(Sched::new(8));
        let s = sched.clone();
        let t = std::thread::spawn(move || s.pop().map(|j| path_of(&j)));
        std::thread::sleep(Duration::from_millis(20));
        sched.push(1, job("/woke")).unwrap();
        assert_eq!(t.join().unwrap().as_deref(), Some("/woke"));
    }

    fn key() -> BatchKey {
        BatchKey { doc_uid: 1, query: "//a".into(), strategy: "auto".into() }
    }

    #[test]
    fn batches_join_only_between_lead_and_take() {
        let batches = Batches::new();
        let key = key();
        assert_eq!(batches.join_or_lead(&key, member(1)), Admission::Leader);
        assert_eq!(batches.join_or_lead(&key, member(2)), Admission::Joined);
        assert_eq!(batches.join_or_lead(&key, member(3)), Admission::Joined);
        let members = batches.take(&key);
        assert_eq!(members.len(), 3);
        assert_eq!(members[0].dest.seq, 1, "leader first");
        // The window closed: later identical requests start fresh.
        assert!(batches.take(&key).is_empty());
        assert_eq!(batches.join_or_lead(&key, member(4)), Admission::Leader);
    }

    /// Two I/O threads dispatching the same query at the same instant:
    /// every member ends up in exactly one `take`. With join and lead as
    /// two lock acquisitions both threads could lead, and the second
    /// registration dropped the first leader (a `debug_assert!` caught it
    /// only in debug builds; in release the connection hung).
    #[test]
    fn racing_join_or_lead_accounts_for_every_member() {
        use std::sync::atomic::{AtomicU64, Ordering};
        const ROUNDS: u64 = 10_000;
        let batches = Batches::new();
        // A spinning rendezvous: both racers leave it within nanoseconds
        // of each other, which a futex-backed `Barrier` wake-up does not
        // give (the window being raced is two lock acquisitions wide).
        let arrived = AtomicU64::new(0);
        let rendezvous = |target: u64| {
            arrived.fetch_add(1, Ordering::SeqCst);
            let mut spins = 0u32;
            while arrived.load(Ordering::SeqCst) < target {
                spins += 1;
                if spins % 1024 == 0 {
                    std::thread::yield_now(); // a single core must not spin out its quantum
                } else {
                    std::hint::spin_loop();
                }
            }
        };
        let taken: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..2u64)
                .map(|t| {
                    let (batches, rendezvous) = (&batches, &rendezvous);
                    scope.spawn(move || {
                        let key = key();
                        let mut mine = Vec::new();
                        for round in 0..ROUNDS {
                            rendezvous(4 * round + 2);
                            if batches.join_or_lead(&key, member(2 * round + t))
                                == Admission::Leader
                            {
                                mine.extend(batches.take(&key).iter().map(|m| m.dest.seq));
                            }
                            // Both racers are through before the next round.
                            rendezvous(4 * round + 4);
                        }
                        mine
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().expect("racer panicked")).collect()
        });
        let mut seqs: Vec<u64> = taken.into_iter().flatten().collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..2 * ROUNDS).collect::<Vec<_>>());
    }
}
