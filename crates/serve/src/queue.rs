//! The bounded job queue and job table.
//!
//! Submission pushes into a bounded FIFO (full ⟹ typed rejection, the
//! HTTP layer's 429); a fixed pool of workers pops jobs and runs them.
//! Every job lives in a table from birth to completion so the async
//! `GET /jobs/{id}` endpoint can report `queued → running → done |
//! failed | expired` at any time, and sync callers can block on a
//! completion condvar with a deadline.
//!
//! Shutdown semantics (the graceful-drain contract): once
//! [`JobQueue::begin_shutdown`] is called, new submissions are rejected
//! with [`SubmitError::ShuttingDown`] (the HTTP layer's 503) while
//! workers keep draining — both the jobs already running *and*
//! everything still queued — before [`JobQueue::next_job`] returns
//! `None` and the pool exits.
//!
//! # Garbage collection
//!
//! Terminal jobs do **not** live in the table until shutdown (the PR 6
//! behavior — an unbounded leak under sustained traffic). Instead every
//! terminal transition stamps a retention deadline (`now + retention`),
//! and a background reaper calls [`JobQueue::sweep_expired`] to drop
//! jobs past it. Because job ids are issued sequentially,
//! [`JobQueue::lookup`] can still distinguish the two kinds of absence
//! without tombstones: an id never issued is
//! [`JobLookup::NeverExisted`] (HTTP 404), an issued id missing from
//! the table was swept ([`JobLookup::Expired`], HTTP 410).

use crate::corpus::GraphEntry;
use lmds_api::{SolutionView, SolveConfig};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What one job runs: a corpus graph under a solver + config.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The corpus entry, resolved at submission time — a re-upload of
    /// the same name mid-flight cannot swap the graph under a job.
    pub entry: Arc<GraphEntry>,
    /// Registry solver key.
    pub solver: String,
    /// The materialized solve configuration.
    pub config: SolveConfig,
    /// Give-up deadline: a job still queued past it is failed as
    /// expired instead of run.
    pub deadline: Option<Instant>,
}

/// Public job lifecycle states (wire vocabulary).
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// In the queue, not yet picked up.
    Queued,
    /// A worker is running it.
    Running,
    /// Finished successfully. Boxed: a `SolutionView` is a few hundred
    /// bytes and would otherwise dominate the size of every state.
    Done(Box<SolutionView>),
    /// The solver failed; `code` is the wire error code, `message` the
    /// human-readable reason.
    Failed {
        /// Wire error code (e.g. `"solve-error"`, `"timeout"`).
        code: &'static str,
        /// Human-readable reason.
        message: String,
    },
}

impl JobState {
    /// The wire name of this state.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed { .. } => "failed",
        }
    }

    /// Whether the job has reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done(_) | JobState::Failed { .. })
    }
}

/// A point-in-time picture of one job.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// The job id.
    pub id: u64,
    /// Graph name.
    pub graph: String,
    /// Solver key.
    pub solver: String,
    /// Current state.
    pub state: JobState,
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity (backpressure; HTTP 429).
    QueueFull {
        /// The configured capacity.
        capacity: usize,
    },
    /// The server is draining (HTTP 503).
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "job queue is at capacity ({capacity}); retry later")
            }
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// How [`JobQueue::lookup`] classifies a job id.
#[derive(Debug, Clone)]
pub enum JobLookup {
    /// The id was never issued (HTTP 404).
    NeverExisted,
    /// The id was issued, reached a terminal state, and was swept out
    /// after its retention window (HTTP 410 Gone).
    Expired,
    /// The job is still tracked.
    Found(Box<JobSnapshot>),
}

struct Job {
    /// Graph name and solver key, for snapshots and the busy-graph check.
    graph: String,
    solver: String,
    /// The spec while queued; the worker takes it on pickup, so a
    /// finished job no longer pins its graph revision for the retention
    /// window.
    spec: Option<JobSpec>,
    state: JobState,
    /// Set on the terminal transition: the instant after which the
    /// reaper may drop this job from the table.
    expire_at: Option<Instant>,
}

struct Inner {
    jobs: HashMap<u64, Job>,
    queue: VecDeque<u64>,
    next_id: u64,
    shutting_down: bool,
}

/// The bounded queue + job table. One instance per server, shared by
/// connection handlers (submit/status/wait), workers (next/complete),
/// and the reaper ([`JobQueue::sweep_expired`]).
pub struct JobQueue {
    inner: Mutex<Inner>,
    /// Signals workers that the queue or the shutdown flag changed.
    work_ready: Condvar,
    /// Broadcast on every terminal transition; sync waiters block here.
    job_done: Condvar,
    capacity: usize,
    retention: Duration,
}

impl JobQueue {
    /// A queue holding at most `capacity` not-yet-running jobs, whose
    /// terminal jobs stay pollable for `retention` before the reaper
    /// may sweep them.
    pub fn new(capacity: usize, retention: Duration) -> Self {
        JobQueue {
            inner: Mutex::new(Inner {
                jobs: HashMap::new(),
                queue: VecDeque::new(),
                next_id: 1,
                shutting_down: false,
            }),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
            capacity: capacity.max(1),
            retention,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The terminal-job retention window.
    pub fn retention(&self) -> Duration {
        self.retention
    }

    /// Current queue depth (queued, not yet running).
    pub fn depth(&self) -> usize {
        self.inner.lock().expect("queue lock").queue.len()
    }

    /// Total jobs tracked in the table, terminal ones included — the
    /// gauge the GC keeps bounded.
    pub fn jobs_tracked(&self) -> usize {
        self.inner.lock().expect("queue lock").jobs.len()
    }

    /// Drops every terminal job whose retention deadline has passed,
    /// returning how many were reaped. Queued/running jobs are never
    /// touched. Called periodically by the server's reaper thread.
    pub fn sweep_expired(&self) -> usize {
        let now = Instant::now();
        let mut inner = self.inner.lock().expect("queue lock");
        let before = inner.jobs.len();
        inner.jobs.retain(|_, job| job.expire_at.is_none_or(|t| t > now));
        before - inner.jobs.len()
    }

    /// Submits a job, returning its id.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] under backpressure,
    /// [`SubmitError::ShuttingDown`] once draining has begun.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.shutting_down {
            return Err(SubmitError::ShuttingDown);
        }
        if inner.queue.len() >= self.capacity {
            return Err(SubmitError::QueueFull { capacity: self.capacity });
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let job = Job {
            graph: spec.entry.name().to_string(),
            solver: spec.solver.clone(),
            spec: Some(spec),
            state: JobState::Queued,
            expire_at: None,
        };
        inner.jobs.insert(id, job);
        inner.queue.push_back(id);
        drop(inner);
        self.work_ready.notify_one();
        Ok(id)
    }

    /// Worker loop entry: blocks for the next runnable job, marking it
    /// running. Jobs whose deadline already passed are failed as
    /// expired (never run) and the wait continues. Returns `None` once
    /// shutdown has begun **and** the queue is fully drained.
    pub fn next_job(&self) -> Option<(u64, JobSpec)> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            while let Some(id) = inner.queue.pop_front() {
                let now = Instant::now();
                let job = inner.jobs.get_mut(&id).expect("queued job is in the table");
                let spec = job.spec.take().expect("a queued job holds its spec");
                if spec.deadline.is_some_and(|d| d < now) {
                    job.state = JobState::Failed {
                        code: "timeout",
                        message: "job expired in the queue before a worker picked it up".into(),
                    };
                    job.expire_at = Some(now + self.retention);
                    self.job_done.notify_all();
                    continue;
                }
                job.state = JobState::Running;
                return Some((id, spec));
            }
            if inner.shutting_down {
                return None;
            }
            inner = self.work_ready.wait(inner).expect("queue lock");
        }
    }

    /// Worker loop exit: records the terminal state of a running job
    /// and wakes all waiters.
    pub fn complete(&self, id: u64, state: JobState) {
        debug_assert!(state.is_terminal());
        let mut inner = self.inner.lock().expect("queue lock");
        if let Some(job) = inner.jobs.get_mut(&id) {
            job.state = state;
            job.expire_at = Some(Instant::now() + self.retention);
        }
        drop(inner);
        self.job_done.notify_all();
    }

    /// Whether any tracked job referencing the corpus graph `name` is
    /// still queued or running. `PATCH /graphs/{name}` refuses to
    /// mutate a busy graph: in-flight jobs hold an `Arc` to the old
    /// entry so they could not be corrupted, but their eventual results
    /// would describe a revision the client just replaced — rejecting
    /// with 409 keeps the update/solve interleaving explicit.
    pub fn has_active_jobs_for(&self, name: &str) -> bool {
        let inner = self.inner.lock().expect("queue lock");
        inner.jobs.values().any(|job| !job.state.is_terminal() && job.graph == name)
    }

    /// A snapshot of job `id`, if it is still tracked. Prefer
    /// [`JobQueue::lookup`] at the HTTP boundary — it also tells a
    /// never-issued id apart from a swept one.
    pub fn status(&self, id: u64) -> Option<JobSnapshot> {
        let inner = self.inner.lock().expect("queue lock");
        inner.jobs.get(&id).map(|job| JobSnapshot {
            id,
            graph: job.graph.clone(),
            solver: job.solver.clone(),
            state: job.state.clone(),
        })
    }

    /// Classifies a job id for the HTTP layer. Ids are issued
    /// sequentially, so an id at or past the high-water mark (or 0,
    /// which is never issued) was [`JobLookup::NeverExisted`]; an
    /// issued id missing from the table was reaped
    /// ([`JobLookup::Expired`]); otherwise the snapshot is returned.
    pub fn lookup(&self, id: u64) -> JobLookup {
        let inner = self.inner.lock().expect("queue lock");
        if id == 0 || id >= inner.next_id {
            return JobLookup::NeverExisted;
        }
        match inner.jobs.get(&id) {
            Some(job) => JobLookup::Found(Box::new(JobSnapshot {
                id,
                graph: job.graph.clone(),
                solver: job.solver.clone(),
                state: job.state.clone(),
            })),
            None => JobLookup::Expired,
        }
    }

    /// Blocks until job `id` reaches a terminal state or `deadline`
    /// passes; returns the latest snapshot either way (`None` only for
    /// an unknown id).
    pub fn wait(&self, id: u64, deadline: Instant) -> Option<JobSnapshot> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            let state = inner.jobs.get(&id)?.state.clone();
            if state.is_terminal() {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _timeout) = self
                .job_done
                .wait_timeout(inner, deadline.duration_since(now))
                .expect("queue lock");
            inner = guard;
        }
        drop(inner);
        self.status(id)
    }

    /// Flips the shutdown flag: new submissions are rejected, workers
    /// are woken so they can drain the queue and exit.
    pub fn begin_shutdown(&self) {
        self.inner.lock().expect("queue lock").shutting_down = true;
        self.work_ready.notify_all();
        self.job_done.notify_all();
    }

    /// Whether shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.lock().expect("queue lock").shutting_down
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmds_api::Problem;
    use lmds_graph::Graph;
    use std::time::Duration;

    fn spec(deadline: Option<Instant>) -> JobSpec {
        JobSpec {
            entry: Arc::new(GraphEntry::new("g".into(), Graph::from_edges(2, &[(0, 1)]))),
            solver: "mds/exact".into(),
            config: SolveConfig::new(Problem::MinDominatingSet),
            deadline,
        }
    }

    /// A queue whose terminal jobs never expire during the test.
    fn queue(capacity: usize) -> JobQueue {
        JobQueue::new(capacity, Duration::from_secs(3600))
    }

    #[test]
    fn fifo_order_and_backpressure() {
        let q = queue(2);
        let a = q.submit(spec(None)).unwrap();
        let b = q.submit(spec(None)).unwrap();
        assert_eq!(q.submit(spec(None)), Err(SubmitError::QueueFull { capacity: 2 }));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.next_job().unwrap().0, a);
        // Popping freed a slot.
        let c = q.submit(spec(None)).unwrap();
        assert_eq!(q.next_job().unwrap().0, b);
        assert_eq!(q.next_job().unwrap().0, c);
        assert_eq!(q.status(a).unwrap().state, JobState::Running);
    }

    #[test]
    fn complete_wakes_waiters_and_snapshots_report() {
        let q = std::sync::Arc::new(queue(4));
        let id = q.submit(spec(None)).unwrap();
        let (got, _) = q.next_job().unwrap();
        assert_eq!(got, id);
        let waiter = {
            let q = q.clone();
            std::thread::spawn(move || q.wait(id, Instant::now() + Duration::from_secs(5)))
        };
        std::thread::sleep(Duration::from_millis(10));
        q.complete(id, JobState::Failed { code: "solve-error", message: "nope".into() });
        let snap = waiter.join().unwrap().unwrap();
        assert_eq!(snap.state.name(), "failed");
        assert_eq!(snap.solver, "mds/exact");
    }

    #[test]
    fn tracked_jobs_release_their_graph_once_picked_up() {
        // A terminal job stays pollable for the retention window; it must
        // not pin its graph revision that long (a PATCH replaces the
        // corpus entry, and the old revision should be freed).
        let q = queue(4);
        let job = spec(None);
        let entry = Arc::clone(&job.entry);
        let id = q.submit(job).unwrap();
        assert_eq!(Arc::strong_count(&entry), 2, "the queued job holds the entry");
        let (_, running) = q.next_job().unwrap();
        assert!(q.has_active_jobs_for("g"), "the running job still counts as busy");
        drop(running);
        q.complete(id, JobState::Failed { code: "solve-error", message: "nope".into() });
        assert_eq!(Arc::strong_count(&entry), 1, "the finished job released the entry");
        let snap = q.status(id).unwrap();
        assert_eq!((snap.graph.as_str(), snap.solver.as_str()), ("g", "mds/exact"));
        assert!(!q.has_active_jobs_for("g"));
    }

    #[test]
    fn wait_times_out_on_a_slow_job() {
        let q = queue(4);
        let id = q.submit(spec(None)).unwrap();
        let snap = q.wait(id, Instant::now() + Duration::from_millis(30)).unwrap();
        assert_eq!(snap.state, JobState::Queued, "deadline passed with the job still queued");
        assert!(q.wait(999, Instant::now()).is_none(), "unknown id");
    }

    #[test]
    fn expired_jobs_are_failed_not_run() {
        let q = queue(4);
        let dead = q.submit(spec(Some(Instant::now() - Duration::from_millis(1)))).unwrap();
        let live = q.submit(spec(None)).unwrap();
        // The worker skips the expired job and hands out the live one.
        let (got, _) = q.next_job().unwrap();
        assert_eq!(got, live);
        let snap = q.status(dead).unwrap();
        assert!(matches!(snap.state, JobState::Failed { code: "timeout", .. }), "{:?}", snap.state);
    }

    #[test]
    fn active_job_scan_tracks_the_graph_through_its_lifecycle() {
        let q = queue(4);
        assert!(!q.has_active_jobs_for("g"), "empty queue, nothing active");
        let id = q.submit(spec(None)).unwrap();
        assert!(q.has_active_jobs_for("g"), "queued counts as active");
        assert!(!q.has_active_jobs_for("other"), "name must match");
        let (got, _) = q.next_job().unwrap();
        assert_eq!(got, id);
        assert!(q.has_active_jobs_for("g"), "running counts as active");
        q.complete(id, JobState::Done(Box::new(dummy_solution())));
        assert!(!q.has_active_jobs_for("g"), "terminal jobs do not block a patch");
    }

    #[test]
    fn shutdown_rejects_new_work_but_drains_queued_jobs() {
        let q = queue(4);
        let id = q.submit(spec(None)).unwrap();
        q.begin_shutdown();
        assert_eq!(q.submit(spec(None)), Err(SubmitError::ShuttingDown));
        // The queued job is still handed out (drain), then None.
        assert_eq!(q.next_job().unwrap().0, id);
        assert!(q.next_job().is_none());
        assert!(q.is_shutting_down());
    }

    #[test]
    fn sweep_reaps_only_terminal_jobs_past_retention() {
        let q = JobQueue::new(4, Duration::from_millis(20));
        let done = q.submit(spec(None)).unwrap();
        let queued = q.submit(spec(None)).unwrap();
        let (id, _) = q.next_job().unwrap();
        assert_eq!(id, done);
        q.complete(done, JobState::Done(Box::new(dummy_solution())));
        // Inside the retention window nothing is reaped.
        assert_eq!(q.sweep_expired(), 0);
        assert_eq!(q.jobs_tracked(), 2);
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(q.sweep_expired(), 1, "the terminal job is reaped after retention");
        assert_eq!(q.jobs_tracked(), 1, "the queued job is untouched");
        assert!(matches!(q.lookup(queued), JobLookup::Found(_)));
    }

    #[test]
    fn lookup_tells_never_issued_from_swept() {
        let q = JobQueue::new(4, Duration::ZERO);
        assert!(matches!(q.lookup(0), JobLookup::NeverExisted));
        assert!(matches!(q.lookup(1), JobLookup::NeverExisted), "no job issued yet");
        let id = q.submit(spec(None)).unwrap();
        assert!(matches!(q.lookup(id), JobLookup::Found(_)));
        assert!(matches!(q.lookup(id + 1), JobLookup::NeverExisted));
        let (got, _) = q.next_job().unwrap();
        q.complete(got, JobState::Failed { code: "solve-error", message: "nope".into() });
        // Zero retention: the very next sweep drops it.
        assert_eq!(q.sweep_expired(), 1);
        assert!(matches!(q.lookup(id), JobLookup::Expired), "issued then swept is Gone, not 404");
        assert!(q.status(id).is_none());
    }

    #[test]
    fn queue_expiry_also_stamps_a_retention_deadline() {
        let q = JobQueue::new(4, Duration::ZERO);
        let dead = q.submit(spec(Some(Instant::now() - Duration::from_millis(1)))).unwrap();
        let live = q.submit(spec(None)).unwrap();
        assert_eq!(q.next_job().unwrap().0, live, "the dead job is skipped");
        assert!(matches!(q.lookup(dead), JobLookup::Found(_)), "still pollable before the sweep");
        assert_eq!(q.sweep_expired(), 1, "queue-expired jobs are reapable too");
        assert!(matches!(q.lookup(dead), JobLookup::Expired));
    }

    fn dummy_solution() -> SolutionView {
        SolutionView {
            solver: "mds/exact".into(),
            problem: "mds".into(),
            mode: "centralized".into(),
            size: 1,
            vertices: vec![0],
            valid: true,
            rounds: None,
            total_message_bits: None,
            max_message_bits: None,
            wall_micros: 7,
            ratio: None,
            optimum: None,
            fault_messages_dropped: None,
            fault_crashed: None,
            fault_silent: None,
            fault_max_staleness: None,
        }
    }
}
