//! Deterministic worker fan-out for the round engine: a persistent
//! pool plus scoped-thread utilities.
//!
//! Built entirely on `std` — threads, mutexes, and condvars; no
//! external threadpool. Two properties make parallel training
//! bit-identical to serial:
//!
//! 1. **Work items are thread-invariant.** Every item's result is a
//!    pure function of the item and the broadcast inputs; the
//!    per-worker scratch ([`ClientTrainer`]) is fully overwritten
//!    before use, so which worker runs an item (and in what order)
//!    cannot change its result.
//! 2. **Reduction order is fixed.** Results are collected into
//!    index-addressed slots and reduced in item order on the calling
//!    thread, never in completion order.
//!
//! The round engine's fan-out is the **persistent pool**
//! ([`with_trainer_pool`]): the calling thread is worker 0, and the
//! other workers are threads spawned once per run and parked on a
//! condvar between jobs, so the thousands of train/eval dispatches of
//! a full simulation cost two mutex hops each instead of an OS thread
//! spawn. This module's tests keep
//! scoped-thread one-shot fan-outs as the reference the pool is
//! checked against; they are not part of the public API.
//!
//! The worker count comes from [`worker_threads`]: an explicit config
//! value, else the `HELCFL_THREADS` environment variable, else
//! [`std::thread::available_parallelism`].

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use detrand::Rng;
use helcfl_telemetry::{Class, MetricsRegistry, Telemetry};

use crate::client::{Client, ClientTrainer, LocalUpdateSpec, EVAL_CHUNK_ROWS};
use crate::dataset::LabeledSet;
use crate::error::{FlError, Result};

/// Parses a `HELCFL_THREADS` value: a positive integer (surrounding
/// whitespace tolerated) or nothing. `0`, non-numeric text, and
/// blank/whitespace-only values all yield `None` — the engine falls
/// back to detected parallelism instead of panicking or spawning a
/// zero-worker pool.
fn threads_from_env(value: &str) -> Option<usize> {
    match value.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => None,
    }
}

/// Resolves the worker-thread count for a round engine.
///
/// Precedence: a non-zero `requested` value (from
/// [`crate::runner::TrainingConfig::threads`]) wins; otherwise a
/// positive integer in the `HELCFL_THREADS` environment variable (see
/// `threads_from_env` for the accepted forms); otherwise the
/// machine's available parallelism (1 if unknown).
pub fn worker_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Some(n) = std::env::var("HELCFL_THREADS").ok().as_deref().and_then(threads_from_env) {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The width of a pool asked for `workers` over `clients` clients and
/// an `eval_rows`-row evaluation set: at most the largest job it can be
/// given — one item per client, or one per [`EVAL_CHUNK_ROWS`]-row
/// evaluation chunk — since a wider pool's extra workers would never
/// receive an item. At least 1.
pub fn pool_width(workers: usize, clients: usize, eval_rows: usize) -> usize {
    workers.min(clients.max(eval_rows.div_ceil(EVAL_CHUNK_ROWS))).max(1)
}

fn record_item(
    local: &mut MetricsRegistry,
    label: &str,
    wid: usize,
    took: std::time::Duration,
) {
    let ns = took.as_nanos() as u64;
    local.counter_add(Class::Runtime, &format!("{label}.worker{wid}.items"), 1);
    local.counter_add(Class::Runtime, &format!("{label}.worker{wid}.busy_ns"), ns);
    local.record(Class::Runtime, &format!("{label}.item_us"), took.as_secs_f64() * 1e6);
}

/// Derives per-worker idle time (scope wall-clock minus busy time) —
/// runnable only after every worker's busy counter is merged.
fn record_idle(
    merged: &mut MetricsRegistry,
    label: &str,
    workers: usize,
    wall: std::time::Duration,
) {
    let wall_ns = wall.as_nanos() as u64;
    for wid in 0..workers {
        let busy = merged.counter(&format!("{label}.worker{wid}.busy_ns"));
        merged.counter_add(
            Class::Runtime,
            &format!("{label}.worker{wid}.idle_ns"),
            wall_ns.saturating_sub(busy),
        );
    }
}

/// Locks a pool mutex, ignoring poisoning: a panicked worker leaves
/// consistent state behind (slot writes are all-or-nothing per job),
/// and the caller turns the missing slot into its own panic — on
/// the calling thread, with a clear message — rather than dying on a
/// `PoisonError`.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One broadcast unit of pool work. Jobs own their inputs (broadcast
/// parameters, item lists) so the shared state carries no borrows; the
/// per-item closure logic lives in [`run_item`], keyed by variant.
enum Job {
    /// One round's local updates: item `j` trains
    /// `clients[client_indices[j]]` from `global` with the per-client
    /// RNG stream keyed by `(round, client id)` — exactly the closure
    /// the scoped-thread engine ran.
    Train {
        round: usize,
        train_seed: u64,
        spec: LocalUpdateSpec,
        global: Vec<f32>,
        client_indices: Vec<usize>,
        label: String,
        traced: bool,
    },
    /// Whole-eval-set scoring of a parameter vector: item `c` counts
    /// the correct predictions in the fixed [`EVAL_CHUNK_ROWS`]-row
    /// block `c` of the eval set. Each worker loads `params` once per
    /// job ([`load_job`]), not once per block.
    Eval { params: Vec<f32>, set_len: usize },
}

impl Job {
    fn num_items(&self) -> usize {
        match self {
            Job::Train { client_indices, .. } => client_indices.len(),
            Job::Eval { set_len, .. } => set_len.div_ceil(EVAL_CHUNK_ROWS),
        }
    }
}

/// A completed item's payload, matching the [`Job`] variant.
enum JobOut {
    /// `(updated parameters, aggregation weight |D_q|, pre-step loss)`.
    Train(Vec<f32>, f64, f32),
    /// Correct predictions in the block.
    Eval(usize),
}

/// Prepares a worker's trainer for `job` before its items run: an
/// eval job's parameters are loaded once, and every block of the
/// worker's stride is then scored against them. Train items load their
/// own starting parameters.
fn load_job(job: &Job, trainer: &mut ClientTrainer) -> Result<()> {
    match job {
        Job::Eval { params, .. } => trainer.load_parameters(params),
        Job::Train { .. } => Ok(()),
    }
}

/// Runs one item of `job` on a trainer that [`load_job`] has
/// prepared.
fn run_item(
    job: &Job,
    item: usize,
    trainer: &mut ClientTrainer,
    clients: &[Client],
    eval_set: &LabeledSet,
) -> Result<JobOut> {
    match job {
        Job::Train { round, train_seed, spec, global, client_indices, .. } => {
            let client = &clients[client_indices[item]];
            let mut rng =
                Rng::stream(*train_seed, ((*round as u64) << 32) | client.id().0 as u64);
            let (params, loss) = trainer.local_update(client, global, spec, &mut rng)?;
            Ok(JobOut::Train(params, client.num_samples() as f64, loss))
        }
        Job::Eval { set_len, .. } => {
            let start = item * EVAL_CHUNK_ROWS;
            let len = EVAL_CHUNK_ROWS.min(set_len - start);
            Ok(JobOut::Eval(trainer.count_correct_rows(eval_set, start, len)?))
        }
    }
}

/// Runs worker `wid`'s `(wid..n).step_by(eff)` stride of `job` on
/// `trainer`, in item order, then batch-writes the stride's slots — and,
/// for a traced train job, the worker's metric lane with each item's
/// wall time — into `shared`. The caller runs stride 0; spawned workers
/// run the rest.
fn run_stride(
    job: &Job,
    wid: usize,
    eff: usize,
    trainer: &mut ClientTrainer,
    shared: &PoolShared,
    clients: &[Client],
    eval_set: &LabeledSet,
) {
    let (label, traced) = match job {
        Job::Train { label, traced, .. } => (label.as_str(), *traced),
        Job::Eval { .. } => ("", false),
    };
    let mut local = traced.then(MetricsRegistry::new);
    let loaded = load_job(job, trainer);
    let produced: Vec<_> = (wid..job.num_items())
        .step_by(eff)
        .map(|item| {
            let started = Instant::now();
            let out =
                loaded.clone().and_then(|()| run_item(job, item, trainer, clients, eval_set));
            if let Some(metrics) = local.as_mut() {
                record_item(metrics, label, wid, started.elapsed());
            }
            (item, out)
        })
        .collect();
    {
        let mut slots = lock(&shared.slots);
        for (item, out) in produced {
            slots[item] = Some(out);
        }
    }
    if let Some(metrics) = local {
        lock(&shared.metrics)[wid] = Some(metrics);
    }
}

/// Caller ⇄ worker handshake state, guarded by one mutex.
struct PoolState {
    /// Bumped per dispatch; a worker acts once per epoch it observes.
    epoch: u64,
    /// The job of the current epoch (stale between dispatches).
    job: Option<Arc<Job>>,
    /// Participating spawned workers that have not finished the
    /// current job.
    remaining: usize,
    /// Set once at scope exit; workers return when they observe it.
    shutdown: bool,
}

/// Everything a pool's threads share. Created on the caller's stack
/// *before* the thread scope, so worker closures can borrow it for the
/// scope's whole lifetime.
struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The caller parks here until `remaining` hits zero.
    done_cv: Condvar,
    /// Index-addressed results of the current job; every worker
    /// batch-writes its stride's slots once per job.
    slots: Mutex<Vec<Option<Result<JobOut>>>>,
    /// Per-worker metric registries of the current traced job, merged
    /// by the caller in worker-index order.
    metrics: Mutex<Vec<Option<MetricsRegistry>>>,
}

/// Decrements `remaining` and wakes the caller — on a `Drop` so a
/// panicking worker still signals completion (its slots stay `None`,
/// which the caller reports as a worker panic) instead of leaving the
/// caller parked forever.
struct DoneGuard<'p> {
    shared: &'p PoolShared,
}

impl Drop for DoneGuard<'_> {
    fn drop(&mut self) {
        let mut state = lock(&self.shared.state);
        state.remaining -= 1;
        if state.remaining == 0 {
            self.shared.done_cv.notify_all();
        }
    }
}

/// Sets `shutdown` and wakes every worker — on a `Drop` at the end of
/// the [`with_trainer_pool`] scope closure, so the scope's implicit
/// join completes even when the body panics or returns early.
struct ShutdownGuard<'p> {
    shared: &'p PoolShared,
}

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        let mut state = lock(&self.shared.state);
        state.shutdown = true;
        self.shared.work_cv.notify_all();
    }
}

/// A spawned pool worker (`wid ≥ 1`): parks on `work_cv`, and for each
/// observed epoch runs its stride of the job ([`run_stride`]). Workers
/// beyond the job's effective width sit the epoch out.
fn worker_loop(
    wid: usize,
    workers: usize,
    mut trainer: ClientTrainer,
    shared: &PoolShared,
    clients: &[Client],
    eval_set: &LabeledSet,
) {
    let mut last_epoch = 0u64;
    loop {
        let job: Arc<Job> = {
            let mut state = lock(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != last_epoch {
                    if let Some(job) = &state.job {
                        last_epoch = state.epoch;
                        break Arc::clone(job);
                    }
                }
                state = shared.work_cv.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let eff = workers.min(job.num_items());
        if wid >= eff {
            continue; // `remaining` only counts participants
        }
        let _done = DoneGuard { shared };
        run_stride(&job, wid, eff, &mut trainer, shared, clients, eval_set);
    }
}

/// A persistent, run-scoped training/evaluation pool.
///
/// Created by [`with_trainer_pool`]; lives for one `run_federated`
/// call and serves every round's train fan-out **and** eval fan-out.
/// The calling thread is worker 0: a pool `w` wide spawns `w − 1`
/// threads once, and every job runs stride 0 on the caller while the
/// parked workers run the others. One dispatch path serves every width
/// — a width-1 pool publishes each job to no one and runs it whole on
/// the caller. Dispatch keeps the fan-out contract — strided item
/// assignment, item-order reduction, lowest-indexed-error-wins — so
/// histories, Sim-class metric registries, and the per-worker Runtime
/// telemetry (the caller is lane 0) do not depend on the width; the
/// `pool.spawn_amortized` Runtime counter adds the `eff − 1` thread
/// spawns each job of effective width `eff` would have cost a one-shot
/// fan-out.
pub struct TrainerPool<'p> {
    clients: &'p [Client],
    eval_set: &'p LabeledSet,
    workers: usize,
    /// Worker 0's trainer, run on the calling thread.
    trainer: ClientTrainer,
    shared: &'p PoolShared,
}

impl TrainerPool<'_> {
    /// Total workers of this pool, the calling thread included.
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Publishes `job` to spawned workers `1..eff`, runs stride 0 on
    /// the calling thread, parks until the others finish, and returns
    /// the filled slot vector.
    fn dispatch(&mut self, job: Job, eff: usize, tele: &Telemetry) -> Vec<Option<Result<JobOut>>> {
        let Self { clients, eval_set, trainer, shared, .. } = self;
        let job = Arc::new(job);
        {
            let mut slots = lock(&shared.slots);
            slots.clear();
            slots.resize_with(job.num_items(), || None);
        }
        {
            let mut state = lock(&shared.state);
            state.job = Some(Arc::clone(&job));
            state.epoch += 1;
            state.remaining = eff - 1;
            shared.work_cv.notify_all();
        }
        run_stride(&job, 0, eff, trainer, shared, clients, eval_set);
        let mut state = lock(&shared.state);
        while state.remaining > 0 {
            state = shared.done_cv.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        drop(state);
        tele.with_metrics(|m| {
            m.counter_add(Class::Runtime, "pool.spawn_amortized", (eff - 1) as u64);
        });
        std::mem::take(&mut *lock(&shared.slots))
    }

    /// Runs one round's local updates: item `j` trains
    /// `clients[client_indices[j]]` from `global`, seeded by
    /// `(train_seed, round, client id)`, returning
    /// `(params, weight, loss)` triples in item order.
    ///
    /// Telemetry, all [`Class::Runtime`]: under `label`, per-worker
    /// `items`/`busy_ns`/`idle_ns` counters, an `item_us` histogram,
    /// and a `workers` gauge (effective width) — plus
    /// `pool.spawn_amortized`.
    ///
    /// # Errors
    ///
    /// If items fail, returns the error of the lowest-indexed failing
    /// item (deterministic regardless of completion order).
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked while training.
    #[allow(clippy::too_many_arguments)]
    pub fn train(
        &mut self,
        round: usize,
        train_seed: u64,
        spec: &LocalUpdateSpec,
        global: &[f32],
        client_indices: &[usize],
        tele: &Telemetry,
        label: &str,
    ) -> Result<Vec<(Vec<f32>, f64, f32)>> {
        let num_items = client_indices.len();
        if num_items == 0 {
            return Ok(Vec::new());
        }
        let traced = tele.is_enabled();
        let eff = self.workers.min(num_items);
        if traced {
            tele.gauge_set(Class::Runtime, &format!("{label}.workers"), eff as f64);
            for slot in lock(&self.shared.metrics).iter_mut() {
                *slot = None;
            }
        }
        let job = Job::Train {
            round,
            train_seed,
            spec: *spec,
            global: global.to_vec(),
            client_indices: client_indices.to_vec(),
            label: label.to_string(),
            traced,
        };
        let wall_start = Instant::now();
        let slots = self.dispatch(job, eff, tele);
        if traced {
            let mut merged = MetricsRegistry::new();
            for slot in lock(&self.shared.metrics).iter_mut().take(eff) {
                if let Some(metrics) = slot.take() {
                    merged.merge_from(&metrics);
                }
            }
            record_idle(&mut merged, label, eff, wall_start.elapsed());
            tele.merge_registry(&merged);
        }
        let mut results = Vec::with_capacity(num_items);
        for slot in slots {
            match slot.expect("pool worker panicked")? {
                JobOut::Train(params, weight, loss) => results.push((params, weight, loss)),
                JobOut::Eval(..) => unreachable!("train job yielded eval output"),
            }
        }
        Ok(results)
    }

    /// Evaluates a parameter vector on the run's eval set, returning
    /// `(correct predictions, accuracy)`. Each worker loads `params`
    /// once and counts its stride of fixed [`EVAL_CHUNK_ROWS`]-row
    /// blocks in place; the counts are integers, so their sum — and
    /// the accuracy — is the same for every worker count.
    ///
    /// # Errors
    ///
    /// Propagates shape errors and rejects an empty set.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked while evaluating.
    pub fn evaluate(&mut self, params: &[f32], tele: &Telemetry) -> Result<(usize, f64)> {
        let n = self.eval_set.len();
        if n == 0 {
            return Err(FlError::InvalidConfig {
                field: "eval_set",
                reason: "cannot evaluate on an empty set".into(),
            });
        }
        let eff = self.workers.min(n.div_ceil(EVAL_CHUNK_ROWS));
        let job = Job::Eval { params: params.to_vec(), set_len: n };
        let mut correct = 0;
        for slot in self.dispatch(job, eff, tele) {
            match slot.expect("pool worker panicked")? {
                JobOut::Eval(hits) => correct += hits,
                JobOut::Train(..) => unreachable!("eval job yielded train output"),
            }
        }
        Ok((correct, correct as f64 / n as f64))
    }
}

/// Creates a persistent [`TrainerPool`] over `clients`/`eval_set` and
/// runs `body` with it. The pool is [`pool_width`] workers wide, each
/// owning one [`ClientTrainer`]: the calling thread is worker 0, and
/// the other workers are threads spawned once, parked between jobs,
/// and joined when `body` returns — the pool lifecycle is exactly the
/// `body` call.
///
/// # Errors
///
/// Propagates trainer-construction errors and whatever `body` returns.
pub fn with_trainer_pool<R>(
    workers: usize,
    model_dims: &[usize],
    clients: &[Client],
    eval_set: &LabeledSet,
    body: impl FnOnce(&mut TrainerPool<'_>) -> Result<R>,
) -> Result<R> {
    let workers = pool_width(workers, clients.len(), eval_set.len());
    let trainer = ClientTrainer::new(model_dims)?;
    let mut spawned = Vec::with_capacity(workers - 1);
    for _ in 1..workers {
        spawned.push(ClientTrainer::new(model_dims)?);
    }
    // Shared state lives on this frame — *outside* the thread scope —
    // so the worker closures can borrow it for the scope's lifetime.
    let shared = PoolShared {
        state: Mutex::new(PoolState { epoch: 0, job: None, remaining: 0, shutdown: false }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
        slots: Mutex::new(Vec::new()),
        metrics: Mutex::new((0..workers).map(|_| None).collect()),
    };
    std::thread::scope(|scope| {
        let shared = &shared;
        for (wid, trainer) in (1..).zip(spawned) {
            scope.spawn(move || worker_loop(wid, workers, trainer, shared, clients, eval_set));
        }
        let _shutdown = ShutdownGuard { shared };
        let mut pool = TrainerPool { clients, eval_set, workers, trainer, shared };
        body(&mut pool)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetConfig, SyntheticTask};
    use std::sync::mpsc;
    use tinynn::model::{Mlp, TrainScratch};

    /// Accuracy on `set` from one `count_correct_rows` call over every
    /// row: the unchunked, unpooled reference.
    fn whole_set_accuracy(model: &Mlp, set: &LabeledSet) -> f64 {
        let mut scratch = TrainScratch::for_model(model).unwrap();
        let (x, labels) = (set.features(), set.labels());
        let correct = model.count_correct_rows(x, 0, x.rows(), labels, &mut scratch).unwrap();
        correct as f64 / x.rows() as f64
    }

    /// Maps `f` over `0..num_items`, fanning the indices out over one
    /// worker per `pool` slot (strided assignment) and returning the
    /// results in index order. Each worker exclusively owns one `&mut S`
    /// scratch slot for its whole stride; with a single slot (or a single
    /// item) everything runs on the calling thread.
    ///
    /// # Errors
    ///
    /// If any items fail, returns the error of the lowest-indexed failing
    /// item (deterministic regardless of completion order).
    ///
    /// # Panics
    ///
    /// Panics if `pool` is empty.
    fn parallel_map_pooled<S, R, F>(pool: &mut [S], num_items: usize, f: F) -> Result<Vec<R>>
    where
        S: Send,
        R: Send,
        F: Fn(&mut S, usize) -> Result<R> + Sync,
    {
        assert!(!pool.is_empty(), "worker pool must have at least one scratch slot");
        if num_items == 0 {
            return Ok(Vec::new());
        }
        let workers = pool.len().min(num_items);
        if workers == 1 {
            let state = &mut pool[0];
            return (0..num_items).map(|i| f(state, i)).collect();
        }
        let mut slots: Vec<Option<Result<R>>> = Vec::with_capacity(num_items);
        slots.resize_with(num_items, || None);
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            for (wid, state) in pool.iter_mut().take(workers).enumerate() {
                let tx = tx.clone();
                let f = &f;
                scope.spawn(move || {
                    for i in (wid..num_items).step_by(workers) {
                        let out = f(state, i);
                        if tx.send((i, out)).is_err() {
                            return;
                        }
                    }
                });
            }
            drop(tx);
            for (i, out) in rx {
                slots[i] = Some(out);
            }
        });
        let mut results = Vec::with_capacity(num_items);
        for slot in slots {
            results.push(slot.expect("every index is assigned to exactly one worker")?);
        }
        Ok(results)
    }

    /// [`parallel_map_pooled`] with per-worker utilization telemetry.
    ///
    /// With a disabled handle this delegates straight to the untraced
    /// fan-out (zero overhead). Otherwise each worker accumulates its own
    /// [`MetricsRegistry`] — no shared lock on the hot path — and the
    /// calling thread merges them **in worker-index order** after the
    /// scope closes, so the merged registry is a pure function of the item
    /// partition. All pool metrics are [`Class::Runtime`] (they measure
    /// wall clocks), so they never enter determinism comparisons. Names,
    /// under the given `label`:
    ///
    /// * `{label}.worker{w}.items` / `.busy_ns` / `.idle_ns` (counters) —
    ///   per-worker load split; idle is wall time minus busy time;
    /// * `{label}.item_us` (histogram) — per-item latency across all
    ///   workers;
    /// * `{label}.workers` (gauge) — resolved fan-out width this call.
    ///
    /// # Errors
    ///
    /// Same conditions as [`parallel_map_pooled`].
    ///
    /// # Panics
    ///
    /// Panics if `pool` is empty.
    fn parallel_map_pooled_traced<S, R, F>(
        pool: &mut [S],
        num_items: usize,
        f: F,
        tele: &Telemetry,
        label: &str,
    ) -> Result<Vec<R>>
    where
        S: Send,
        R: Send,
        F: Fn(&mut S, usize) -> Result<R> + Sync,
    {
        if !tele.is_enabled() {
            return parallel_map_pooled(pool, num_items, f);
        }
        assert!(!pool.is_empty(), "worker pool must have at least one scratch slot");
        if num_items == 0 {
            return Ok(Vec::new());
        }
        let workers = pool.len().min(num_items);
        tele.gauge_set(Class::Runtime, &format!("{label}.workers"), workers as f64);
        let wall_start = Instant::now();
        if workers == 1 {
            let mut local = MetricsRegistry::new();
            let state = &mut pool[0];
            let results: Result<Vec<R>> = (0..num_items)
                .map(|i| {
                    let t0 = Instant::now();
                    let out = f(state, i);
                    record_item(&mut local, label, 0, t0.elapsed());
                    out
                })
                .collect();
            record_idle(&mut local, label, 1, wall_start.elapsed());
            tele.merge_registry(&local);
            return results;
        }
        let mut slots: Vec<Option<Result<R>>> = Vec::with_capacity(num_items);
        slots.resize_with(num_items, || None);
        let mut worker_metrics: Vec<MetricsRegistry> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            let mut handles = Vec::with_capacity(workers);
            for (wid, state) in pool.iter_mut().take(workers).enumerate() {
                let tx = tx.clone();
                let f = &f;
                handles.push(scope.spawn(move || {
                    let mut local = MetricsRegistry::new();
                    for i in (wid..num_items).step_by(workers) {
                        let t0 = Instant::now();
                        let out = f(state, i);
                        record_item(&mut local, label, wid, t0.elapsed());
                        if tx.send((i, out)).is_err() {
                            break;
                        }
                    }
                    local
                }));
            }
            drop(tx);
            for (i, out) in rx {
                slots[i] = Some(out);
            }
            // Join in spawn (worker-index) order: the merge sequence —
            // and therefore the merged registry — is fixed.
            for handle in handles {
                worker_metrics.push(handle.join().expect("worker panicked"));
            }
        });
        let wall = wall_start.elapsed();
        let mut merged = MetricsRegistry::new();
        for local in &worker_metrics {
            merged.merge_from(local);
        }
        record_idle(&mut merged, label, workers, wall);
        tele.merge_registry(&merged);
        let mut results = Vec::with_capacity(num_items);
        for slot in slots {
            results.push(slot.expect("every index is assigned to exactly one worker")?);
        }
        Ok(results)
    }

    /// Scoped-thread reference for [`TrainerPool::evaluate`]: counts the
    /// correct predictions of `model` on `set` block by block across
    /// `pool`, loading the parameters for every block, and sums the
    /// counts in block order.
    fn evaluate_chunked(
        model: &Mlp,
        set: &LabeledSet,
        pool: &mut [ClientTrainer],
    ) -> Result<(usize, f64)> {
        let n = set.len();
        let params = model.parameters();
        let counts = parallel_map_pooled(pool, n.div_ceil(EVAL_CHUNK_ROWS), |trainer, c| {
            let start = c * EVAL_CHUNK_ROWS;
            trainer.load_parameters(&params)?;
            trainer.count_correct_rows(set, start, EVAL_CHUNK_ROWS.min(n - start))
        })?;
        let correct: usize = counts.into_iter().sum();
        Ok((correct, correct as f64 / n as f64))
    }

    #[test]
    fn explicit_thread_request_wins() {
        assert_eq!(worker_threads(3), 3);
        assert_eq!(worker_threads(1), 1);
        assert!(worker_threads(0) >= 1);
    }

    #[test]
    fn pooled_map_preserves_index_order() {
        let mut pool = vec![0usize; 4];
        let out = parallel_map_pooled(&mut pool, 37, |hits, i| {
            *hits += 1;
            Ok(i * 10)
        })
        .unwrap();
        assert_eq!(out, (0..37).map(|i| i * 10).collect::<Vec<_>>());
        // Every item ran exactly once, spread over the pool.
        assert_eq!(pool.iter().sum::<usize>(), 37);
        assert!(pool.iter().all(|&h| h > 0));
    }

    #[test]
    fn pooled_map_matches_single_worker() {
        let mut one = vec![(); 1];
        let mut many = vec![(); 5];
        let f = |_: &mut (), i: usize| Ok(i * i + 1);
        let serial = parallel_map_pooled(&mut one, 23, f).unwrap();
        let parallel = parallel_map_pooled(&mut many, 23, f).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn lowest_indexed_error_wins() {
        let mut pool = vec![(); 3];
        let err = parallel_map_pooled::<_, usize, _>(&mut pool, 20, |_, i| {
            if i == 7 || i == 13 {
                Err(FlError::InvalidConfig { field: "item", reason: format!("{i}") })
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        match err {
            FlError::InvalidConfig { reason, .. } => assert_eq!(reason, "7"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn traced_map_matches_untraced_and_records_worker_metrics() {
        let f = |_: &mut (), i: usize| Ok(i * 3);
        let mut plain_pool = vec![(); 3];
        let plain = parallel_map_pooled(&mut plain_pool, 17, f).unwrap();

        // Disabled handle: pure pass-through.
        let mut pool = vec![(); 3];
        let disabled = Telemetry::disabled();
        let out =
            parallel_map_pooled_traced(&mut pool, 17, f, &disabled, "pool").unwrap();
        assert_eq!(out, plain);
        assert!(disabled.snapshot().is_empty());

        // Enabled handle: same results, plus per-worker accounting.
        let tele = Telemetry::metrics_only();
        let out = parallel_map_pooled_traced(&mut pool, 17, f, &tele, "pool").unwrap();
        assert_eq!(out, plain);
        let snap = tele.snapshot();
        let items: u64 =
            (0..3).map(|w| snap.counter(&format!("pool.worker{w}.items"))).sum();
        assert_eq!(items, 17);
        assert_eq!(snap.histogram("pool.item_us").unwrap().count, 17);
        assert!(snap.counter("pool.worker0.idle_ns") < u64::MAX);
        // Pool metrics are runtime-class: the deterministic view is empty.
        assert!(snap.deterministic().is_empty());
    }

    #[test]
    fn traced_map_single_worker_records_one_lane() {
        let tele = Telemetry::metrics_only();
        let mut pool = vec![(); 1];
        let out =
            parallel_map_pooled_traced(&mut pool, 5, |_, i| Ok(i), &tele, "p").unwrap();
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        let snap = tele.snapshot();
        assert_eq!(snap.counter("p.worker0.items"), 5);
        assert_eq!(snap.histogram("p.item_us").unwrap().count, 5);
    }

    #[test]
    fn zero_items_yield_empty_results() {
        let mut pool = vec![(); 2];
        let out = parallel_map_pooled::<_, usize, _>(&mut pool, 0, |_, i| Ok(i)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn chunked_evaluation_is_pool_size_invariant() {
        let task = SyntheticTask::generate(DatasetConfig {
            num_classes: 4,
            feature_dim: 6,
            train_samples: 40,
            // More test rows than one chunk so several blocks exist.
            test_samples: 700,
            seed: 5,
            ..DatasetConfig::default()
        })
        .unwrap();
        let model = Mlp::new(&[6, 8, 4], 11).unwrap();
        let dims = [6, 8, 4];
        let mut pool1 = vec![ClientTrainer::new(&dims).unwrap()];
        let mut pool4: Vec<_> =
            (0..4).map(|_| ClientTrainer::new(&dims).unwrap()).collect();
        let serial = evaluate_chunked(&model, task.test(), &mut pool1).unwrap();
        let parallel = evaluate_chunked(&model, task.test(), &mut pool4).unwrap();
        assert_eq!(serial, parallel);
        // And both agree with one whole-set count.
        assert_eq!(serial.1.to_bits(), whole_set_accuracy(&model, task.test()).to_bits());
    }

    #[test]
    fn env_value_parsing_is_strict() {
        assert_eq!(threads_from_env("8"), Some(8));
        assert_eq!(threads_from_env(" 4 "), Some(4));
        assert_eq!(threads_from_env("0"), None);
        assert_eq!(threads_from_env(" 0 "), None);
        assert_eq!(threads_from_env("abc"), None);
        assert_eq!(threads_from_env("3 threads"), None);
        assert_eq!(threads_from_env("-2"), None);
        assert_eq!(threads_from_env("2.5"), None);
        assert_eq!(threads_from_env(""), None);
        assert_eq!(threads_from_env("   "), None);
    }

    #[test]
    fn env_variable_feeds_auto_detection() {
        // One test owns all `HELCFL_THREADS` mutation: the environment
        // is process-global, so splitting these cases across tests
        // would race. A concurrently running `worker_threads(0)` in
        // another test stays correct for every value set here (all
        // resolutions are >= 1).
        std::env::set_var("HELCFL_THREADS", "6");
        assert_eq!(worker_threads(0), 6);
        // Explicit request still wins over the environment.
        assert_eq!(worker_threads(2), 2);
        // Invalid values fall back to detected parallelism.
        for bad in ["0", "abc", "   ", ""] {
            std::env::set_var("HELCFL_THREADS", bad);
            assert!(worker_threads(0) >= 1, "fallback failed for {bad:?}");
        }
        std::env::remove_var("HELCFL_THREADS");
        assert!(worker_threads(0) >= 1);
    }

    /// Fixture for the persistent-pool tests: a small task, its
    /// clients, a trained-from global parameter vector, and a
    /// minibatch spec.
    fn pool_fixture() -> (SyntheticTask, Vec<Client>, Vec<f32>, LocalUpdateSpec) {
        let task = SyntheticTask::generate(DatasetConfig {
            num_classes: 4,
            feature_dim: 6,
            train_samples: 120,
            test_samples: 700,
            seed: 9,
            ..DatasetConfig::default()
        })
        .unwrap();
        let clients =
            crate::client::build_clients(task.train(), crate::partition::Partition::iid(120, 10, 3).unwrap().assignments())
                .unwrap();
        let global = Mlp::new(&[6, 8, 4], 77).unwrap().parameters();
        let spec = LocalUpdateSpec { learning_rate: 0.3, local_epochs: 2, batch_size: 8 };
        (task, clients, global, spec)
    }

    /// The two local-update modes the train tests cover: the fixture's
    /// minibatch spec, which draws on the per-client RNG stream, and
    /// full batch (`batch_size == 0`, the paper's Eq. 3), which does
    /// not.
    fn both_modes(spec: LocalUpdateSpec) -> [LocalUpdateSpec; 2] {
        [spec, LocalUpdateSpec { batch_size: 0, ..spec }]
    }

    fn pool_train(
        workers: usize,
        spec: &LocalUpdateSpec,
        rounds: &[usize],
        tele: &Telemetry,
    ) -> Vec<Vec<(Vec<f32>, f64, f32)>> {
        let (task, clients, global, _) = pool_fixture();
        let indices: Vec<usize> = (0..clients.len()).collect();
        with_trainer_pool(workers, &[6, 8, 4], &clients, task.test(), |pool| {
            rounds
                .iter()
                .map(|&round| {
                    pool.train(round, 42, spec, &global, &indices, tele, "local_update")
                })
                .collect()
        })
        .unwrap()
    }

    /// Every result bit of a train run, so `-0.0`/`+0.0` and NaN
    /// payloads count as differences.
    fn result_bits(runs: &[Vec<(Vec<f32>, f64, f32)>]) -> Vec<Vec<(Vec<u32>, u64, u32)>> {
        runs.iter()
            .map(|run| {
                run.iter()
                    .map(|(p, w, l)| {
                        (p.iter().map(|v| v.to_bits()).collect(), w.to_bits(), l.to_bits())
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn train_is_bit_identical_at_every_width() {
        let (task, clients, global, spec) = pool_fixture();
        let disabled = Telemetry::disabled();
        for spec in both_modes(spec) {
            let serial = result_bits(&pool_train(1, &spec, &[1, 2, 3], &disabled));
            // The reference runs each client as its own single-item job,
            // so no item shares a trainer pass with another.
            let single_items: Vec<_> =
                with_trainer_pool(1, &[6, 8, 4], &clients, task.test(), |pool| {
                    [1, 2, 3]
                        .iter()
                        .map(|&round| {
                            let mut out = Vec::new();
                            for i in 0..clients.len() {
                                out.extend(pool.train(
                                    round,
                                    42,
                                    &spec,
                                    &global,
                                    &[i],
                                    &disabled,
                                    "local_update",
                                )?);
                            }
                            Ok(out)
                        })
                        .collect()
                })
                .unwrap();
            assert_eq!(serial, result_bits(&single_items), "{spec:?}");
            for workers in [2, 3, 4, 8, 16] {
                let pooled = result_bits(&pool_train(workers, &spec, &[1, 2, 3], &disabled));
                assert_eq!(serial, pooled, "divergence at {workers} workers, {spec:?}");
            }
            // Tracing must not perturb results either.
            let tele = Telemetry::metrics_only();
            assert_eq!(serial, result_bits(&pool_train(4, &spec, &[1, 2, 3], &tele)));
        }
    }

    #[test]
    fn pooled_evaluate_matches_scoped_reference() {
        let (task, clients, global, _spec) = pool_fixture();
        let mut model = Mlp::new(&[6, 8, 4], 0).unwrap();
        model.set_parameters(&global).unwrap();
        let mut scratch = vec![ClientTrainer::new(&[6, 8, 4]).unwrap()];
        let reference = evaluate_chunked(&model, task.test(), &mut scratch).unwrap();
        // The whole-set oracle: one forward pass, no blocks.
        let direct = whole_set_accuracy(&model, task.test());
        assert_eq!(reference.1.to_bits(), direct.to_bits());
        let disabled = Telemetry::disabled();
        for workers in [1, 2, 3, 4, 5, 8] {
            let got = with_trainer_pool(workers, &[6, 8, 4], &clients, task.test(), |pool| {
                pool.evaluate(&global, &disabled)
            })
            .unwrap();
            assert_eq!(got.0, reference.0, "count diverges at {workers} workers");
            assert_eq!(got.1.to_bits(), direct.to_bits(), "accuracy diverges at {workers} workers");
        }
    }

    #[test]
    fn pool_is_reusable_across_mixed_jobs() {
        // One pool serving train → eval → train must agree with fresh
        // width-1 runs of each job — workers carry no state across jobs
        // beyond their (fully overwritten) scratch.
        let (task, clients, global, spec) = pool_fixture();
        let indices: Vec<usize> = (0..clients.len()).collect();
        let disabled = Telemetry::disabled();
        let serial = pool_train(1, &spec, &[1, 2], &disabled);
        let (first, evaled, second) =
            with_trainer_pool(3, &[6, 8, 4], &clients, task.test(), |pool| {
                let first =
                    pool.train(1, 42, &spec, &global, &indices, &disabled, "local_update")?;
                let evaled = pool.evaluate(&global, &disabled)?;
                let second =
                    pool.train(2, 42, &spec, &global, &indices, &disabled, "local_update")?;
                Ok((first, evaled, second))
            })
            .unwrap();
        assert_eq!(first, serial[0]);
        assert_eq!(second, serial[1]);
        let direct = with_trainer_pool(1, &[6, 8, 4], &clients, task.test(), |pool| {
            pool.evaluate(&global, &disabled)
        })
        .unwrap();
        assert_eq!(evaled, direct);
    }

    #[test]
    fn pool_survives_failed_jobs() {
        // A job-level error (bad parameter vector) must propagate as
        // `Err` — not deadlock or panic — and leave the pool usable.
        let (task, clients, global, spec) = pool_fixture();
        let indices: Vec<usize> = (0..clients.len()).collect();
        let disabled = Telemetry::disabled();
        let bad = vec![0.0f32; 3];
        for spec in both_modes(spec) {
            for workers in [1, 3, 4] {
                with_trainer_pool(workers, &[6, 8, 4], &clients, task.test(), |pool| {
                    assert!(pool
                        .train(1, 42, &spec, &bad, &indices, &disabled, "local_update")
                        .is_err());
                    assert!(pool.evaluate(&bad, &disabled).is_err());
                    // Still healthy: a good job right after the failures.
                    let ok =
                        pool.train(1, 42, &spec, &global, &indices, &disabled, "local_update")?;
                    assert_eq!(ok.len(), indices.len());
                    Ok(())
                })
                .unwrap();
            }
        }
    }

    #[test]
    fn pool_handles_empty_and_narrow_jobs() {
        let (task, clients, global, spec) = pool_fixture();
        let disabled = Telemetry::disabled();
        with_trainer_pool(4, &[6, 8, 4], &clients, task.test(), |pool| {
            // Zero items: no dispatch at all.
            let none = pool.train(1, 42, &spec, &global, &[], &disabled, "local_update")?;
            assert!(none.is_empty());
            // Fewer items than workers: the extras sit the job out.
            let two = pool.train(1, 42, &spec, &global, &[3, 7], &disabled, "local_update")?;
            assert_eq!(two.len(), 2);
            Ok(())
        })
        .unwrap();
        let serial = with_trainer_pool(1, &[6, 8, 4], &clients, task.test(), |pool| {
            pool.train(1, 42, &spec, &global, &[3, 7], &disabled, "local_update")
        })
        .unwrap();
        let pooled = with_trainer_pool(4, &[6, 8, 4], &clients, task.test(), |pool| {
            pool.train(1, 42, &spec, &global, &[3, 7], &disabled, "local_update")
        })
        .unwrap();
        assert_eq!(serial, pooled);
    }

    #[test]
    fn pool_width_is_bounded_by_the_largest_job() {
        // 700 eval rows are ceil(700/256) = 3 chunks. Past the larger
        // of that and the client count, a worker would never get an
        // item, so the pool never spawns it.
        let (task, clients, _, _) = pool_fixture();
        for (n_clients, bound) in [(4, 4), (2, 3)] {
            let clients = &clients[..n_clients];
            let width =
                with_trainer_pool(32, &[6, 8, 4], clients, task.test(), |pool| Ok(pool.workers()))
                    .unwrap();
            assert_eq!(width, bound, "{n_clients} clients");
        }
    }

    #[test]
    fn pool_telemetry_accounts_for_amortized_spawns() {
        let (task, clients, global, spec) = pool_fixture();
        let indices: Vec<usize> = (0..clients.len()).collect();
        for spec in both_modes(spec) {
            for workers in [1, 3] {
                let tele = Telemetry::metrics_only();
                with_trainer_pool(workers, &[6, 8, 4], &clients, task.test(), |pool| {
                    pool.train(1, 42, &spec, &global, &indices, &tele, "local_update")?;
                    pool.evaluate(&global, &tele)?;
                    Ok(())
                })
                .unwrap();
                let snap = tele.snapshot();
                // The caller is worker 0, so a job of effective width
                // `eff` saves `eff - 1` spawns. Three workers: train over
                // 3, eval over min(3, ceil(700/256)) = 3, so 2 + 2.
                let spawns = if workers == 1 { 0 } else { 4 };
                assert_eq!(snap.counter("pool.spawn_amortized"), spawns);
                let items: u64 = (0..workers)
                    .map(|w| snap.counter(&format!("local_update.worker{w}.items")))
                    .sum();
                assert_eq!(items, indices.len() as u64, "{workers} workers, {spec:?}");
                assert_eq!(
                    snap.histogram("local_update.item_us").unwrap().count,
                    indices.len() as u64,
                    "{workers} workers, {spec:?}"
                );
                // Pool metrics are runtime-class: the deterministic view is empty.
                assert!(snap.deterministic().is_empty());
            }
        }
    }
}
