//! A persistent, barrier-synchronized worker pool for data-parallel
//! compute steps.
//!
//! PR 3's trainer and block-parallel inference spawned `thread::scope`
//! workers *per step* — cheap, but a fixed spawn+join cost (and an
//! allocation) on every mini-batch, paid thousands of times per training
//! run and once per coalesced serving flush. [`WorkerPool`] replaces
//! that with long-lived workers parked on a condvar: dispatching a step
//! is one mutex round-trip and wake, the caller participates as worker
//! 0, and a countdown barrier releases the caller when every worker is
//! done. In steady state a dispatch performs **zero heap allocations and
//! zero thread spawns** (asserted by `lc-core`'s counting-allocator
//! test), and the same process-wide pool ([`WorkerPool::global`]) serves
//! training steps, batch inference, and `lc-serve`'s micro-batched
//! flushes — workers and their warm caches are shared, not re-created
//! per subsystem.
//!
//! **Determinism is unaffected by pooling.** The pool only decides
//! *where* closures run; callers partition work by fixed rules (gradient
//! shards, inference blocks) and reduce in fixed order, so results stay
//! bitwise identical at any worker count — pooled or scoped.
//!
//! **Placement.** One policy places every thread this workspace pins,
//! built on the *process's* CPU set ([`process_cpus`]: the thread-group
//! leader's `Cpus_allowed_list`, read once — never the calling thread's
//! mask, which a pinned parent would have narrowed to one CPU):
//!
//! * a thread of a thread-per-core layout — pool worker `id`, reactor
//!   shard `id` — runs on [`core_for`]`(id)`, element `id mod n` of the
//!   process set ([`pin_thread_to_core`]), so a worker's warm scratch
//!   buffers stay on one core's cache hierarchy instead of migrating,
//!   and `taskset -c 2,3` or a `--cpuset-cpus` container places threads
//!   on CPUs 2 and 3, not on CPU 0;
//! * a background thread that must not preempt latency-critical ones
//!   (`lc-serve`'s retrainer) runs on [`cpus_beside`] them: the process
//!   set minus their CPUs and those CPUs' SMT siblings, else minus their
//!   CPUs only, else the whole process set — never on one of their CPUs
//!   alone.
//!
//! The mask is applied with a raw `sched_setaffinity` syscall (no libc
//! dependency, Linux/x86-64 only). Best-effort: a refused mask is
//! ignored, and `LC_PIN_WORKERS=0` disables all pinning.
#![allow(unsafe_code)] // two contained uses: the lifetime-erased task pointer
                       // (sound because `run` blocks until every worker has finished
                       // with it) and the raw sched_setaffinity syscall.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use lc_obs::{metrics, SpanTimer};

/// Upper bound on participants per dispatch: [`WorkerPool::run`] refuses
/// more, [`WorkerPool::run_chunks`] clamps to it, so a runaway
/// `LC_*_THREADS` value is harmless. Far above any productive count for
/// this workload (training caps at 4 shards).
pub const MAX_PARTICIPANTS: usize = 64;

/// Process-wide count of threads ever spawned by pools in this process —
/// the zero-spawn steady-state assertion in `lc-core`'s allocation test
/// watches this.
static THREADS_SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Total pool threads spawned by this process so far. Monotonic; stable
/// between two reads iff no pool grew in between.
pub fn threads_spawned() -> u64 {
    THREADS_SPAWNED.load(Ordering::Relaxed)
}

/// Lifetime-erased `&(dyn Fn(usize) + Sync)`. The `'static` is a lie
/// told to the type system only: [`WorkerPool::run`] does not return
/// until the completion barrier proves no worker will touch it again,
/// so every use stays inside the real borrow.
type ErasedTask = &'static (dyn Fn(usize) + Sync);

/// Dispatch state shared between the caller and the workers.
struct Job {
    /// Bumped once per dispatch; workers run at most once per epoch.
    epoch: u64,
    /// Participants this epoch: worker ids `1..count` (0 is the caller).
    count: usize,
    /// Workers still running this epoch's task.
    remaining: usize,
    /// Set when any participant's task panicked this epoch; the caller
    /// re-raises after the barrier so a panic behaves like it did under
    /// `thread::scope` (propagates) instead of wedging the pool.
    panicked: bool,
    task: Option<ErasedTask>,
    shutdown: bool,
}

struct Shared {
    job: Mutex<Job>,
    /// Wakes workers for a new epoch (or shutdown).
    start: Condvar,
    /// Wakes the caller when `remaining` hits zero.
    done: Condvar,
}

/// A persistent pool of barrier-synchronized workers. Most callers want
/// the shared [`WorkerPool::global`]; constructing one directly is for
/// tests and special-purpose isolation.
pub struct WorkerPool {
    /// Leaked once per pool: workers hold the same `&'static`, so no
    /// reference counting is needed on the dispatch path. (Tests create
    /// a handful of pools; the per-pool leak is a few hundred bytes.)
    shared: &'static Shared,
    /// Serializes dispatches: one job runs at a time, so concurrent
    /// `run` calls (e.g. two tests training in parallel) queue instead
    /// of corrupting each other's barrier.
    run_lock: Mutex<()>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// A new pool with no workers; they are spawned on demand by `run`.
    fn new() -> Self {
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            job: Mutex::new(Job {
                epoch: 0,
                count: 0,
                remaining: 0,
                panicked: false,
                task: None,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        }));
        WorkerPool { shared, run_lock: Mutex::new(()), workers: Mutex::new(Vec::new()) }
    }

    /// The process-wide pool shared by training, batch inference, and
    /// the serving layer. Workers are spawned lazily the first time a
    /// dispatch needs them and live for the rest of the process.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(WorkerPool::new)
    }

    /// Number of live pool workers (diagnostics/tests).
    pub fn workers(&self) -> usize {
        self.workers.lock().expect("pool workers poisoned").len()
    }

    /// Run `task(id)` for every `id in 0..participants` and wait for all
    /// of them: id 0 on the calling thread, ids `1..participants` on
    /// pool workers. `participants <= 1` runs entirely inline with no
    /// synchronization. Steady-state dispatches (no pool growth) are
    /// allocation- and spawn-free.
    ///
    /// Work partitioning is the caller's: `task` must map each id to a
    /// disjoint slice of the step. Ids are invoked exactly once per call.
    ///
    /// # Panics
    /// If `participants > MAX_PARTICIPANTS`, or `task` panicked on any
    /// participant. Panics inside `task` are caught at the barrier and
    /// re-raised here after every participant has finished — the same
    /// propagation `thread::scope` gave, and crucially the pool (and the
    /// erased borrow) are never left with a stuck dispatch.
    pub fn run(&self, participants: usize, task: &(dyn Fn(usize) + Sync)) {
        if participants <= 1 {
            task(0);
            return;
        }
        assert!(
            participants <= MAX_PARTICIPANTS,
            "worker-pool dispatch of {participants} exceeds MAX_PARTICIPANTS ({MAX_PARTICIPANTS})"
        );
        metrics::POOL_DISPATCHES.inc();
        let _dispatch_span = SpanTimer::start(&metrics::POOL_RUN_NS);
        let _serialize = self.run_lock.lock().expect("pool run lock poisoned");
        self.ensure_workers(participants - 1);
        // SAFETY: erases the borrow's lifetime; the barrier below keeps
        // every worker's use of the reference inside this call frame —
        // including when the caller's own share panics, which is why the
        // wait happens before any unwind continues.
        let erased: ErasedTask = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        };
        {
            let mut job = self.shared.job.lock().expect("pool job poisoned");
            job.epoch += 1;
            job.count = participants;
            job.remaining = participants - 1;
            job.panicked = false;
            job.task = Some(erased);
            self.shared.start.notify_all();
        }
        // The caller is worker 0: it computes its share instead of
        // sleeping through the step. Its panic must not skip the barrier
        // below — workers may still hold the erased borrow.
        let caller_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(0)));
        let mut job = self.shared.job.lock().expect("pool job poisoned");
        while job.remaining > 0 {
            job = self.shared.done.wait(job).expect("pool job poisoned");
        }
        // The task borrow ends with this call; drop the erased pointer
        // so nothing dangling survives in the dispatch slot.
        job.task = None;
        let worker_panicked = job.panicked;
        drop(job);
        // Release the dispatch serialization BEFORE re-raising: a panic
        // while holding `run_lock` would poison it and wedge every later
        // dispatch — the exact failure mode this path exists to avoid.
        drop(_serialize);
        match caller_result {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) if worker_panicked => panic!("a worker-pool task panicked on a pool worker"),
            Ok(()) => {}
        }
    }

    /// Run `f(index, chunk)` once for every `chunk_len`-element chunk of
    /// `data` (the last one shorter when `chunk_len` does not divide
    /// `data.len()`), and wait for all of them. The chunks are dealt out
    /// as contiguous runs: with `per = ⌈chunks / participants⌉`,
    /// participant `w` ([`WorkerPool::run`]'s id) takes chunks
    /// `w·per .. (w+1)·per` in ascending order. `participants` is clamped
    /// to `1..=`[`MAX_PARTICIPANTS`] and to the chunk count; one
    /// participant runs every chunk inline on the calling thread.
    ///
    /// This is the safe fan-out for data-parallel steps: each participant
    /// owns its chunks' `&mut` outright, so per-shard scratch, gradient
    /// buffers and output blocks need no shared-mutable view. Which
    /// participant runs a chunk never changes what it computes.
    ///
    /// # Panics
    /// If `chunk_len == 0`, or `f` panicked on any participant (see
    /// [`WorkerPool::run`]).
    pub fn run_chunks<T: Send>(
        &self,
        data: &mut [T],
        chunk_len: usize,
        participants: usize,
        f: impl Fn(usize, &mut [T]) + Sync,
    ) {
        assert!(chunk_len > 0, "run_chunks needs a positive chunk length");
        let chunks = data.len().div_ceil(chunk_len);
        let participants = participants.clamp(1, MAX_PARTICIPANTS).min(chunks.max(1));
        if participants == 1 {
            for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
                f(i, chunk);
            }
            return;
        }
        let per = chunks.div_ceil(participants);
        // Each participant's run waits in its own slot; the participant
        // takes it out, so every `&mut` is handed over exactly once.
        let mut runs: [Mutex<Option<&mut [T]>>; MAX_PARTICIPANTS] =
            std::array::from_fn(|_| Mutex::new(None));
        for (slot, run) in runs.iter_mut().zip(data.chunks_mut(per * chunk_len)) {
            *slot.get_mut().expect("fresh slot") = Some(run);
        }
        self.run(chunks.div_ceil(per), &|w| {
            let run = runs[w].lock().expect("run slot poisoned").take();
            let run = run.expect("each participant's run is taken once");
            for (j, chunk) in run.chunks_mut(chunk_len).enumerate() {
                f(w * per + j, chunk);
            }
        });
    }

    /// Grow the pool to at least `needed` workers (allocates and spawns
    /// only on growth — never in steady state).
    fn ensure_workers(&self, needed: usize) {
        let mut workers = self.workers.lock().expect("pool workers poisoned");
        while workers.len() < needed {
            let id = workers.len() + 1;
            let shared = self.shared;
            THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
            let handle = std::thread::Builder::new()
                .name(format!("lc-pool-{id}"))
                .spawn(move || worker_loop(shared, id))
                .expect("failed to spawn pool worker");
            workers.push(handle);
        }
        metrics::POOL_WORKERS.set(workers.len() as u64);
    }

    /// Stop and join all workers (tests; the global pool never calls it).
    fn shutdown(&self) {
        {
            let mut job = self.shared.job.lock().expect("pool job poisoned");
            job.shutdown = true;
            self.shared.start.notify_all();
        }
        for handle in self.workers.lock().expect("pool workers poisoned").drain(..) {
            handle.join().expect("pool worker panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &'static Shared, id: usize) {
    pin_self(id);
    let mut seen = 0u64;
    loop {
        let task = {
            let mut job = shared.job.lock().expect("pool job poisoned");
            while job.epoch == seen && !job.shutdown {
                job = shared.start.wait(job).expect("pool job poisoned");
            }
            if job.shutdown {
                return;
            }
            seen = job.epoch;
            if id < job.count {
                // A participant always observes the task: it is cleared
                // only after `remaining` hits zero, which needs this
                // worker's decrement first.
                Some(job.task.expect("dispatched epoch carries a task"))
            } else {
                // A non-participant may observe an epoch whose task slot
                // was already cleared (it woke late); it just re-parks.
                None
            }
        };
        if let Some(task) = task {
            // The caller blocks in `run` until `remaining` hits zero, so
            // the erased task reference outlives this call. Panics are
            // caught so the barrier always completes; the caller
            // re-raises them after the step.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(id)));
            let mut job = shared.job.lock().expect("pool job poisoned");
            if result.is_err() {
                job.panicked = true;
            }
            job.remaining -= 1;
            if job.remaining == 0 {
                shared.done.notify_all();
            }
        }
    }
}

/// The CPUs this process may run on, ascending: the thread-group
/// leader's `Cpus_allowed_list` (`/proc/self/status`), read once on first
/// use. It is the leader's mask, not the caller's, so the answer is the
/// same from a pinned thread. Where that file is unreadable (off Linux),
/// CPUs `0..available_parallelism()`.
pub fn process_cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|status| {
                let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
                parse_cpu_list(list)
            })
            .unwrap_or_else(|| {
                (0..std::thread::available_parallelism().map_or(1, |n| n.get())).collect()
            })
    })
}

/// Parse a kernel CPU list (`0-3,8,10-11`, ascending) into CPU numbers;
/// `None` when malformed or empty.
fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi): (usize, usize) = (lo.parse().ok()?, hi.parse().ok()?);
        if lo > hi {
            return None;
        }
        cpus.extend(lo..=hi);
    }
    Some(cpus)
}

/// The CPU thread `id` of a thread-per-core layout runs on: element
/// `id mod n` of the [`process_cpus`] set.
pub fn core_for(id: usize) -> usize {
    let cpus = process_cpus();
    cpus[id % cpus.len()]
}

/// Best-effort: pin the calling thread to [`core_for`]`(id)`. Pool
/// workers and `lc-serve`'s reactor shards share this one call — same
/// core assignment, same `LC_PIN_WORKERS` off-switch. Returns whether the
/// kernel accepted the mask (false when pinning is off, too).
pub fn pin_thread_to_core(id: usize) -> bool {
    pin_thread_to_cpus(&[core_for(id)])
}

/// Where a thread that must not preempt the `serving` CPUs runs, with
/// `true` when it shares one of them. The first non-empty answer wins:
///
/// 1. the `process` set minus the serving CPUs and their SMT siblings
///    (each serving CPU's `topology/thread_siblings_list`, read once per
///    call) — a load on a serving core's twin thread slows it as much
///    as one on the core itself;
/// 2. the `process` set minus the serving CPUs;
/// 3. the whole `process` set, with `true` — the thread then shares a
///    serving CPU, but never sits on one serving CPU alone.
pub fn cpus_beside(process: &[usize], serving: &[usize]) -> (Vec<usize>, bool) {
    cpus_beside_with(process, serving, |cpu| {
        let path = format!("/sys/devices/system/cpu/cpu{cpu}/topology/thread_siblings_list");
        std::fs::read_to_string(path)
            .ok()
            .and_then(|list| parse_cpu_list(&list))
            .unwrap_or_default()
    })
}

/// The rule of [`cpus_beside`] over an injected sibling map:
/// `siblings(cpu)` lists the hardware threads of `cpu`'s core.
fn cpus_beside_with(
    process: &[usize],
    serving: &[usize],
    siblings: impl Fn(usize) -> Vec<usize>,
) -> (Vec<usize>, bool) {
    let without = |taken: &[usize]| -> Vec<usize> {
        process.iter().copied().filter(|c| !taken.contains(c)).collect()
    };
    let cores: Vec<usize> =
        serving.iter().flat_map(|&cpu| siblings(cpu)).chain(serving.iter().copied()).collect();
    [without(&cores), without(serving)]
        .into_iter()
        .find(|free| !free.is_empty())
        .map_or_else(|| (process.to_vec(), true), |free| (free, false))
}

/// Best-effort: restrict the calling thread to `cpus`. No-op (false)
/// when [`RuntimeConfig`](crate::RuntimeConfig) disables pinning
/// (`LC_PIN_WORKERS=0`) and off Linux/x86-64. Returns whether the kernel
/// accepted the mask.
pub fn pin_thread_to_cpus(cpus: &[usize]) -> bool {
    crate::runtime::RuntimeConfig::global().pin_workers && set_affinity(cpus)
}

/// Worker-spawn wrapper around [`pin_thread_to_core`], discarding the
/// best-effort result.
fn pin_self(id: usize) {
    let _ = pin_thread_to_core(id);
}

/// Raw `sched_setaffinity(0, ...)` for the calling thread (pid 0 =
/// caller). Returns whether the kernel accepted the mask; false when a
/// CPU is beyond the 1024 the mask holds. Implemented as a direct syscall
/// so the vendored-deps-only build needs no libc crate.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn set_affinity(cpus: &[usize]) -> bool {
    let mut mask = [0u64; 16]; // up to 1024 cores
    for &cpu in cpus {
        if cpu >= mask.len() * 64 {
            return false;
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    let ret: i64;
    // SAFETY: sched_setaffinity reads `mask.len() * 8` bytes from a
    // live, properly sized buffer and has no other memory effects.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203i64 => ret, // __NR_sched_setaffinity
            in("rdi") 0usize,
            in("rsi") mask.len() * 8,
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn set_affinity(_cpus: &[usize]) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Every chunk runs exactly once, with its own index and length —
    /// the last one short when the length does not divide — and each
    /// participant takes a contiguous run of chunks.
    #[test]
    fn run_chunks_runs_every_chunk_once() {
        let pool = WorkerPool::new();
        for (len, chunk_len, participants) in [(10, 1, 3), (10, 3, 3), (257, 32, 2), (8, 8, 4)] {
            let mut data = vec![(usize::MAX, 0usize, 0usize); len];
            let runs = AtomicUsize::new(0);
            pool.run_chunks(&mut data, chunk_len, participants, |i, chunk| {
                runs.fetch_add(1, Ordering::Relaxed);
                let n = chunk.len();
                for (j, slot) in chunk.iter_mut().enumerate() {
                    *slot = (i, j, n);
                }
            });
            let chunks = len.div_ceil(chunk_len);
            assert_eq!(runs.load(Ordering::Relaxed), chunks, "{len}/{chunk_len}");
            for (at, &(i, j, n)) in data.iter().enumerate() {
                assert_eq!((i, j), (at / chunk_len, at % chunk_len), "element {at}");
                assert_eq!(n, chunk_len.min(len - i * chunk_len), "chunk {i} length");
            }
        }
        // Contiguous runs: 7 chunks over 3 participants are 3 + 3 + 1,
        // each run on one thread of its own, the first on the caller.
        let mut owner = vec![None; 7];
        pool.run_chunks(&mut owner, 1, 3, |_, chunk| {
            chunk[0] = Some(std::thread::current().id());
        });
        let owner: Vec<_> = owner.into_iter().map(Option::unwrap).collect();
        assert_eq!(owner[0], std::thread::current().id());
        for run in [&owner[0..3], &owner[3..6]] {
            assert!(run.iter().all(|&t| t == run[0]), "a run stays on one participant");
        }
        assert!(owner[0] != owner[3] && owner[3] != owner[6] && owner[0] != owner[6]);
        pool.shutdown();
    }

    /// More participants than chunks, no data at all, and one
    /// participant (inline, in order, on the calling thread).
    #[test]
    fn run_chunks_handles_degenerate_fan_outs() {
        let pool = WorkerPool::new();
        let mut data = vec![0u32; 3];
        pool.run_chunks(&mut data, 1, 64, |i, chunk| chunk[0] = i as u32 + 1);
        assert_eq!(data, [1, 2, 3]);
        assert_eq!(pool.workers(), 2, "three chunks engage at most three participants");
        pool.run_chunks(&mut data, 2, 1000, |i, chunk| {
            chunk.iter_mut().for_each(|v| *v += i as u32)
        });
        assert_eq!(data, [1, 2, 4], "a runaway participant count is clamped, not refused");

        let mut empty: [u8; 0] = [];
        pool.run_chunks(&mut empty, 4, 3, |_, _| panic!("no chunk to run"));

        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let mut data = vec![0u8; 5];
        pool.run_chunks(&mut data, 2, 1, |i, chunk| {
            assert_eq!(std::thread::current().id(), caller, "one participant runs inline");
            order.lock().unwrap().push((i, chunk.len()));
        });
        assert_eq!(*order.lock().unwrap(), [(0, 2), (1, 2), (2, 1)]);
        pool.shutdown();
    }

    /// A panic in `f` surfaces from `run_chunks`, on a worker or on the
    /// caller, and the pool serves the next call.
    #[test]
    fn run_chunks_panics_propagate_and_pool_survives() {
        let pool = WorkerPool::new();
        let mut data = vec![0u8; 4];
        for bad in [0usize, 3] {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run_chunks(&mut data, 1, 4, |i, _| {
                    if i == bad {
                        panic!("boom in chunk {i}");
                    }
                });
            }));
            assert!(caught.is_err(), "a panic in chunk {bad} must surface");
        }
        pool.run_chunks(&mut data, 1, 4, |i, chunk| chunk[0] = i as u8);
        assert_eq!(data, [0, 1, 2, 3], "the pool must keep working after a panic");
        pool.shutdown();
    }

    #[test]
    fn runs_every_index_exactly_once() {
        let pool = WorkerPool::new();
        let hits: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..50 {
            pool.run(6, &|id| {
                hits[id].fetch_add(1, Ordering::Relaxed);
            });
        }
        for (id, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 50, "index {id} must run once per dispatch");
        }
        assert_eq!(pool.workers(), 5, "five workers + the caller cover six indices");
        pool.shutdown();
    }

    #[test]
    fn single_participant_runs_inline_without_workers() {
        let pool = WorkerPool::new();
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(None);
        pool.run(1, &|id| {
            *ran_on.lock().unwrap() = Some((id, std::thread::current().id()));
        });
        assert_eq!(*ran_on.lock().unwrap(), Some((0, caller)));
        assert_eq!(pool.workers(), 0, "no workers may be spawned for inline runs");
    }

    #[test]
    fn pool_grows_monotonically_and_reuses_workers() {
        // Asserts on this pool's own worker list (grow-only, one push per
        // spawn), not on deltas of the process-global `threads_spawned()`:
        // sibling tests in this binary spawn workers on their own pools
        // concurrently.
        let pool = WorkerPool::new();
        pool.run(3, &|_| {});
        assert_eq!(pool.workers(), 2);
        for _ in 0..20 {
            pool.run(3, &|_| {});
            pool.run(2, &|_| {});
        }
        assert_eq!(pool.workers(), 2, "steady-state dispatches must not spawn");
        pool.run(4, &|_| {});
        assert_eq!(pool.workers(), 3, "a wider dispatch grows the pool by exactly the shortfall");
        pool.shutdown();
    }

    #[test]
    fn concurrent_dispatches_serialize_safely() {
        let pool = WorkerPool::new();
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..25 {
                        pool.run(3, &|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 25 * 3);
        pool.shutdown();
    }

    /// A panicking task must propagate to the caller (like
    /// `thread::scope` did) and must NOT wedge the pool: the next
    /// dispatch still runs.
    #[test]
    fn task_panics_propagate_and_pool_survives() {
        let pool = WorkerPool::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(3, &|id| {
                if id == 1 {
                    panic!("boom on a worker");
                }
            });
        }));
        assert!(caught.is_err(), "a worker panic must surface from run()");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(3, &|id| {
                if id == 0 {
                    panic!("boom on the caller");
                }
            });
        }));
        assert!(caught.is_err(), "a caller panic must surface from run()");
        let hits = AtomicUsize::new(0);
        pool.run(3, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3, "the pool must keep working after a panic");
        pool.shutdown();
    }

    #[test]
    fn pinning_is_best_effort() {
        // Pinning to a CPU of the process set must be accepted on any
        // Linux host this test runs on; elsewhere the stub reports false.
        // Either way: no panic.
        let _ = set_affinity(&[core_for(0)]);
        pin_self(1);
    }

    #[test]
    fn cpu_lists_parse_like_the_kernel_prints_them() {
        assert_eq!(parse_cpu_list("0-1\n"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("2,3"), Some(vec![2, 3]));
        assert_eq!(parse_cpu_list(" 0-2,8,10-11"), Some(vec![0, 1, 2, 8, 10, 11]));
        assert_eq!(parse_cpu_list("5"), Some(vec![5]));
        for bad in ["", "x", "3-1", "0-", "1,,2"] {
            assert_eq!(parse_cpu_list(bad), None, "{bad:?}");
        }
        let process = process_cpus();
        assert!(!process.is_empty() && process.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(core_for(process.len()), process[0], "ids wrap around the set");
    }

    /// Without SMT (each CPU its own sibling, as this rule's callers see
    /// on most guests), the serving CPUs are all that is left out.
    #[test]
    fn cpus_beside_leaves_the_serving_cpus_free() {
        let beside = |process: &[usize], serving: &[usize]| {
            cpus_beside_with(process, serving, |cpu| vec![cpu])
        };
        assert_eq!(beside(&[0, 1], &[0]), (vec![1], false));
        assert_eq!(beside(&[2, 3, 4], &[3]), (vec![2, 4], false));
        assert_eq!(beside(&[0, 1], &[]), (vec![0, 1], false));
        // Nothing left over: the whole process set, flagged as shared —
        // never one serving CPU alone.
        assert_eq!(beside(&[0, 1], &[0, 1]), (vec![0, 1], true));
        assert_eq!(beside(&[7], &[7]), (vec![7], true));
        // The host's own topology agrees on the answer's shape.
        let (cpus, shared) = cpus_beside(&[0, 1], &[0, 1]);
        assert_eq!((cpus, shared), (vec![0, 1], true));
    }

    /// With SMT the serving CPUs' twin threads are left out too, while
    /// anything else is left.
    #[test]
    fn cpus_beside_leaves_the_serving_cores_siblings_free() {
        // 2 cores × 2 threads, numbered as Linux does: core 0 = {0, 2},
        // core 1 = {1, 3}. A shard on CPU 0 leaves core 1 whole.
        let two_cores = |cpu: usize| vec![cpu % 2, cpu % 2 + 2];
        assert_eq!(cpus_beside_with(&[0, 1, 2, 3], &[0], two_cores), (vec![1, 3], false));
        // 1 core × 2 threads: the twin is all there is, so step 2 takes it.
        let one_core = |_: usize| vec![0, 1];
        assert_eq!(cpus_beside_with(&[0, 1], &[0], one_core), (vec![1], false));
        // Every CPU serving: the whole set, shared.
        assert_eq!(
            cpus_beside_with(&[0, 1, 2, 3], &[0, 1, 2, 3], two_cores),
            (vec![0, 1, 2, 3], true)
        );
        // A sibling list naming CPUs outside the process set is harmless.
        assert_eq!(cpus_beside_with(&[2, 3], &[2], |_| vec![2, 6]), (vec![3], false));
    }

    /// The calling thread's allowed CPUs, as the kernel lists them.
    fn thread_cpus() -> String {
        let status = std::fs::read_to_string("/proc/thread-self/status").expect("proc status");
        let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"));
        list.expect("Cpus_allowed_list").trim().to_string()
    }

    /// A thread spawned by a pinned parent inherits a one-CPU mask; its
    /// own `pin_thread_to_core(1)` must still land on the second CPU of
    /// the process set, not read the inherited mask and give up.
    #[test]
    fn a_pinned_parent_does_not_narrow_its_childs_placement() {
        let process = process_cpus();
        if process.len() < 2
            || !crate::RuntimeConfig::global().pin_workers
            || !cfg!(all(target_os = "linux", target_arch = "x86_64"))
        {
            return; // one CPU, pinning off, or no affinity syscall
        }
        let child = std::thread::spawn(|| {
            assert!(pin_thread_to_core(0));
            assert_eq!(thread_cpus(), core_for(0).to_string());
            std::thread::spawn(|| {
                assert!(pin_thread_to_core(1), "the kernel refused the second CPU");
                thread_cpus()
            })
            .join()
            .expect("child panicked")
        });
        assert_eq!(child.join().expect("parent panicked"), process[1].to_string());
    }
}
