//! The prefix cache budgets by [`Machine::heap_bytes`]; these tests hold
//! that estimate against what the allocator saw, which takes a counting
//! `#[global_allocator]` and therefore a test binary of its own.
//!
//! * A fork of a mid-run machine allocates what the estimate says, within
//!   a quarter, at 16, 256 and 1024 PEs.
//! * A two-worker sweep that overflows the cache many times over matches
//!   its one-shot lines and ends with nothing on the heap but the images
//!   the cache still accounts for: every evicted image was freed, on
//!   whichever thread.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ultra_serve::cache::CACHE_BUDGET_BYTES;
use ultra_serve::spec::{JobSpec, Workload};
use ultra_serve::{JobStatus, Server};
use ultracomputer::EngineTuning;

/// The system allocator, counting bytes handed out and bytes still held.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counters
// are statistics (relaxed atomics that publish no other data) and never
// influence what is returned. `realloc` is the trait's default, which
// goes through `alloc` and `dealloc` below.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counters are process-wide: one test at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn ticket(id: &str, pes: usize, seed: u64, cycles: u64) -> JobSpec {
    let mut spec = JobSpec::new(id);
    spec.pes = pes;
    spec.seed = seed;
    spec.workload = Workload::Ticket;
    spec.rounds = 64;
    spec.cycles = cycles;
    spec.checkpoint_every = 1 << 20;
    spec
}

#[test]
fn the_estimate_is_within_a_quarter_of_what_a_fork_allocates() {
    let _guard = ONE_AT_A_TIME.lock().unwrap();
    for pes in [16, 256, 1024] {
        let mut donor = ticket("donor", pes, 3, 0).machine();
        assert!(!donor.run_for(96).completed, "{pes} PEs: cut mid-run");
        let before = ALLOCATED.load(Ordering::Relaxed);
        let fork = donor.fork(EngineTuning::default());
        let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
        for (what, estimate) in [("fork", fork.heap_bytes()), ("donor", donor.heap_bytes())] {
            // The donor's own buffers have grown by doubling and are
            // larger than the exact-fit copies: it may only read higher.
            let low = if what == "fork" {
                allocated * 3 / 4
            } else {
                allocated
            };
            let high = if what == "fork" {
                allocated * 5 / 4
            } else {
                allocated * 2
            };
            assert!(
                (low..=high).contains(&estimate),
                "{pes} PEs: the {what} estimates {estimate} bytes, the fork allocated {allocated}"
            );
        }
    }
}

#[test]
fn a_two_worker_sweep_matches_one_shot_lines_and_frees_every_evicted_image() {
    let _guard = ONE_AT_A_TIME.lock().unwrap();
    // Two prefixes, budgets ascending four cycles at a time, the prefixes
    // alternating so both workers hold images the other one evicts.
    let (warm_at, steps) = (48, 40);
    let sweep: Vec<JobSpec> = (1..=steps)
        .flat_map(|step| {
            [5, 6].map(|seed| ticket(&format!("p{seed}-{step}"), 256, seed, warm_at + 4 * step))
        })
        .collect();
    let one_shot: HashMap<String, String> = sweep
        .iter()
        .filter(|spec| spec.cycles % 40 == 0 || spec.cycles == warm_at + 4 * steps)
        .map(|spec| (spec.id.clone(), Server::new().run_job(spec).line))
        .collect();
    assert!(one_shot.len() >= 8);

    let held_before = LIVE.load(Ordering::Relaxed);
    let server = Server::new();
    for seed in [5, 6] {
        let _ = server.run_job(&ticket("warm", 256, seed, warm_at));
    }
    let mut checked = 0;
    let done = server.run_batch(sweep, 2, 8, |out| {
        assert_eq!(out.status, JobStatus::BudgetExhausted);
        assert!(out.log[0].contains("cache hit"), "{:?}", out.log);
        if let Some(line) = one_shot.get(&out.id) {
            assert_eq!(&out.line, line, "{} diverged from its one-shot run", out.id);
            checked += 1;
        }
    });
    assert_eq!((done, checked), (2 * steps as usize, one_shot.len()));

    // The workers are gone and took their inboxes with them: what is
    // still allocated is the cache's images, and nothing else that scales.
    // (A scope returns when its threads' closures have; their
    // thread-locals may take a moment longer.)
    let cache = server.cache();
    let held = || LIVE.load(Ordering::Relaxed) - held_before;
    let deadline = Instant::now() + Duration::from_secs(10);
    while held() > cache.bytes() * 5 / 4 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    let held = held();
    assert!(cache.evictions() >= 20, "{} evictions", cache.evictions());
    assert_eq!(cache.evictions() + cache.len() as u64, 2 + 2 * steps);
    assert!(cache.bytes() <= CACHE_BUDGET_BYTES);
    assert!(
        held <= cache.bytes() * 5 / 4,
        "{held} bytes still allocated against {} accounted for {} images; \
         {} evicted images should have been freed",
        cache.bytes(),
        cache.len(),
        cache.evictions()
    );
}
