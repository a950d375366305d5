//! The telemetry-overhead tripwire (DESIGN.md §13): with the span
//! profiler recording **every** activation and attributing allocations
//! through this binary's counting allocator, the serial month replay
//! must stay within 5% of the profiler-off allocation count. The span
//! layer keeps this true by construction — spans record into
//! preallocated tree nodes and only a site's *first* visit inserts —
//! and this test is the regression gate on that contract. It is also
//! the profiled == plain identity gate: the profiled month must equal
//! the plain one (raw and cleaned logs, removed duplicates, reset
//! bursts).

use quicksand_core::scenario::{MonthResult, Scenario, ScenarioConfig};
use quicksand_obs as obs;
use std::sync::Arc;

/// Counting wrapper over the system allocator, local to this test
/// binary (each integration test is its own process, so the counter
/// sees exactly this file's work).
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

    pub struct CountingAlloc;

    // SAFETY: delegates every operation to `System`; the counter is a
    // lock-free atomic, safe in any allocation context.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            unsafe { System.alloc_zeroed(layout) }
        }
    }
}

#[global_allocator]
static GLOBAL: counting::CountingAlloc = counting::CountingAlloc;

fn probe() -> u64 {
    counting::ALLOCS.load(std::sync::atomic::Ordering::Relaxed)
}

/// One serial month replay and the allocations it made, measured on a
/// scoped registry so metric bookkeeping is identical run to run.
fn replay_allocs(scenario: &Scenario) -> (MonthResult, u64) {
    let registry = Arc::new(obs::Registry::new());
    obs::with_metrics(registry, || {
        let before = probe();
        let month = scenario.run_month().expect("valid scenario");
        (month, probe() - before)
    })
}

#[test]
fn profiled_serial_replay_stays_within_five_pct_of_alloc_budget() {
    obs::prof::set_alloc_probe(probe);
    let scenario = Scenario::build(ScenarioConfig::small(0xA110C));

    // Warm every lazy cache (name interning, scratch growth) so the
    // baseline and profiled runs see identical steady state.
    replay_allocs(&scenario);
    let (plain_month, baseline) = replay_allocs(&scenario);
    assert!(baseline > 0, "the replay allocates something");

    obs::prof::reset();
    obs::prof::set_sample_every(1);
    obs::prof::set_enabled(true);
    let (profiled_month, profiled) = replay_allocs(&scenario);
    obs::prof::set_enabled(false);
    let profile = obs::prof::capture();
    obs::prof::reset();

    // Profiling observes the replay without changing it.
    assert!(plain_month.raw == profiled_month.raw, "profiled raw log differs");
    assert!(plain_month.cleaned == profiled_month.cleaned, "profiled cleaned log differs");
    assert_eq!(plain_month.removed_duplicates, profiled_month.removed_duplicates);
    assert_eq!(plain_month.reset_bursts, profiled_month.reset_bursts);

    // The profiler genuinely recorded the hot path, with the counting
    // allocator attributed through the probe.
    assert!(
        profile.entries.iter().any(|e| e.path == "churn.replay"),
        "replay root span missing from the profile"
    );
    assert!(
        profile
            .entries
            .iter()
            .any(|e| e.path.ends_with("collector.diff_session")),
        "collector spans missing from the profile"
    );
    assert!(
        profile.entries.iter().any(|e| e.total_allocs > 0),
        "alloc probe attributed nothing"
    );

    // The tripwire: full-sampling profiling costs at most 5% extra
    // allocations over the same replay.
    let budget = baseline + baseline / 20;
    assert!(
        profiled <= budget,
        "profiled replay blew the allocation budget: baseline {baseline}, \
         profiled {profiled} (cap {budget})"
    );
}
