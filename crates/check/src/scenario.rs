//! Deterministic scenario builders for exploration.
//!
//! A scenario is a closure producing a fresh, identically-configured
//! machine on every call; the explorer owns all remaining nondeterminism
//! through its schedule. Scenarios here follow two rules:
//!
//! - programs terminate (the liveness check needs the event queue to
//!   drain), so no `BusyLoopProg`;
//! - any warm-up phase runs under plain FIFO inside the builder
//!   (`run_until`), concentrating the explorer's branch points on the
//!   protocol window under test instead of on boring setup traffic.

use tlbdown_core::OptConfig;
use tlbdown_kernel::chaos::{ChaosConfig, WatchdogConfig};
use tlbdown_kernel::prog::{ProgAction, ScriptProg};
use tlbdown_kernel::{InjectedBug, KernelConfig, Machine, Syscall};
use tlbdown_types::{CoreId, Cycles, VirtAddr};

/// Writes `pages` pages from `addr` once each (demand-faulting them in),
/// computes in `chunks` slices of 300 cycles so the calendar queue holds
/// resume events for interrupt arrivals to race with, re-reads
/// `retouch` if given, and exits.
fn warm_spin_retouch(addr: u64, pages: u64, chunks: u64, retouch: Option<u64>) -> Box<ScriptProg> {
    let warm = (0..pages).map(|i| ProgAction::Access {
        va: VirtAddr::new(addr + i * 4096),
        write: true,
    });
    let spin = (0..chunks).map(|_| ProgAction::Compute(Cycles::new(300)));
    let retouch = retouch.map(|va| ProgAction::Access {
        va: VirtAddr::new(va),
        write: false,
    });
    Box::new(ScriptProg::new(warm.chain(spin).chain(retouch).collect()))
}

/// Waits `delay` cycles, then `madvise(MADV_DONTNEED)`s the range and
/// exits — one precisely-placed shootdown.
fn delayed_zap(addr: u64, pages: u64, delay: u64) -> Box<ScriptProg> {
    Box::new(ScriptProg::new(vec![
        ProgAction::Compute(Cycles::new(delay)),
        ProgAction::Syscall(Syscall::MadviseDontNeed {
            addr: VirtAddr::new(addr),
            pages,
        }),
    ]))
}

/// Calibrated zap delay for [`fracture_probe`]: under plain FIFO the
/// shootdown IPI reaches the responder just *after* its re-touch of the
/// zapped page (a pre-retire hit, safe by the shootdown contract), but
/// inside the explorer's timing-perturbation window — one preemption
/// pulls the IPI ahead of the re-touch, so the flush runs and retires
/// first and the re-touch then goes through whatever the fracture path
/// left cached.
pub const FRACTURE_PROBE_DEMO_ZAP_DELAY: u64 = 7_000;

/// The [`fracture_probe`] scenario at the calibrated zap delay.
pub fn fracture_probe_demo(buggy: bool) -> Machine {
    fracture_probe(buggy, FRACTURE_PROBE_DEMO_ZAP_DELAY)
}

/// The huge-page fracture canary: a responder (core 1) promotes a 2MB
/// THP window and keeps the hugepage TLB entry warm; an initiator
/// (core 0) `madvise(MADV_DONTNEED)`s the window's first 8 subpages,
/// which splits the hugepage in place and flushes the range; the
/// responder then re-touches a zapped subpage. The correct fracture path
/// evicts the stale 2MB entry during the ranged flush (every INVLPG
/// drops all page sizes), so every interleaving is safe. With `buggy`
/// ([`InjectedBug::Fracture`]), INVLPG only evicts the 4KB-sized
/// key: schedules that retire the flush before the re-touch read freed
/// memory through the surviving 2MB entry — the race the explorer must
/// catch while the real path explores clean.
pub fn fracture_probe(buggy: bool, zap_delay: u64) -> Machine {
    /// Subpages zapped out of the 512-page window.
    const ZAP_PAGES: u64 = 8;
    let cfg =
        KernelConfig::test_machine(2).with_injected_bug(buggy.then_some(InjectedBug::Fracture));
    let mut m = Machine::new(cfg);
    let mm = m.create_process().expect("boot: create process");
    let addr = m.setup_map_anon_thp(mm, 512).expect("boot: map thp anon");
    let a = addr.as_u64();
    m.spawn(mm, CoreId(1), warm_spin_retouch(a, 1, 40, Some(a + 4096)));
    m.spawn(mm, CoreId(0), delayed_zap(a, ZAP_PAGES, zap_delay));
    m
}

/// Two cores in one address space, both running the canonical
/// mmap + touch + `madvise(MADV_DONTNEED)` loop, shooting each other down.
/// Exercises the full initiator and responder state machines (plus
/// batching/in-context/CoW paths as `opts` enables them) and terminates.
pub fn dueling_madvise(opts: OptConfig) -> Machine {
    dueling_madvise_on(opts, tlbdown_topo::TopologySpec::Flat)
}

/// [`dueling_madvise`] over an arbitrary interconnect shape.
pub fn dueling_madvise_on(opts: OptConfig, interconnect: tlbdown_topo::TopologySpec) -> Machine {
    let cfg = KernelConfig::test_machine(2)
        .with_opts(opts)
        .with_topology(interconnect);
    let mut m = Machine::new(cfg);
    let mm = m.create_process().expect("boot: create process");
    m.spawn(
        mm,
        CoreId(0),
        Box::new(tlbdown_kernel::prog::MadviseLoopProg::new(4, 2)),
    );
    m.spawn(
        mm,
        CoreId(1),
        Box::new(tlbdown_kernel::prog::MadviseLoopProg::new(2, 2)),
    );
    m
}

/// [`dueling_madvise`] at cumulative level `level`, with shootdown
/// signal at every level. Paper levels (0..=[`OptConfig::PAPER_MAX_LEVEL`])
/// are byte-identical to [`dueling_madvise`], keeping the committed
/// report and trace baselines stable. The follow-on elision levels (L7
/// reuse-skip, L8 numaPTE) run the same duel with the reuse window
/// shrunk below the working set: the elided madvise flushes turn into
/// capacity-eviction debt flushes, so gates that measure shootdowns
/// (exploration branch points, per-phase attribution, chaos IPI faults)
/// keep real IPIs to bite on. L8 additionally splits the two duelling
/// cores across two sockets so replica sync and node-local metadata
/// fetch are live.
pub fn dueling_madvise_at(level: u8) -> Machine {
    dueling_madvise_at_on(level, tlbdown_topo::TopologySpec::Flat)
}

/// [`dueling_madvise_at`] routed over the 2D mesh interconnect: every
/// cacheline transfer and IPI pays per-hop link and congestion costs,
/// and the protocol must stay safe and live whatever that does to
/// relative timing.
pub fn dueling_madvise_mesh_at(level: u8) -> Machine {
    dueling_madvise_at_on(level, tlbdown_topo::TopologySpec::Mesh)
}

fn dueling_madvise_at_on(level: u8, interconnect: tlbdown_topo::TopologySpec) -> Machine {
    let opts = OptConfig::cumulative(level as usize);
    if usize::from(level) <= OptConfig::PAPER_MAX_LEVEL {
        return dueling_madvise_on(opts, interconnect);
    }
    let mut cfg = KernelConfig::test_machine(2)
        .with_opts(opts)
        .with_topology(interconnect)
        .with_reuse_window_cap(2);
    if opts.numa_pte {
        cfg.topo = tlbdown_types::Topology::new(2, 1);
    }
    let mut m = Machine::new(cfg);
    let mm = m.create_process().expect("boot: create process");
    // Both cores overflow the shared window: each madvise parks four
    // pages into a two-entry window, so each core pays debt flushes —
    // real cross-core shootdowns — while the other is still running user
    // code (a core whose flushes were all elided would exit too early to
    // ever be a remote responder).
    m.spawn(
        mm,
        CoreId(0),
        Box::new(tlbdown_kernel::prog::MadviseLoopProg::new(4, 2)),
    );
    m.spawn(
        mm,
        CoreId(1),
        Box::new(tlbdown_kernel::prog::MadviseLoopProg::new(4, 2)),
    );
    m
}

/// Calibrated park delay for [`reuse_probe`]: under plain FIFO the
/// responder's re-touch of the probe page lands just *before* the
/// initiator's elided park (a pre-retire hit through the still-cached
/// entry, legal even when the buggy variant retires at park), but
/// inside the explorer's perturbation reach — pulling the lever
/// munmap's IPI arrivals earlier both finishes the initiator's
/// shootdown sooner (the park runs earlier) and spends responder cycles
/// in the IRQ handler (the re-touch runs later), crossing the two.
pub const REUSE_PROBE_DEMO_PARK_DELAY: u64 = 16_000;

/// The [`reuse_probe`] scenario at the calibrated park delay.
pub fn reuse_probe_demo(buggy: bool) -> Machine {
    reuse_probe(buggy, REUSE_PROBE_DEMO_PARK_DELAY)
}

/// The L7 reuse-skip canary: a responder (core 1) warms a lever range
/// plus one probe page; an initiator (core 0) `munmap`s the lever range
/// — a real shootdown, whose race-eligible IPI arrivals give the
/// explorer its timing lever — and then `madvise(DONTNEED)`s the probe
/// page, which the reuse window parks with **no flush**. The real
/// protocol keeps the parked oracle pairs un-retired, so the
/// responder's re-touch through its surviving TLB entry is legal in
/// every interleaving. With `buggy`
/// ([`InjectedBug::ReuseSkip`]) the park retires the pairs
/// immediately: schedules where the park completes before the re-touch
/// turn that same cached-entry hit into a stale read — the race the
/// explorer must catch while the real reuse-skip path explores clean.
pub fn reuse_probe(buggy: bool, park_delay: u64) -> Machine {
    /// Lever range: enough PTEs that the munmap shootdown's IPI + ack +
    /// per-entry flush machinery spans a perturbable stretch of cycles.
    const LEVER_PAGES: u64 = 8;
    let cfg = KernelConfig::test_machine(2)
        .with_opts(OptConfig::baseline().with_reuse_skip(true))
        // Single PCID: the responder's user touches warm exactly the
        // view its re-touch reads.
        .with_safe_mode(false)
        .with_injected_bug(buggy.then_some(InjectedBug::ReuseSkip));
    let mut m = Machine::new(cfg);
    let mm = m.create_process().expect("boot: create process");
    let addr = m
        .setup_map_anon(mm, LEVER_PAGES + 1)
        .expect("boot: map anon");
    let probe = addr.as_u64() + LEVER_PAGES * 4096;
    m.spawn(
        mm,
        CoreId(1),
        warm_spin_retouch(addr.as_u64(), LEVER_PAGES + 1, 40, Some(probe)),
    );
    // Wait, `munmap` the lever range (a real shootdown whose IPI arrivals
    // are the explorer's race-eligible lever), then `madvise` the single
    // probe page (the elided reuse-skip zap), and exit.
    m.spawn(
        mm,
        CoreId(0),
        Box::new(ScriptProg::new(vec![
            ProgAction::Compute(Cycles::new(park_delay)),
            ProgAction::Syscall(Syscall::Munmap {
                addr,
                pages: LEVER_PAGES,
            }),
            ProgAction::Syscall(Syscall::MadviseDontNeed {
                addr: VirtAddr::new(probe),
                pages: 1,
            }),
        ])),
    );
    m
}

/// Calibrated zap delay for [`numapte_probe`]: under plain FIFO the
/// remote-socket responder's re-touch lands just *before* the zap's
/// flush retires (a pre-retire hit through its still-cached entry),
/// but one explorer perturbation pulls the shootdown IPI ahead of the
/// re-touch: the flush then runs and retires first, the re-touch
/// misses its flushed TLB, and the page walk goes through whatever the
/// socket's replica holds.
pub const NUMAPTE_PROBE_DEMO_ZAP_DELAY: u64 = 15_000;

/// The [`numapte_probe`] scenario at the calibrated zap delay.
pub fn numapte_probe_demo(buggy: bool) -> Machine {
    numapte_probe(buggy, NUMAPTE_PROBE_DEMO_ZAP_DELAY)
}

/// The L8 numaPTE canary, on a two-socket machine (one core per
/// socket): a responder (core 1, socket 1) warms a range; an initiator
/// (core 0, socket 0) zaps it after `zap_delay`; the responder then
/// re-touches a zapped page. The real replica-sync updates socket 1's
/// page-table replica at zap time, so a post-flush re-touch demand
/// faults a fresh page in every interleaving. With `buggy`
/// ([`InjectedBug::NumaPte`]) only socket 0's replica sees the
/// update: schedules that retire the flush before the re-touch leave
/// the responder walking socket 1's stale replica — a TLB fill at the
/// already-retired version — the race the explorer must catch while
/// the real numaPTE path explores clean.
pub fn numapte_probe(buggy: bool, zap_delay: u64) -> Machine {
    /// Range size: same wide post-ack flush window as [`nmi_probe`].
    const PAGES: u64 = 8;
    let mut cfg = KernelConfig::test_machine(2)
        .with_opts(OptConfig::baseline().with_numa_pte(true))
        .with_safe_mode(false)
        .with_injected_bug(buggy.then_some(InjectedBug::NumaPte));
    // One core per socket: every walk, sync and shootdown in the duel
    // crosses the socket boundary.
    cfg.topo = tlbdown_types::Topology::new(2, 1);
    let mut m = Machine::new(cfg);
    let mm = m.create_process().expect("boot: create process");
    let a = m
        .setup_map_anon(mm, PAGES)
        .expect("boot: map anon")
        .as_u64();
    let last = a + (PAGES - 1) * 4096;
    m.spawn(mm, CoreId(1), warm_spin_retouch(a, PAGES, 40, Some(last)));
    m.spawn(mm, CoreId(0), delayed_zap(a, PAGES, zap_delay));
    m
}

/// Calibrated injection time for [`nmi_probe`] at which the FIFO
/// schedule is safe even with the buggy check — the NMI nominally lands
/// just after the responder's flush completes — but the explorer's
/// timing-perturbation window can pull the arrival back inside the
/// early-ack window, where only the §3.2 extension saves the probe.
pub const NMI_PROBE_DEMO_INJECT_AT: u64 = 17_500;

/// The [`nmi_probe`] scenario at the calibrated demo injection time.
pub fn nmi_probe_demo(buggy: bool) -> Machine {
    nmi_probe(buggy, NMI_PROBE_DEMO_INJECT_AT)
}

/// Calibrated injection time for [`quarantine_probe`], chosen the same
/// way as [`NMI_PROBE_DEMO_INJECT_AT`]: FIFO-safe, but inside the
/// explorer's perturbation reach of the quarantined responder's
/// ack-to-flush window.
pub const QUARANTINE_PROBE_DEMO_INJECT_AT: u64 = 17_500;

/// The [`quarantine_probe`] scenario at the calibrated injection time.
pub fn quarantine_probe_demo(buggy: bool) -> Machine {
    quarantine_probe(buggy, QUARANTINE_PROBE_DEMO_INJECT_AT)
}

/// The escalation-ladder quarantine scenario: identical traffic to
/// [`nmi_probe`] — responder (core 1) warms a range, initiator (core 0)
/// zaps it, one NMI probes the last page — but core 1 starts
/// *quarantined* by the watchdog escalation ladder. The real quarantine
/// semantics force the responder onto the unconditional full-flush path,
/// where flush and ack happen in one step and every interleaving is
/// safe. With `buggy` set ([`InjectedBug::Quarantine`]), the
/// responder instead keeps the selective early-ack path *and* skips the
/// `acked_unflushed` bookkeeping — so an NMI pulled into the ack-to-
/// flush window sails past `nmi_uaccess_okay` and reads a stale entry.
/// The explorer must catch that variant while the real path explores
/// clean.
pub fn quarantine_probe(buggy: bool, inject_at: u64) -> Machine {
    /// Same range size as [`nmi_probe`]: a wide post-ack flush window.
    const PAGES: u64 = 8;
    let cfg = KernelConfig::test_machine(2)
        .with_opts(
            OptConfig::baseline()
                .with_early_ack(true)
                .with_concurrent(true),
        )
        .with_safe_mode(false)
        .with_chaos(ChaosConfig {
            watchdog: WatchdogConfig {
                // Probation long enough that core 1 stays quarantined for
                // the scenario's whole (single-shootdown) lifetime.
                probation_acks: 1_000_000,
                ..WatchdogConfig::default()
            },
            ..ChaosConfig::default()
        })
        .with_injected_bug(buggy.then_some(InjectedBug::Quarantine));
    let mut m = Machine::new(cfg);
    m.quarantine_core(CoreId(1));
    let mm = m.create_process().expect("boot: create process");
    let addr = m.setup_map_anon(mm, PAGES).expect("boot: map anon");
    m.spawn(
        mm,
        CoreId(1),
        warm_spin_retouch(addr.as_u64(), PAGES, 200, None),
    );
    m.spawn(mm, CoreId(0), delayed_zap(addr.as_u64(), PAGES, 12_000));
    m.run_until(Cycles::new(inject_at));
    let probe = VirtAddr::new(addr.as_u64() + (PAGES - 1) * 4096);
    m.inject_nmi(CoreId(0), CoreId(1), Some(probe));
    m
}

/// The §3.2 NMI-probe scenario: a responder (core 1) warms a range of
/// TLB entries; an initiator (core 0) zaps the range once; a single NMI
/// probing the last page is injected at `inject_at` cycles. With the
/// `nmi_uaccess_okay` pending-flush extension every interleaving is safe;
/// with `buggy` set, schedules that deliver the probe after the early
/// ack + initiator retire but before the responder's own invalidation
/// read through a stale entry — the race the explorer is pointed at.
pub fn nmi_probe(buggy: bool, inject_at: u64) -> Machine {
    /// Range size: enough PTEs that the responder's per-entry flush phase
    /// after its early ack spans thousands of cycles.
    const PAGES: u64 = 8;
    let cfg = KernelConfig::test_machine(2)
        .with_opts(
            OptConfig::baseline()
                .with_early_ack(true)
                .with_concurrent(true),
        )
        // Single PCID: the responder's user touches warm exactly the view
        // the kernel probe reads.
        .with_safe_mode(false)
        .with_injected_bug(buggy.then_some(InjectedBug::NmiCheck));
    let mut m = Machine::new(cfg);
    let mm = m.create_process().expect("boot: create process");
    let addr = m.setup_map_anon(mm, PAGES).expect("boot: map anon");
    m.spawn(
        mm,
        CoreId(1),
        warm_spin_retouch(addr.as_u64(), PAGES, 200, None),
    );
    m.spawn(mm, CoreId(0), delayed_zap(addr.as_u64(), PAGES, 12_000));
    // Warm-up runs FIFO inside the builder; exploration starts at the
    // injection point with the shootdown machinery in (or near) flight.
    m.run_until(Cycles::new(inject_at));
    let probe = VirtAddr::new(addr.as_u64() + (PAGES - 1) * 4096);
    m.inject_nmi(CoreId(0), CoreId(1), Some(probe));
    m
}
