//! Cross-crate integration tests: full-machine scenarios exercising the
//! public API end to end.

use tlbdown::core::OptConfig;
use tlbdown::kernel::prog::{BusyLoopProg, MadviseLoopProg, Prog, ProgAction, ProgCtx, ScriptProg};
use tlbdown::kernel::{InjectedBug, KernelConfig, Machine, Syscall};
use tlbdown::types::{CoreId, Cycles, Topology, VirtAddr};

#[test]
fn multicast_uses_cluster_batches() {
    // A shootdown to 20 responders spread over both sockets needs far
    // fewer ICR writes than IPIs (x2APIC cluster mode, §2.2): the kernel
    // sends one multicast per cluster batch of the topology.
    let topo = Topology::paper_machine();
    let cfg = KernelConfig {
        topo: topo.clone(),
        ..KernelConfig::paper_baseline()
    };
    let mut m = Machine::new(cfg);
    let mm = m.create_process().expect("boot: create process");
    m.spawn(mm, CoreId(0), Box::new(MadviseLoopProg::new(4, 3)));
    let targets: Vec<CoreId> = (1..=20u32)
        .map(|i| {
            if i <= 10 {
                CoreId(i * 2)
            } else {
                CoreId(28 + (i - 11) * 2)
            }
        })
        .collect();
    for &core in &targets {
        m.spawn(mm, core, Box::new(BusyLoopProg));
    }
    m.run_until(Cycles::new(10_000_000));
    let ipis = m.stats.counters.get("ipis_sent");
    assert!(ipis >= 60, "3 shootdowns × 20 targets expected, got {ipis}");
    let batches = topo.cluster_batches(&targets).len();
    assert!(
        batches * 4 <= targets.len(),
        "cluster multicast should amortize ICR writes: {batches} writes for {} targets",
        targets.len()
    );
    assert!(m.violations().is_empty(), "{:?}", m.violations());
}

#[test]
fn identical_seeds_are_bit_identical() {
    let run = || {
        let mut cfg = KernelConfig::test_machine(4).with_opts(OptConfig::all());
        cfg.noise_cycles = 200;
        cfg.seed = 0xfeed;
        let mut m = Machine::new(cfg);
        let mm = m.create_process().expect("boot: create process");
        m.spawn(mm, CoreId(0), Box::new(MadviseLoopProg::new(6, 20)));
        m.spawn(mm, CoreId(1), Box::new(BusyLoopProg));
        m.spawn(mm, CoreId(2), Box::new(MadviseLoopProg::new(3, 20)));
        m.run_until(Cycles::new(20_000_000));
        (
            m.now(),
            m.engine.events_processed(),
            m.stats.counters.iter().collect::<Vec<_>>(),
            m.stats.syscall_lat[&(CoreId(0), "madvise_dontneed")].mean(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);
}

#[test]
fn batched_core_is_skipped_and_resyncs() {
    // §4.2: while a core executes a batched syscall, initiators skip its
    // IPI; the core re-syncs via the generation check at kernel exit and
    // never uses a stale entry afterwards.
    let cfg = KernelConfig::test_machine(3).with_opts(OptConfig::baseline().with_batching(true));
    let mut m = Machine::new(cfg);
    let mm = m.create_process().expect("boot: create process");
    // Two threads madvise-looping concurrently: each spends most time in
    // the (batched) syscall, so each is regularly skipped by the other.
    m.spawn(mm, CoreId(0), Box::new(MadviseLoopProg::new(8, 40)));
    m.spawn(mm, CoreId(1), Box::new(MadviseLoopProg::new(8, 40)));
    m.run_until(Cycles::new(60_000_000));
    assert_eq!(m.stats.counters.get("madvise_dontneed"), 80);
    assert!(
        m.stats.counters.get("batched_skip") > 0,
        "batched cores should be skipped: {:?}",
        m.stats.counters
    );
    assert!(m.violations().is_empty(), "{:?}", m.violations());
}

#[test]
fn nmi_uaccess_extension_blocks_the_early_ack_hazard() {
    // §3.2's second exception: an NMI delivered after the early ack but
    // before the flush must not access user memory through the stale TLB.
    // With the nmi_uaccess_okay extension the probe is denied; with the
    // check omitted (failure injection) the oracle catches a stale read.
    let run = |buggy: bool| {
        let cfg = KernelConfig::test_machine(2)
            .with_opts(
                OptConfig::baseline()
                    .with_early_ack(true)
                    .with_concurrent(true),
            )
            .with_safe_mode(false) // single PCID: user touches warm the probe's view
            .with_injected_bug(buggy.then_some(InjectedBug::NmiCheck));
        let mut m = Machine::new(cfg);
        let mm = m.create_process().expect("boot: create process");
        let addr = m.setup_map_anon(mm, 16).expect("boot: map anon");
        // Responder hammers the last page of the range, keeping exactly
        // the entry the NMI will probe warm in its TLB. That page is
        // flushed last by the responder's handler, so the window between
        // the early ack and its invalidation is widest.
        #[derive(Clone)]
        struct Warmer {
            addr: u64,
            i: u64,
        }
        impl Prog for Warmer {
            fn next(&mut self, _ctx: &ProgCtx) -> ProgAction {
                self.i += 1;
                if self.i > 400_000 {
                    return ProgAction::Exit;
                }
                ProgAction::Access {
                    va: VirtAddr::new(self.addr + 15 * 4096),
                    write: true,
                }
            }
        }
        m.spawn(
            mm,
            CoreId(1),
            Box::new(Warmer {
                addr: addr.as_u64(),
                i: 0,
            }),
        );
        // Initiator repeatedly zaps the whole region (10+ PTEs → a long
        // responder flush window after the early ack).
        let zap = ProgAction::Syscall(Syscall::MadviseDontNeed { addr, pages: 16 });
        m.spawn(mm, CoreId(0), Box::new(ScriptProg::new(vec![zap; 400])));
        // Rain NMIs on the responder, probing the last page of the range
        // (flushed last → widest stale window).
        let probe = VirtAddr::new(addr.as_u64() + 15 * 4096);
        let mut t = 0u64;
        for _ in 0..600 {
            t += 10_000;
            m.run_until(Cycles::new(t));
            m.inject_nmi(CoreId(0), CoreId(1), Some(probe));
        }
        m.run_until(Cycles::new(t + 1_000_000));
        (
            m.violations().len(),
            m.stats.counters.get("nmi_uaccess_denied"),
            m.stats.counters.get("nmi_uaccess"),
        )
    };
    let (viol_ok, denied_ok, _) = run(false);
    assert_eq!(viol_ok, 0, "the extended check must keep NMI probes safe");
    assert!(
        denied_ok > 0,
        "some probes should land in the window and be denied"
    );
    let (viol_buggy, _, probed) = run(true);
    assert!(probed > 0);
    assert!(
        viol_buggy > 0,
        "without the check, some probe must read through a stale entry"
    );
}

#[test]
fn cow_after_fork_style_sharing_is_isolated() {
    // Two processes privately map the same file; one writes (CoW). The
    // other's reads must keep translating to the original page-cache
    // frame, and frame refcounts must drop correctly on exit.
    let cfg = KernelConfig::test_machine(2).with_opts(OptConfig::all());
    let mut m = Machine::new(cfg);
    let f = m.create_file(4).expect("boot: create file");
    let mm_a = m.create_process().expect("boot: create process");
    let mm_b = m.create_process().expect("boot: create process");
    let addr_a = m.setup_map_file(mm_a, f, false).expect("boot: map file");
    let addr_b = m.setup_map_file(mm_b, f, false).expect("boot: map file");
    // A reads then writes every page (CoW); B only reads.
    let script = |addr: VirtAddr, writer: bool| {
        let access = |i: u64, write| ProgAction::Access {
            va: VirtAddr::new(addr.as_u64() + i * 4096),
            write,
        };
        let mut steps: Vec<_> = (0..4).map(|i| access(i, false)).collect();
        if writer {
            steps.extend((0..4).map(|i| access(i, true)));
        }
        Box::new(ScriptProg::new(steps))
    };
    m.spawn(mm_a, CoreId(0), script(addr_a, true));
    m.spawn(mm_b, CoreId(1), script(addr_b, false));
    m.run_until(Cycles::new(10_000_000));
    assert_eq!(m.stats.counters.get("cow_fault"), 4);
    assert!(m.violations().is_empty(), "{:?}", m.violations());
    // B's PTEs still point into the page cache; A's point at private copies.
    let file_frames: Vec<_> = m.files[&f].pages.clone();
    for i in 0..4u64 {
        let (pte_b, _) = m.mms[&mm_b]
            .space
            .entry(VirtAddr::new(addr_b.as_u64() + i * 4096))
            .unwrap();
        assert_eq!(
            pte_b.addr, file_frames[i as usize],
            "B shares the page cache"
        );
        let (pte_a, _) = m.mms[&mm_a]
            .space
            .entry(VirtAddr::new(addr_a.as_u64() + i * 4096))
            .unwrap();
        assert_ne!(pte_a.addr, file_frames[i as usize], "A got a private copy");
        assert!(pte_a.writable());
    }
}

#[test]
fn safe_mode_flushes_both_views() {
    // Under PTI every selective flush must hit kernel- and user-PCID
    // entries; a machine run in safe mode must never let a stale
    // user-view entry outlive a retired flush (the oracle distinguishes
    // views).
    let mut cfg = KernelConfig::test_machine(2)
        .with_opts(OptConfig::general_four())
        .with_safe_mode(true);
    cfg.noise_cycles = 100;
    let mut m = Machine::new(cfg);
    let mm = m.create_process().expect("boot: create process");
    m.spawn(mm, CoreId(0), Box::new(MadviseLoopProg::new(10, 60)));
    m.spawn(mm, CoreId(1), Box::new(BusyLoopProg));
    m.run_until(Cycles::new(80_000_000));
    assert_eq!(m.stats.counters.get("madvise_dontneed"), 60);
    assert!(
        m.stats.counters.get("user_flush_deferred") > 0,
        "{:?}",
        m.stats.counters
    );
    assert!(
        m.stats.counters.get("in_context_flushes") > 0,
        "{:?}",
        m.stats.counters
    );
    assert!(m.violations().is_empty(), "{:?}", m.violations());
}
