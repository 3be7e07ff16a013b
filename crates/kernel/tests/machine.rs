//! End-to-end machine tests: programs run, syscalls work, shootdowns
//! synchronize TLBs, and the safety oracle stays quiet for every protocol
//! variant — while flagging the LATR-style lazy mode.

use tlbdown_core::OptConfig;
use tlbdown_kernel::prog::{BusyLoopProg, MadviseLoopProg, Prog, ProgAction, ProgCtx, ScriptProg};
use tlbdown_kernel::{KernelConfig, Machine, Syscall};
use tlbdown_types::{CoreId, Cycles, VirtAddr};

fn boot(cores: u32, opts: OptConfig, safe: bool) -> Machine {
    Machine::new(
        KernelConfig::test_machine(cores)
            .with_opts(opts)
            .with_safe_mode(safe),
    )
}

#[test]
fn single_thread_madvise_runs_clean() {
    let mut m = boot(2, OptConfig::baseline(), true);
    let mm = m.create_process().expect("boot: create process");
    m.spawn(mm, CoreId(0), Box::new(MadviseLoopProg::new(4, 10)));
    m.run();
    assert_eq!(m.stats.counters.get("madvise_dontneed"), 10);
    assert_eq!(
        m.stats.counters.get("demand_fault"),
        40,
        "every touch re-faults"
    );
    assert!(
        m.violations().is_empty(),
        "violations: {:?}",
        m.violations()
    );
}

#[test]
fn shootdown_reaches_responder() {
    // A busy responder thread on core 1 shares the mm: madvise on core 0
    // must IPI core 1.
    let mut m = boot(2, OptConfig::baseline(), true);
    let mm = m.create_process().expect("boot: create process");
    m.spawn(mm, CoreId(0), Box::new(MadviseLoopProg::new(4, 5)));
    m.spawn(mm, CoreId(1), Box::new(BusyLoopProg));
    m.run_until(Cycles::new(3_000_000));
    assert!(
        m.stats.counters.get("ipis_sent") >= 5,
        "counters: {:?}",
        m.stats.counters
    );
    assert!(m.stats.counters.get("shootdown_irq") >= 5);
    assert!(
        m.violations().is_empty(),
        "violations: {:?}",
        m.violations()
    );
    // Responder latency was recorded.
    assert!(
        m.stats
            .irq_lat
            .get(&CoreId(1))
            .map(|s| s.count())
            .unwrap_or(0)
            >= 5
    );
}

#[test]
fn all_optimizations_stay_safe() {
    for safe in [true, false] {
        for (level, _, opts) in OptConfig::all_levels() {
            let mut m = boot(4, opts, safe);
            let mm = m.create_process().expect("boot: create process");
            m.spawn(mm, CoreId(0), Box::new(MadviseLoopProg::new(8, 8)));
            m.spawn(mm, CoreId(1), Box::new(BusyLoopProg));
            m.spawn(mm, CoreId(2), Box::new(MadviseLoopProg::new(3, 8)));
            m.run_until(Cycles::new(20_000_000));
            assert!(
                m.violations().is_empty(),
                "level {level} safe={safe}: {:?}",
                m.violations()
            );
            assert_eq!(
                m.stats.counters.get("madvise_dontneed"),
                16,
                "level {level} safe={safe}"
            );
        }
    }
}

#[test]
fn optimized_initiator_is_faster() {
    // The headline claim: with the §3 techniques on, madvise latency on the
    // initiator drops relative to baseline (same machine, same workload).
    let lat = |opts: OptConfig| {
        let mut m = boot(2, opts, true);
        let mm = m.create_process().expect("boot: create process");
        m.spawn(mm, CoreId(0), Box::new(MadviseLoopProg::new(10, 50)));
        m.spawn(mm, CoreId(1), Box::new(BusyLoopProg));
        m.run_until(Cycles::new(50_000_000));
        m.stats.syscall_lat[&(CoreId(0), "madvise_dontneed")].mean()
    };
    let base = lat(OptConfig::baseline());
    let opt = lat(OptConfig::general_four());
    assert!(
        opt < base * 0.95,
        "expected ≥5% initiator gain: baseline {base:.0} vs optimized {opt:.0}"
    );
}

#[test]
fn early_ack_not_used_for_munmap_freed_tables() {
    // munmap frees page tables → early ack must be suppressed even when
    // the optimization is on (§3.2).
    let mut m = boot(2, OptConfig::baseline().with_early_ack(true), true);
    let mm = m.create_process().expect("boot: create process");
    // mmap, touch the pages mmap returned, munmap.
    #[derive(Clone)]
    struct P {
        state: u32,
        addr: u64,
        i: u64,
    }
    impl Prog for P {
        fn next(&mut self, ctx: &ProgCtx) -> ProgAction {
            match self.state {
                0 => {
                    self.state = 1;
                    ProgAction::Syscall(Syscall::MmapAnon { pages: 4 })
                }
                1 => {
                    self.addr = ctx.retval;
                    self.state = 2;
                    ProgAction::Nop
                }
                2 => {
                    if self.i < 4 {
                        let va = VirtAddr::new(self.addr + self.i * 4096);
                        self.i += 1;
                        ProgAction::Access { va, write: true }
                    } else {
                        self.state = 3;
                        ProgAction::Syscall(Syscall::Munmap {
                            addr: VirtAddr::new(self.addr),
                            pages: 4,
                        })
                    }
                }
                _ => ProgAction::Exit,
            }
        }
    }
    m.spawn(
        mm,
        CoreId(0),
        Box::new(P {
            state: 0,
            addr: 0,
            i: 0,
        }),
    );
    m.spawn(mm, CoreId(1), Box::new(BusyLoopProg));
    m.run_until(Cycles::new(5_000_000));
    assert!(m.stats.counters.get("munmap") >= 1);
    assert!(m.stats.counters.get("ipis_sent") >= 1);
    assert_eq!(
        m.stats.counters.get("early_ack"),
        0,
        "freed_tables must suppress early ack: {:?}",
        m.stats.counters
    );
    assert!(m.violations().is_empty(), "{:?}", m.violations());
}

#[test]
fn latr_lazy_mode_trips_the_oracle() {
    // The related-work foil: LATR-style deferral returns from madvise
    // before remote TLBs are flushed. A responder that keeps touching the
    // zapped page through its stale entry violates the guarantee.
    #[derive(Clone)]
    struct Toucher {
        addr: u64,
        i: u64,
    }
    impl Prog for Toucher {
        fn next(&mut self, _ctx: &ProgCtx) -> ProgAction {
            self.i += 1;
            if self.i > 100_000 {
                return ProgAction::Exit;
            }
            ProgAction::Access {
                va: VirtAddr::new(self.addr),
                write: false,
            }
        }
    }
    let run = |lazy: bool| {
        let mut m = Machine::new(
            KernelConfig::test_machine(2)
                .with_opts(OptConfig::baseline())
                .with_lazy_latr(lazy),
        );
        let mm = m.create_process().expect("boot: create process");
        let addr = m.setup_map_anon(mm, 1).expect("boot: map anon");
        m.spawn(
            mm,
            CoreId(1),
            Box::new(Toucher {
                addr: addr.as_u64(),
                i: 0,
            }),
        );
        // Warm-up delay so the toucher caches the mapping, then zap it.
        let zapper = ScriptProg::new(vec![
            ProgAction::Compute(Cycles::new(60_000)),
            ProgAction::Syscall(Syscall::MadviseDontNeed { addr, pages: 1 }),
        ]);
        m.spawn(mm, CoreId(0), Box::new(zapper));
        m.run_until(Cycles::new(10_000_000));
        m.violations().len()
    };
    assert_eq!(run(false), 0, "synchronous shootdowns are safe");
    assert!(
        run(true) > 0,
        "LATR-style lazy flushing must trip the oracle"
    );
}

#[test]
fn lazy_core_skips_ipi_and_syncs_on_wakeup() {
    // Core 1 runs a thread, exits (going lazy on the mm), then the
    // initiator flushes — no IPI needed; when core 1 runs a new thread of
    // the same mm it must flush at switch-in.
    let mut m = boot(2, OptConfig::baseline(), true);
    let mm = m.create_process().expect("boot: create process");
    let addr = m.setup_map_anon(mm, 1).expect("boot: map anon");
    // Core 1 touches the page then exits → lazy.
    m.spawn(
        mm,
        CoreId(1),
        Box::new(ScriptProg::new(vec![ProgAction::Access {
            va: addr,
            write: false,
        }])),
    );
    m.run_until(Cycles::new(2_000_000));
    assert!(m.stats.counters.get("enter_lazy") >= 1);
    // Now madvise from core 0: core 1 is lazy → skipped.
    m.spawn(
        mm,
        CoreId(0),
        Box::new(ScriptProg::new(vec![ProgAction::Syscall(
            Syscall::MadviseDontNeed { addr, pages: 1 },
        )])),
    );
    m.run_until(Cycles::new(3_000_000));
    assert!(
        m.stats.counters.get("lazy_skip") >= 1,
        "{:?}",
        m.stats.counters
    );
    assert_eq!(m.stats.counters.get("ipis_sent"), 0);
    // Wake a new thread of the same mm on core 1: it must re-sync and the
    // old translation must be gone.
    m.spawn(
        mm,
        CoreId(1),
        Box::new(ScriptProg::new(vec![ProgAction::Access {
            va: addr,
            write: false,
        }])),
    );
    m.run_until(Cycles::new(4_000_000));
    assert!(
        m.stats.counters.get("lazy_exit_flush") + m.stats.counters.get("switch_in_flush") >= 1,
        "{:?}",
        m.stats.counters
    );
    assert!(m.violations().is_empty(), "{:?}", m.violations());
}

#[test]
fn unknown_mm_setup_is_a_typed_error_not_a_panic() {
    use tlbdown_types::{MmId, SimError};
    let mut m = boot(2, OptConfig::baseline(), true);
    let bogus = MmId::new(0xdead);
    // Both setup entry points used to `expect("unknown mm")` and abort
    // the whole simulation in release builds; they must now surface the
    // bad handle as a typed error and leave the machine usable.
    assert_eq!(m.setup_map_anon(bogus, 4), Err(SimError::NoSuchMm(bogus)));
    let file = m.create_file(2).expect("create file");
    assert_eq!(
        m.setup_map_file(bogus, file, true),
        Err(SimError::NoSuchMm(bogus))
    );
    let mm = m
        .create_process()
        .expect("create process after bad handles");
    assert!(m.setup_map_anon(mm, 4).is_ok());
    assert!(m.violations().is_empty());
}

#[test]
fn cold_reboot_restarts_fresh_and_deterministic() {
    let run_workload = |m: &mut Machine| {
        let mm = m.create_process().expect("create process");
        m.spawn(mm, CoreId(0), Box::new(MadviseLoopProg::new(4, 6)));
        m.spawn(mm, CoreId(1), Box::new(BusyLoopProg));
        m.run_until(Cycles::new(2_000_000));
        assert!(m.violations().is_empty(), "{:?}", m.violations());
        m.state_digest()
    };

    let mut m = boot(2, OptConfig::all(), true);
    let first_boot = run_workload(&mut m);
    assert!(m.now() > Cycles::ZERO);
    assert!(!m.threads.is_empty());

    // The reboot loses everything volatile: clock, threads, address
    // spaces, TLB contents, in-flight shootdowns.
    let mut m = m.cold_reboot();
    assert_eq!(m.boot_epoch(), 1);
    assert_eq!(m.now(), Cycles::ZERO);
    assert!(m.threads.is_empty());
    assert!(m.mms.is_empty());
    assert!(m.shootdowns.is_empty());
    assert!(m.tlbs.iter().all(|t| t.is_empty()));

    // The rebooted kernel serves the same workload, and a second
    // machine rebooted the same way lands on the same digest: the
    // lifecycle is a pure function of (cfg, epoch).
    let second_boot = run_workload(&mut m);
    let mut twin = boot(2, OptConfig::all(), true);
    let twin_first = run_workload(&mut twin);
    assert_eq!(first_boot, twin_first);
    let mut twin = twin.cold_reboot();
    assert_eq!(run_workload(&mut twin), second_boot);
}
