//! Behavioural tests for the two follow-on protocol levels: L7 reuse-skip
//! (arXiv 2409.10946) and L8 numaPTE (arXiv 2401.15558), plus their
//! deliberately-broken canary variants.

use tlbdown_core::OptConfig;
use tlbdown_kernel::prog::ScriptProg;
use tlbdown_kernel::{InjectedBug, KernelConfig, Machine, ProgAction, Syscall};
use tlbdown_types::{CoreId, Cycles, Topology, VirtAddr};

fn reuse_cfg() -> KernelConfig {
    KernelConfig::test_machine(2).with_opts(OptConfig::baseline().with_reuse_skip(true))
}

fn numa_cfg() -> KernelConfig {
    let mut cfg =
        KernelConfig::test_machine(4).with_opts(OptConfig::baseline().with_numa_pte(true));
    cfg.topo = Topology::new(2, 2);
    cfg
}

fn run_script(m: &mut Machine, mm: tlbdown_types::MmId, core: u32, actions: Vec<ProgAction>) {
    m.spawn(mm, CoreId(core), Box::new(ScriptProg::new(actions)));
}

#[test]
fn reuse_skip_elides_the_madvise_flush_and_restores_on_refault() {
    let mut m = Machine::new(reuse_cfg());
    let mm = m.create_process().expect("boot: create process");
    let addr = m.setup_map_anon(mm, 4).expect("boot: map anon");
    run_script(
        &mut m,
        mm,
        0,
        vec![
            ProgAction::Access {
                va: addr,
                write: true,
            },
            ProgAction::Access {
                va: addr.add(4096),
                write: true,
            },
            ProgAction::Syscall(Syscall::MadviseDontNeed { addr, pages: 2 }),
        ],
    );
    // Allocator churn: the same addresses come right back — on a core
    // whose TLB never cached them, so the touch demand-faults into the
    // reuse window instead of riding the surviving entry.
    run_script(
        &mut m,
        mm,
        1,
        vec![
            ProgAction::Compute(Cycles::new(300_000)),
            ProgAction::Access {
                va: addr,
                write: true,
            },
            ProgAction::Access {
                va: addr.add(4096),
                write: false,
            },
        ],
    );
    m.run();
    assert_eq!(m.stats.counters.get("reuse_park"), 2, "both zaps parked");
    assert_eq!(m.stats.counters.get("reuse_hit"), 2, "both refaults reused");
    assert_eq!(
        m.stats.counters.get("shootdown"),
        0,
        "the madvise flush was elided and never paid back"
    );
    // The restored PTEs translate again.
    assert!(m.mms[&mm].space.entry(addr).is_some());
    assert!(m.mms[&mm].space.entry(addr.add(4096)).is_some());
    assert!(m.violations().is_empty(), "{:?}", m.violations());
}

#[test]
fn reuse_is_refused_when_the_pte_version_moved() {
    // Satellite: an elided flush is only legal when the versioned-PTE
    // check passes. Poison the kernel-side version after parking: the
    // refault must take the ordinary demand path (no reuse), stay legal,
    // and leave the parked debt to be paid by the later munmap.
    let mut m = Machine::new(reuse_cfg());
    let mm = m.create_process().expect("boot: create process");
    let addr = m.setup_map_anon(mm, 2).expect("boot: map anon");
    run_script(
        &mut m,
        mm,
        0,
        vec![
            ProgAction::Access {
                va: addr,
                write: true,
            },
            ProgAction::Syscall(Syscall::MadviseDontNeed { addr, pages: 1 }),
        ],
    );
    m.run();
    assert_eq!(m.stats.counters.get("reuse_park"), 1);
    // Simulate a concurrent modification the window missed.
    *m.mms
        .get_mut(&mm)
        .expect("mm exists")
        .pte_versions
        .entry(addr.vpn())
        .or_insert(0) += 1;
    // Refault from a cold TLB so the window is actually consulted.
    run_script(
        &mut m,
        mm,
        1,
        vec![
            ProgAction::Access {
                va: addr,
                write: true,
            },
            ProgAction::Syscall(Syscall::Munmap { addr, pages: 2 }),
        ],
    );
    m.run();
    assert_eq!(
        m.stats.counters.get("reuse_hit"),
        0,
        "stale version refused"
    );
    assert_eq!(m.stats.counters.get("reuse_version_miss"), 1);
    assert!(
        m.stats.counters.get("reuse_debt_flush") >= 1,
        "munmap paid the parked debt with a real flush"
    );
    assert!(m.violations().is_empty(), "{:?}", m.violations());
}

#[test]
fn reuse_window_overflow_pays_debt_flushes() {
    let mut m = Machine::new(reuse_cfg());
    let mm = m.create_process().expect("boot: create process");
    let pages = (tlbdown_kernel::mm::REUSE_WINDOW_CAP + 8) as u64;
    let addr = m.setup_map_anon(mm, pages).expect("boot: map anon");
    let mut actions = Vec::new();
    for i in 0..pages {
        actions.push(ProgAction::Access {
            va: addr.add(i * 4096),
            write: true,
        });
    }
    actions.push(ProgAction::Syscall(Syscall::MadviseDontNeed {
        addr,
        pages,
    }));
    run_script(&mut m, mm, 0, actions);
    m.run();
    assert_eq!(m.stats.counters.get("reuse_park"), pages);
    assert_eq!(
        m.stats.counters.get("reuse_evict"),
        8,
        "FIFO overflow evicts"
    );
    assert!(m.stats.counters.get("reuse_debt_flush") >= 8);
    assert_eq!(
        m.mms[&mm].reuse.len(),
        tlbdown_kernel::mm::REUSE_WINDOW_CAP,
        "window stays bounded"
    );
    assert!(m.violations().is_empty(), "{:?}", m.violations());
}

/// The canary script: core 1 warms a translation, core 0 zaps it with
/// `madvise(DONTNEED)` mid-window, core 1 touches it again.
fn cross_core_zap_scripts(m: &mut Machine, mm: tlbdown_types::MmId, addr: VirtAddr) {
    run_script(
        m,
        mm,
        1,
        vec![
            ProgAction::Access {
                va: addr,
                write: true,
            },
            ProgAction::Compute(Cycles::new(400_000)),
            ProgAction::Access {
                va: addr,
                write: false,
            },
        ],
    );
    run_script(
        m,
        mm,
        0,
        vec![
            ProgAction::Compute(Cycles::new(60_000)),
            ProgAction::Syscall(Syscall::MadviseDontNeed { addr, pages: 1 }),
        ],
    );
}

#[test]
fn buggy_reuse_skip_retire_at_park_is_a_real_stale_read() {
    // `InjectedBug::ReuseSkip` claims the flush guarantee at park
    // time with no flush run. Core 1's warm entry survives, so its
    // post-park touch reads through a translation the kernel has already
    // "guaranteed" gone — a deterministic oracle violation under the
    // §4.1 speculative fill. The real reuse-skip path runs the same
    // schedule clean: its parked pairs stay un-retired.
    for buggy in [false, true] {
        let mut m =
            Machine::new(reuse_cfg().with_injected_bug(buggy.then_some(InjectedBug::ReuseSkip)));
        let mm = m.create_process().expect("boot: create process");
        let addr = m.setup_map_anon(mm, 2).expect("boot: map anon");
        cross_core_zap_scripts(&mut m, mm, addr);
        m.run_until(Cycles::new(10_000_000));
        assert_eq!(m.stats.counters.get("reuse_park"), 1);
        if buggy {
            assert_eq!(m.stats.counters.get("reuse_buggy_retire"), 1);
            assert!(
                !m.violations().is_empty(),
                "retire-at-park must trip the stale-TLB oracle"
            );
        } else {
            assert!(m.violations().is_empty(), "{:?}", m.violations());
        }
    }
}

#[test]
fn numapte_syncs_replicas_and_fetches_metadata_node_locally() {
    let mut m = Machine::new(numa_cfg());
    let mm = m.create_process().expect("boot: create process");
    let addr = m.setup_map_anon(mm, 2).expect("boot: map anon");
    // Core 0 (socket 0) and core 2 (socket 1) both warm the page, then
    // core 0 unmaps it: the shootdown must cross sockets.
    run_script(
        &mut m,
        mm,
        2,
        vec![
            ProgAction::Access {
                va: addr,
                write: true,
            },
            ProgAction::Compute(Cycles::new(500_000)),
        ],
    );
    run_script(
        &mut m,
        mm,
        0,
        vec![
            ProgAction::Access {
                va: addr,
                write: false,
            },
            ProgAction::Compute(Cycles::new(60_000)),
            ProgAction::Syscall(Syscall::Munmap { addr, pages: 2 }),
        ],
    );
    m.run_until(Cycles::new(10_000_000));
    assert!(
        m.stats.counters.get("numapte_replica_sync") >= 1,
        "the PTE update synced the remote socket's replica"
    );
    assert!(
        m.stats.counters.get("numapte_local_fetch") >= 1,
        "the cross-socket responder read node-local metadata"
    );
    assert!(m.violations().is_empty(), "{:?}", m.violations());
}

#[test]
fn buggy_numapte_serves_a_stale_replica_walk() {
    // Core 2 (socket 1) loses its TLB entry to the munmap shootdown, but
    // under `buggy_numapte` its socket's replica never saw the update: the
    // re-walk installs the old PTE at the old version and the next access
    // reads through it after the real flush retired — an oracle violation.
    // The real L8 path synced the replica, so the same schedule is clean.
    for buggy in [false, true] {
        let mut m =
            Machine::new(numa_cfg().with_injected_bug(buggy.then_some(InjectedBug::NumaPte)));
        let mm = m.create_process().expect("boot: create process");
        let addr = m.setup_map_anon(mm, 2).expect("boot: map anon");
        run_script(
            &mut m,
            mm,
            2,
            vec![
                ProgAction::Access {
                    va: addr,
                    write: true,
                },
                ProgAction::Compute(Cycles::new(500_000)),
                ProgAction::Access {
                    va: addr,
                    write: false,
                },
            ],
        );
        run_script(
            &mut m,
            mm,
            0,
            vec![
                ProgAction::Access {
                    va: addr,
                    write: false,
                },
                ProgAction::Compute(Cycles::new(60_000)),
                ProgAction::Syscall(Syscall::Munmap { addr, pages: 2 }),
            ],
        );
        m.run_until(Cycles::new(10_000_000));
        if buggy {
            assert!(
                m.stats.counters.get("numapte_sync_skipped") >= 1,
                "the buggy path skipped at least one replica sync"
            );
            assert!(
                m.stats.counters.get("numapte_stale_walk") >= 1,
                "the stale replica satisfied a page walk"
            );
            assert!(
                !m.violations().is_empty(),
                "the stale-replica read must trip the oracle"
            );
        } else {
            assert!(m.violations().is_empty(), "{:?}", m.violations());
        }
    }
}

#[test]
fn both_levels_compose_without_violations() {
    let mut cfg = KernelConfig::test_machine(4)
        .with_opts(OptConfig::all().with_reuse_skip(true).with_numa_pte(true));
    cfg.topo = Topology::new(2, 2);
    let mut m = Machine::new(cfg);
    let mm = m.create_process().expect("boot: create process");
    let addr = m.setup_map_anon(mm, 8).expect("boot: map anon");
    for core in 0..4u32 {
        let base = addr.add(core as u64 * 2 * 4096);
        // Each core parks its own pages, then refaults the pages its
        // neighbour parked — cold in this core's TLB, warm in the window.
        let neighbour = addr.add(((core as u64 + 1) % 4) * 2 * 4096);
        run_script(
            &mut m,
            mm,
            core,
            vec![
                ProgAction::Access {
                    va: base,
                    write: true,
                },
                ProgAction::Syscall(Syscall::MadviseDontNeed {
                    addr: base,
                    pages: 2,
                }),
                ProgAction::Compute(Cycles::new(800_000)),
                ProgAction::Access {
                    va: neighbour,
                    write: true,
                },
            ],
        );
    }
    m.run_until(Cycles::new(30_000_000));
    assert!(m.stats.counters.get("reuse_hit") >= 1);
    assert!(m.stats.counters.get("numapte_replica_sync") >= 1);
    assert!(m.violations().is_empty(), "{:?}", m.violations());
}

#[test]
fn overlapping_mmap_records_a_typed_error_instead_of_panicking() {
    // Regression for the former `expect("cursor placement cannot
    // overlap")`: force the cursor onto an occupied range and confirm the
    // syscall fails with a recorded `InvalidArgument` while the machine
    // keeps running.
    let mut m = Machine::new(KernelConfig::test_machine(1));
    let mm = m.create_process().expect("boot: create process");
    let cursor = m.mms[&mm].mmap_cursor;
    m.mms
        .get_mut(&mm)
        .expect("mm exists")
        .insert_vma(tlbdown_kernel::Vma {
            range: tlbdown_types::VirtRange::pages(cursor, 4, tlbdown_types::PageSize::Size4K),
            kind: tlbdown_kernel::VmaKind::Anon,
            prot_write: true,
            prot_exec: false,
            thp: false,
        })
        .expect("manual vma placement");
    run_script(
        &mut m,
        mm,
        0,
        vec![ProgAction::Syscall(Syscall::MmapAnon { pages: 1 })],
    );
    m.run();
    assert!(
        m.recorded_errors()
            .iter()
            .any(|e| matches!(e, tlbdown_types::SimError::InvalidArgument(_))),
        "{:?}",
        m.recorded_errors()
    );
    assert!(m.violations().is_empty());
}

/// The L7 version mirror: every PTE change that stamps a new oracle
/// version must make the matching bump of the kernel-side
/// `pte_versions`, because the reuse-time version check reads only the
/// kernel side. A missed bump lets a parked page be reused across a
/// change it never saw. Runs every PTE-changing path once over one mm on
/// a 2-socket × 2-core machine at cumulative `level` and checks the
/// mirror on every page it touched.
fn pte_versions_mirror_the_oracle_at(level: usize) {
    let mut cfg = KernelConfig::test_machine(4).with_opts(OptConfig::cumulative(level));
    cfg.topo = Topology::new(2, 2);
    let mut m = Machine::new(cfg);
    let mm = m.create_process().expect("boot: create process");
    let anon = m.setup_map_anon(mm, 4).expect("boot: map anon");
    let shared_file = m.create_file(2).expect("boot: create file");
    let shared = m
        .setup_map_file(mm, shared_file, true)
        .expect("boot: map shared file");
    let private_file = m.create_file(1).expect("boot: create file");
    let private = m
        .setup_map_file(mm, private_file, false)
        .expect("boot: map private file");
    let page = |base: VirtAddr, i: u64| base.add(i * 4096);
    let write = |va: VirtAddr| ProgAction::Access { va, write: true };
    // A reader on the other socket caches the anon and shared pages, so
    // the flushes have a remote target and the replica sync a remote
    // socket.
    run_script(
        &mut m,
        mm,
        2,
        (0..4)
            .map(|i| page(anon, i))
            .chain([shared, page(shared, 1)])
            .map(|va| ProgAction::Access { va, write: false })
            .collect(),
    );
    run_script(
        &mut m,
        mm,
        0,
        vec![
            ProgAction::Compute(Cycles::new(200_000)),
            write(page(anon, 0)),
            write(page(anon, 1)),
            write(page(anon, 2)),
            write(page(anon, 3)),
            // Parks anon pages 0 and 1.
            ProgAction::Syscall(Syscall::MadviseDontNeed {
                addr: anon,
                pages: 2,
            }),
            // Two overlapping read-only mprotects; the first covers the
            // parked page 1.
            ProgAction::Syscall(Syscall::Mprotect {
                addr: page(anon, 1),
                pages: 2,
                write: false,
            }),
            ProgAction::Syscall(Syscall::Mprotect {
                addr: page(anon, 2),
                pages: 2,
                write: false,
            }),
            write(shared),
            write(page(shared, 1)),
            ProgAction::Syscall(Syscall::Msync {
                addr: shared,
                pages: 1,
            }),
            ProgAction::Syscall(Syscall::Fdatasync { file: shared_file }),
            // Demand-faults the private page read-only, then CoW-faults.
            write(private),
            // Pays the debt of parked page 0 and unmaps the rest.
            ProgAction::Syscall(Syscall::Munmap {
                addr: anon,
                pages: 4,
            }),
        ],
    );
    m.run();

    let counters = &m.stats.counters;
    assert_eq!(counters.get("reuse_park"), 2, "L{level}: madvise parked");
    assert!(
        counters.get("reuse_debt_flush") >= 2,
        "L{level}: mprotect and munmap paid parked debt"
    );
    assert_eq!(
        counters.get("writeback_pages"),
        2,
        "L{level}: msync + fdatasync"
    );
    assert_eq!(counters.get("cow_fault"), 1, "L{level}: CoW write");
    if level >= 8 {
        assert!(
            counters.get("numapte_replica_sync") > 0,
            "L{level}: replicas synced"
        );
    }
    let touched = (0..4)
        .map(|i| page(anon, i))
        .chain([shared, page(shared, 1), private]);
    for va in touched {
        let oracle = m.oracle.current_version(mm, va);
        assert!(oracle > 0, "L{level}: {va:?} was never changed");
        assert_eq!(
            oracle,
            m.mms[&mm].pte_versions[&va.vpn()],
            "L{level}: kernel version of {va:?} does not mirror the oracle"
        );
    }
    assert!(m.violations().is_empty(), "L{level}: {:?}", m.violations());
}

#[test]
fn pte_versions_mirror_the_oracle_at_l7() {
    pte_versions_mirror_the_oracle_at(7);
}

#[test]
fn pte_versions_mirror_the_oracle_at_l8() {
    pte_versions_mirror_the_oracle_at(8);
}
