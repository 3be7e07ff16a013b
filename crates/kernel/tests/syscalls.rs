//! Behavioural tests for the syscall surface: msync, mprotect, send,
//! fdatasync, munmap, and scheduling across address spaces.

use tlbdown_core::OptConfig;
use tlbdown_kernel::prog::{Prog, ProgAction, ProgCtx, ScriptProg};
use tlbdown_kernel::{InjectedBug, KernelConfig, Machine, Syscall};
use tlbdown_types::{CoreId, Cycles, PteFlags, VirtAddr};

fn boot(cores: u32) -> Machine {
    Machine::new(KernelConfig::test_machine(cores))
}

/// Drive a single script to completion on core 0 of `m`.
fn run_script(m: &mut Machine, mm: tlbdown_types::MmId, actions: Vec<ProgAction>) {
    m.spawn(mm, CoreId(0), Box::new(ScriptProg::new(actions)));
    m.run();
}

#[test]
fn msync_cleans_and_write_protects_dirty_pages() {
    let mut m = boot(1);
    let mm = m.create_process().expect("boot: create process");
    let f = m.create_file(4).expect("boot: create file");
    let addr = m.setup_map_file(mm, f, true).expect("boot: map file");
    run_script(
        &mut m,
        mm,
        vec![
            ProgAction::Access {
                va: addr,
                write: true,
            },
            ProgAction::Access {
                va: addr.add(4096),
                write: true,
            },
            ProgAction::Access {
                va: addr.add(2 * 4096),
                write: false,
            }, // read: stays clean
            ProgAction::Syscall(Syscall::Msync { addr, pages: 4 }),
        ],
    );
    assert_eq!(
        m.stats.counters.get("writeback_pages"),
        2,
        "only dirty pages written back"
    );
    // The written pages are now clean and write-protected.
    for i in [0u64, 1] {
        let (pte, _) = m.mms[&mm].space.entry(addr.add(i * 4096)).unwrap();
        assert!(!pte.writable());
        assert!(!pte.dirty());
        assert!(pte.flags.contains(PteFlags::SOFT_CLEAN));
    }
    // The read page kept its permissions.
    let (pte, _) = m.mms[&mm].space.entry(addr.add(2 * 4096)).unwrap();
    assert!(pte.writable());
    assert!(
        (0..4u64).all(|i| m.mms[&mm]
            .space
            .entry(addr.add(i * 4096))
            .is_none_or(|(pte, _)| !pte.dirty())),
        "page cache is clean after writeback"
    );
    assert!(m.violations().is_empty(), "{:?}", m.violations());
}

#[test]
fn write_after_msync_redirties_without_flush() {
    let mut m = boot(1);
    let mm = m.create_process().expect("boot: create process");
    let f = m.create_file(1).expect("boot: create file");
    let addr = m.setup_map_file(mm, f, true).expect("boot: map file");
    run_script(
        &mut m,
        mm,
        vec![
            ProgAction::Access {
                va: addr,
                write: true,
            },
            ProgAction::Syscall(Syscall::Msync { addr, pages: 1 }),
            ProgAction::Access {
                va: addr,
                write: true,
            }, // re-dirty fault
        ],
    );
    assert_eq!(m.stats.counters.get("re_dirty"), 1);
    let (pte, _) = m.mms[&mm].space.entry(addr).unwrap();
    assert!(pte.writable() && pte.dirty(), "file page dirty again");
    // Re-permitting needs no shootdown: only the msync flushed.
    assert_eq!(m.stats.counters.get("shootdown"), 1);
    assert!(m.violations().is_empty());
}

#[test]
fn mprotect_readonly_then_write_segfaults() {
    let mut m = boot(1);
    let mm = m.create_process().expect("boot: create process");
    let addr = m.setup_map_anon(mm, 2).expect("boot: map anon");
    run_script(
        &mut m,
        mm,
        vec![
            ProgAction::Access {
                va: addr,
                write: true,
            },
            ProgAction::Syscall(Syscall::Mprotect {
                addr,
                pages: 2,
                write: false,
            }),
            ProgAction::Access {
                va: addr,
                write: true,
            }, // now forbidden
        ],
    );
    assert_eq!(m.stats.counters.get("mprotect"), 1);
    assert_eq!(m.stats.counters.get("segfault"), 1);
    // mprotect to read-only required a flush.
    assert!(m.stats.counters.get("shootdown") >= 1);
}

#[test]
fn mprotect_to_writable_needs_no_flush() {
    let mut m = boot(1);
    let mm = m.create_process().expect("boot: create process");
    let addr = m.setup_map_anon(mm, 2).expect("boot: map anon");
    run_script(
        &mut m,
        mm,
        vec![
            ProgAction::Access {
                va: addr,
                write: true,
            },
            ProgAction::Syscall(Syscall::Mprotect {
                addr,
                pages: 2,
                write: false,
            }),
            ProgAction::Syscall(Syscall::Mprotect {
                addr,
                pages: 2,
                write: true,
            }),
            ProgAction::Access {
                va: addr,
                write: true,
            }, // permitted again
        ],
    );
    assert_eq!(m.stats.counters.get("segfault"), 0);
    // Only the protection *reduction* flushed.
    assert_eq!(m.stats.counters.get("shootdown"), 1);
    assert!(m.violations().is_empty());
}

#[test]
fn send_reads_user_memory_through_kernel_pcid() {
    let mut m = boot(1);
    let mm = m.create_process().expect("boot: create process");
    let f = m.create_file(3).expect("boot: create file");
    let addr = m.setup_map_file(mm, f, true).expect("boot: map file");
    run_script(
        &mut m,
        mm,
        vec![
            ProgAction::Access {
                va: addr,
                write: false,
            },
            ProgAction::Access {
                va: addr.add(4096),
                write: false,
            },
            ProgAction::Access {
                va: addr.add(2 * 4096),
                write: false,
            },
            ProgAction::Syscall(Syscall::Send { addr, pages: 3 }),
            ProgAction::Syscall(Syscall::Send { addr, pages: 3 }),
        ],
    );
    assert_eq!(m.stats.counters.get("send"), 2);
    assert_eq!(m.stats.counters.get("send_efault"), 0);
    // Under PTI (safe mode default) the kernel's accesses populate the
    // kernel PCID: the second send hits where the first missed.
    let tlb = &m.tlbs[0];
    assert!(tlb.stats().hits > 0);
    assert!(m.violations().is_empty());
}

#[test]
fn send_faults_unmapped_pages_in() {
    let mut m = boot(1);
    let mm = m.create_process().expect("boot: create process");
    let f = m.create_file(2).expect("boot: create file");
    let addr = m.setup_map_file(mm, f, true).expect("boot: map file");
    // No prior touches: the kernel demand-faults the pages itself.
    run_script(
        &mut m,
        mm,
        vec![ProgAction::Syscall(Syscall::Send { addr, pages: 2 })],
    );
    assert_eq!(m.stats.counters.get("send"), 1);
    assert!(
        m.mms[&mm].space.entry(addr).is_some(),
        "kernel faulted the page in"
    );
    assert!(m.violations().is_empty());
}

#[test]
fn fdatasync_covers_every_mapping_of_the_file() {
    let mut m = boot(1);
    let mm = m.create_process().expect("boot: create process");
    let f = m.create_file(4).expect("boot: create file");
    let a1 = m.setup_map_file(mm, f, true).expect("boot: map file");
    let a2 = m.setup_map_file(mm, f, true).expect("boot: map file");
    run_script(
        &mut m,
        mm,
        vec![
            ProgAction::Access {
                va: a1,
                write: true,
            },
            ProgAction::Access {
                va: a2.add(4096),
                write: true,
            },
            ProgAction::Syscall(Syscall::Fdatasync { file: f }),
        ],
    );
    assert_eq!(
        m.stats.counters.get("writeback_pages"),
        2,
        "both VMAs scanned"
    );
    for (addr, page) in [(a1, 0u64), (a2, 1)] {
        let (pte, _) = m.mms[&mm].space.entry(addr.add(page * 4096)).unwrap();
        assert!(!pte.writable(), "cleaned through both mappings");
    }
    assert!(m.violations().is_empty());
}

#[test]
fn munmap_frees_frames_and_faults_after() {
    let mut m = boot(1);
    let mm = m.create_process().expect("boot: create process");
    let addr = m.setup_map_anon(mm, 4).expect("boot: map anon");
    let frames_before = m.mem.allocated_frames();
    run_script(
        &mut m,
        mm,
        vec![
            ProgAction::Access {
                va: addr,
                write: true,
            },
            ProgAction::Access {
                va: addr.add(4096),
                write: true,
            },
            ProgAction::Syscall(Syscall::Munmap { addr, pages: 4 }),
            ProgAction::Access {
                va: addr,
                write: false,
            }, // no VMA any more
        ],
    );
    assert_eq!(m.stats.counters.get("munmap"), 1);
    assert_eq!(m.stats.counters.get("segfault"), 1, "the region is gone");
    // The two data frames were freed; table pages may also have been.
    assert!(m.mem.allocated_frames() <= frames_before);
    assert!(m.mms[&mm].vma_at(addr).is_none());
}

#[test]
fn two_processes_are_isolated_by_pcid() {
    // Threads of different processes alternate on one core; TLB entries
    // are PCID-tagged, so no flush storm and no cross-talk.
    let mut m = boot(1);
    let mm_a = m.create_process().expect("boot: create process");
    let mm_b = m.create_process().expect("boot: create process");
    let a = m.setup_map_anon(mm_a, 2).expect("boot: map anon");
    let b = m.setup_map_anon(mm_b, 2).expect("boot: map anon");
    // Interleave by spawning A, letting it finish, then B, then A again.
    m.spawn(
        mm_a,
        CoreId(0),
        Box::new(ScriptProg::new(vec![ProgAction::Access {
            va: a,
            write: true,
        }])),
    );
    m.run();
    m.spawn(
        mm_b,
        CoreId(0),
        Box::new(ScriptProg::new(vec![ProgAction::Access {
            va: b,
            write: true,
        }])),
    );
    m.run();
    let misses_before = m.tlbs[0].stats().misses;
    m.spawn(
        mm_a,
        CoreId(0),
        Box::new(ScriptProg::new(vec![ProgAction::Access {
            va: a,
            write: false,
        }])),
    );
    m.run();
    // A's entry survived B's tenure thanks to PCID tagging: no new miss
    // beyond the demand faults already counted.
    assert_eq!(
        m.tlbs[0].stats().misses,
        misses_before,
        "PCID-tagged entry survived"
    );
    assert!(m.violations().is_empty());
}

#[test]
fn yield_round_robins_threads_on_one_core() {
    let mut m = boot(1);
    let mm = m.create_process().expect("boot: create process");
    struct Yielder {
        left: u32,
        log: std::rc::Rc<std::cell::RefCell<Vec<u32>>>,
        id: u32,
    }
    impl Prog for Yielder {
        fn next(&mut self, _ctx: &ProgCtx) -> ProgAction {
            if self.left == 0 {
                return ProgAction::Exit;
            }
            self.left -= 1;
            self.log.borrow_mut().push(self.id);
            ProgAction::Yield
        }
    }
    let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    m.spawn(
        mm,
        CoreId(0),
        Box::new(Yielder {
            left: 3,
            log: log.clone(),
            id: 1,
        }),
    );
    m.spawn(
        mm,
        CoreId(0),
        Box::new(Yielder {
            left: 3,
            log: log.clone(),
            id: 2,
        }),
    );
    m.run();
    assert_eq!(&*log.borrow(), &vec![1, 2, 1, 2, 1, 2], "fair alternation");
    assert!(m.stats.counters.get("context_switch") >= 5);
}

#[test]
fn thp_fault_promotes_and_madvise_fractures() {
    let mut m = boot(1);
    let mm = m.create_process().expect("boot: create process");
    let addr = m.setup_map_anon_thp(mm, 512).expect("boot: map thp anon");
    run_script(
        &mut m,
        mm,
        vec![
            ProgAction::Access {
                va: addr,
                write: true,
            },
            // Lands inside the promoted hugepage: no second demand fault.
            ProgAction::Access {
                va: addr.add(5 * 4096),
                write: false,
            },
            // Fracture: split the hugepage, zap 8 of its 512 subpages.
            ProgAction::Syscall(Syscall::MadviseDontNeed { addr, pages: 8 }),
            // The remainder survives the split as 4KB PTEs.
            ProgAction::Access {
                va: addr.add(16 * 4096),
                write: false,
            },
        ],
    );
    assert_eq!(m.stats.counters.get("thp_promote"), 1);
    assert_eq!(
        m.stats.counters.get("demand_fault"),
        1,
        "one fault mapped 2MB"
    );
    assert_eq!(m.stats.counters.get("thp_split"), 1);
    // Zapped subpages are gone; the rest are intact 4KB leaves.
    assert!(m.mms[&mm].space.entry(addr).is_none());
    let (pte, size) = m.mms[&mm].space.entry(addr.add(16 * 4096)).unwrap();
    assert_eq!(size, tlbdown_types::PageSize::Size4K);
    assert!(pte.writable());
    assert!(m.violations().is_empty(), "{:?}", m.violations());
}

#[test]
fn buggy_fracture_leaves_a_stale_huge_entry() {
    // The `buggy_fracture` canary: INVLPG that only evicts the 4KB-sized
    // key leaves the fractured 2MB entry cached, so a later access to a
    // zapped subpage translates through freed memory — the oracle flags
    // it. The correct path (default) stays clean on the same script.
    let script = |addr: VirtAddr| {
        vec![
            ProgAction::Access {
                va: addr,
                write: true,
            },
            ProgAction::Syscall(Syscall::MadviseDontNeed { addr, pages: 8 }),
            // Re-touch a zapped subpage after the flush retired.
            ProgAction::Access {
                va: addr.add(4096),
                write: false,
            },
        ]
    };
    for buggy in [false, true] {
        let mut m = Machine::new(
            KernelConfig::test_machine(1).with_injected_bug(buggy.then_some(InjectedBug::Fracture)),
        );
        let mm = m.create_process().expect("boot: create process");
        let addr = m.setup_map_anon_thp(mm, 512).expect("boot: map thp anon");
        run_script(&mut m, mm, script(addr));
        assert_eq!(m.stats.counters.get("thp_promote"), 1);
        if buggy {
            assert!(
                !m.violations().is_empty(),
                "split-blind INVLPG must trip the stale-TLB oracle"
            );
        } else {
            assert!(m.violations().is_empty(), "{:?}", m.violations());
        }
    }
}

#[test]
fn set_associative_geometry_pays_stlb_penalty_under_pressure() {
    let mut m = Machine::new(
        KernelConfig::test_machine(1).with_tlb_geometry(tlbdown_tlb::TlbGeometry::skylake_sp()),
    );
    let mm = m.create_process().expect("boot: create process");
    let addr = m.setup_map_anon(mm, 256).expect("boot: map anon");
    // First pass fills 256 4KB entries (L1 holds 64); the second pass
    // finds the overflow only in the STLB and pays the extra latency.
    let mut actions = Vec::new();
    for pass in 0..2 {
        for i in 0..256u64 {
            actions.push(ProgAction::Access {
                va: addr.add(i * 4096),
                write: pass == 0,
            });
        }
    }
    run_script(&mut m, mm, actions);
    assert!(
        m.tlbs[0].stats().stlb_hits > 0,
        "working set larger than the L1 DTLB must hit in the STLB"
    );
    assert!(m.violations().is_empty(), "{:?}", m.violations());
}

#[test]
fn cow_write_through_one_mapping_preserves_the_other_reader() {
    // Private file mapping CoW: the writer gets a copy; a reader thread of
    // the same process sharing the same VMA keeps reading the ORIGINAL
    // page-cache frame after the CoW? No — same mm shares the PTE, so the
    // reader must see the new frame after the shootdown. Verify both the
    // shootdown and the PTE.
    let mut m = Machine::new(KernelConfig::test_machine(2).with_opts(OptConfig::all()));
    let mm = m.create_process().expect("boot: create process");
    let f = m.create_file(1).expect("boot: create file");
    let addr = m.setup_map_file(mm, f, false).expect("boot: map file");
    struct Reader {
        addr: u64,
        i: u64,
    }
    impl Prog for Reader {
        fn next(&mut self, _ctx: &ProgCtx) -> ProgAction {
            self.i += 1;
            if self.i > 20_000 {
                return ProgAction::Exit;
            }
            ProgAction::Access {
                va: VirtAddr::new(self.addr),
                write: false,
            }
        }
    }
    m.spawn(
        mm,
        CoreId(1),
        Box::new(Reader {
            addr: addr.as_u64(),
            i: 0,
        }),
    );
    m.spawn(
        mm,
        CoreId(0),
        Box::new(ScriptProg::new(vec![
            ProgAction::Compute(Cycles::new(50_000)),
            ProgAction::Access {
                va: addr,
                write: true,
            }, // CoW
        ])),
    );
    m.run_until(Cycles::new(10_000_000));
    assert_eq!(m.stats.counters.get("cow_fault"), 1);
    assert!(
        m.stats.counters.get("ipis_sent") >= 1,
        "CoW shot down the reader"
    );
    let (pte, _) = m.mms[&mm].space.entry(addr).unwrap();
    assert_ne!(
        pte.addr, m.files[&f].pages[0],
        "PTE points at the private copy"
    );
    assert!(m.violations().is_empty(), "{:?}", m.violations());
}
