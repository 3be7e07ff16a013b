//! Per-core execution state: frame stacks, interrupt suspension, and the
//! stage machines for syscalls, faults and shootdown IRQs.
//!
//! Each core runs a stack of `Frame`s: the bottom frame executes the
//! pinned user thread; page faults and system calls push kernel frames;
//! IPIs and NMIs push interrupt frames on top of whatever is running.
//! Every frame advances through explicit stages; the machine charges each
//! stage's cost by scheduling the next `Resume` event, and interrupts
//! preserve the remaining cost of the suspended stage (see
//! `ResumeState::Suspended`), so interrupted work takes longer in
//! simulated time exactly as it would on hardware.

use std::collections::VecDeque;

use tlbdown_apic::LocalApic;
use tlbdown_core::{BatchState, CpuTlbState, FlushAction, FlushTlbInfo, ShootdownId};
use tlbdown_types::PhysAddr;
use tlbdown_types::{CoreId, Cycles, FastMap, MmId, VirtAddr};

use crate::prog::Syscall;

/// Scheduling state of one frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum ResumeState {
    /// A `Resume` event is scheduled to fire when the current stage's
    /// work completes.
    Scheduled {
        /// Absolute completion time.
        end: Cycles,
    },
    /// The frame was interrupted mid-stage; this much work remains.
    Suspended {
        /// Remaining stage cost.
        remaining: Cycles,
    },
    /// The frame is waiting on a condition (acks, semaphore); a waker or
    /// the uncovering pop will reschedule it.
    Blocked,
}

/// A frame plus its scheduling state.
#[derive(Debug, Hash)]
pub(crate) struct FrameSlot {
    /// The execution frame.
    pub(crate) frame: Frame,
    /// Its scheduling state.
    pub(crate) resume: ResumeState,
}

// `step_core` pops the top slot off the stack and pushes it back on
// every dispatch, so each byte of a slot is copied twice per event.
// Keep the large frame bodies boxed (see `Frame`).
const _: () = assert!(std::mem::size_of::<FrameSlot>() <= 72);

/// One entry of a core's execution stack.
///
/// The syscall, fault and IRQ bodies are boxed: inline they made every
/// slot 408 bytes, and moving slots cost 8–29% of perfbench's host time
/// (EXPERIMENTS.md, "Where the unattributed time went"). A `Box<T>`
/// hashes and formats as its `T`, so digests and renderings do not see
/// the box.
#[derive(Debug, Hash)]
pub(crate) enum Frame {
    /// Idle kernel thread (bottom frame when no thread is runnable).
    Idle,
    /// The pinned user thread's program.
    Prog(ProgFrame),
    /// An in-flight system call.
    Syscall(Box<SyscallFrame>),
    /// An in-flight page fault.
    Fault(Box<FaultFrame>),
    /// The TLB-shootdown interrupt handler.
    Irq(Box<IrqFrame>),
    /// A non-maskable interrupt handler.
    Nmi(NmiFrame),
}

/// User-program frame state.
#[derive(Debug, Hash)]
pub(crate) struct ProgFrame {
    /// Index of the thread in `Machine::threads`.
    pub(crate) thread: usize,
    /// A pending access to run (set when returning from a fault so the
    /// faulting access retries).
    pub(crate) pending_access: Option<(VirtAddr, bool, bool)>,
    /// Value to deliver to the program on its next step.
    pub(crate) retval: u64,
    /// Start time and kind of the fault the pending access is retrying
    /// after; the access-latency metric (Figure 9) spans fault + retry.
    pub(crate) fault_info: Option<(Cycles, &'static str)>,
}

/// Stages of a system call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum SyscallStage {
    /// Kernel entry completed; acquire `mmap_sem`.
    AcquireSem,
    /// Blocked on `mmap_sem`.
    WaitSem,
    /// Execute the syscall body (PTE updates etc.).
    Body,
    /// Run the current shootdown (`sd` field) to completion.
    Shootdown,
    /// Pop the next deferred batch flush (batching barrier) or release.
    BarrierNext,
    /// Release `mmap_sem` and wake waiters.
    Release,
    /// Kernel exit: run deferred in-context user flushes, charge exit.
    Exit,
}

/// A system-call frame.
#[derive(Debug, Hash)]
pub(crate) struct SyscallFrame {
    /// Retire pairs accumulated while batching (attached to the last
    /// barrier shootdown so nothing retires before every flush ran).
    pub(crate) batched_retires: Vec<(u64, u64)>,
    /// The call being serviced.
    pub(crate) call: Syscall,
    /// Current stage.
    pub(crate) stage: SyscallStage,
    /// Value returned to the program.
    pub(crate) retval: u64,
    /// Active shootdown run, if any.
    pub(crate) sd: Option<ShootdownRun>,
    /// Flushes queued to run sequentially (multi-VMA fdatasync, and the
    /// §4.2 batching barrier at `mmap_sem` release), each with its retire
    /// pairs.
    pub(crate) barrier: VecDeque<(FlushTlbInfo, Vec<(u64, u64)>)>,
    /// Frames whose freeing must wait until the covering flushes complete
    /// (Linux's mmu-gather discipline; freeing earlier is the LATR hazard).
    pub(crate) pending_frees: Vec<PhysAddr>,
    /// Start time (latency accounting).
    pub(crate) started: Cycles,
    /// Whether this frame entered batched mode and must end it.
    pub(crate) batched: bool,
    /// Whether this frame *ever* entered batched mode (Exit re-sync).
    pub(crate) did_batch: bool,
    /// §4.2 per-invocation batching state (`batched_mode` + 4 slots).
    pub(crate) batch: BatchState,
}

/// Stages of a page fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum FaultStage {
    /// Fault dispatch done; classify and resolve.
    Resolve,
    /// Run the CoW shootdown (remote part).
    Shootdown,
    /// Return to the faulting access.
    Return,
}

/// A page-fault frame.
#[derive(Debug, Hash)]
pub(crate) struct FaultFrame {
    /// Faulting address.
    pub(crate) va: VirtAddr,
    /// Whether the faulting access was a write.
    pub(crate) write: bool,
    /// Whether the faulting access was an instruction fetch.
    pub(crate) is_fetch: bool,
    /// Current stage.
    pub(crate) stage: FaultStage,
    /// Active shootdown run, if any (CoW with sharers).
    pub(crate) sd: Option<ShootdownRun>,
    /// Frames to free once the flush completes.
    pub(crate) pending_frees: Vec<PhysAddr>,
    /// Start time (latency accounting).
    pub(crate) started: Cycles,
    /// Classification label for statistics ("anon", "cow", "file", ...).
    pub(crate) label: &'static str,
}

/// Stages of the initiator-side shootdown state machine.
///
/// The stage *order* encodes §3.1: the baseline runs
/// `LocalFlush → UserFlush → SendIpis → Wait`, while concurrent flushing
/// runs `SendIpis → LocalFlush → UserFlush → Wait`, overlapping the local
/// work with IPI delivery and remote flushing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum SdStage {
    /// Charge `shootdown_prep`, compute targets, decide ordering.
    Prep,
    /// Cacheline work + ICR writes for all targets.
    SendIpis,
    /// Local kernel-PCID flush, one entry (or one full flush) per step.
    LocalFlush,
    /// Local user-PCID flush under PTI: eager INVPCID, interleaved with
    /// ack-waiting (§3.4 interplay), or deferred.
    UserFlush,
    /// Spin-wait for acknowledgements.
    Wait,
    /// All done.
    Done,
}

/// How the initiator removes its own stale translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum LocalMode {
    /// Ordinary local flush (INVLPG loop or full flush).
    Normal,
    /// §4.1 CoW trick: an atomic no-op RMW at the faulting address
    /// replaces the local INVLPG.
    CowTrick {
        /// The faulting address to touch.
        va: VirtAddr,
    },
}

/// The initiator-side state of one shootdown, embedded in syscall and
/// fault frames.
#[derive(Debug, Hash)]
pub(crate) struct ShootdownRun {
    /// The flush description.
    pub(crate) info: FlushTlbInfo,
    /// Current stage.
    pub(crate) stage: SdStage,
    /// Registered shootdown id (None when there are no remote targets).
    pub(crate) sd: Option<ShootdownId>,
    /// Whether the local flush is a full flush.
    pub(crate) local_full: bool,
    /// Individual kernel-PCID entries to INVLPG locally.
    pub(crate) kernel_entries: Vec<VirtAddr>,
    /// Index into `kernel_entries`.
    pub(crate) kidx: usize,
    /// Individual user-PCID entries to flush (PTI only).
    pub(crate) user_entries: Vec<VirtAddr>,
    /// Index into `user_entries`.
    pub(crate) uidx: usize,
    /// Number of remote targets at send time.
    pub(crate) initial_targets: usize,
    /// How the local flush is performed.
    pub(crate) local_mode: LocalMode,
    /// `(vpn, version)` pairs to retire in the oracle when this run
    /// completes (snapshotted at PTE-modification time).
    pub(crate) retire: Vec<(u64, u64)>,
    /// The local flush decision, computed on entry to `LocalFlush`.
    pub(crate) decided: Option<FlushAction>,
    /// Whether the user-PCID side was already handled (full-flush deferral).
    pub(crate) user_handled: bool,
    /// Trace-layer bookkeeping: the trace operation id for this run (the
    /// shootdown id when one was registered, a synthetic local id
    /// otherwise). Set on leaving `Prep`; `None` when tracing is off.
    pub(crate) trace_op: Option<u64>,
    /// Trace-layer bookkeeping: the last stage a phase mark was emitted
    /// for, so each stage transition is recorded exactly once.
    pub(crate) trace_stage: Option<SdStage>,
}

impl ShootdownRun {
    /// Build a run for `info` that retires the oracle pairs `retire` when
    /// it completes; the flush entry lists are derived from the info's
    /// range unless it is (effectively) a full flush.
    pub(crate) fn new(info: FlushTlbInfo, retire: Vec<(u64, u64)>) -> Self {
        let local_full = info.effective_full();
        let entries: Vec<VirtAddr> = if local_full {
            Vec::new()
        } else {
            info.range.iter_pages(info.stride).collect()
        };
        ShootdownRun {
            info,
            stage: SdStage::Prep,
            sd: None,
            local_full,
            kernel_entries: entries.clone(),
            kidx: 0,
            user_entries: entries,
            uidx: 0,
            initial_targets: 0,
            local_mode: LocalMode::Normal,
            retire,
            decided: None,
            user_handled: false,
            trace_op: None,
            trace_stage: None,
        }
    }

    /// Use the §4.1 CoW access trick for the local flush.
    ///
    /// The trick also makes the local *user-PCID* flush unnecessary: the
    /// faulting access is a write, which architecturally cannot translate
    /// through the stale write-protected entry — the hardware re-walks and
    /// caches the new PTE when the access retries.
    pub(crate) fn with_cow_trick(mut self, va: VirtAddr) -> Self {
        self.local_mode = LocalMode::CowTrick { va };
        self.user_handled = true;
        self
    }
}

/// Stages of the shootdown IRQ handler (responder side).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum IrqStage {
    /// Vectoring/dispatch completed; drain the call-single queue.
    DrainQueue,
    /// Fetch the next work item's cachelines.
    FetchWork,
    /// Early acknowledgement (if instructed) then flush, or flush first.
    FlushDecide,
    /// Flush one kernel-PCID entry per step.
    FlushEntry,
    /// Flush one user-PCID entry per step (PTI, eager mode).
    UserFlushEntry,
    /// Acknowledge after flushing (baseline ordering).
    LateAck,
    /// End of interrupt: EOI, pop, resume the interrupted frame.
    Eoi,
}

/// What the responder decided to do for the current work item.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum IrqAct {
    /// Nothing decided yet.
    Pending,
    /// Generation already covered — nothing to do (§5.2 storm skips).
    Skip,
    /// Flush the listed entries.
    Selective,
    /// Full flush.
    Full,
}

/// The shootdown interrupt handler frame.
#[derive(Debug, Hash)]
pub(crate) struct IrqFrame {
    /// Dispatch start (responder-interruption accounting, §5.1).
    pub(crate) started: Cycles,
    /// Current stage.
    pub(crate) stage: IrqStage,
    /// Work items drained from the CSQ.
    pub(crate) queue: Vec<ShootdownId>,
    /// Index of the current work item.
    pub(crate) qidx: usize,
    /// Whether the current item was early-acknowledged.
    pub(crate) acked: bool,
    /// Kernel-PCID entries to flush for the current item.
    pub(crate) entries: Vec<VirtAddr>,
    /// Index into `entries`.
    pub(crate) eidx: usize,
    /// User-PCID entries to flush eagerly (PTI baseline).
    pub(crate) user_entries: Vec<VirtAddr>,
    /// Index into `user_entries`.
    pub(crate) uidx: usize,
    /// Generation to sync to when the current item's flush completes.
    pub(crate) upto: u64,
    /// Decision for the current item.
    pub(crate) act: IrqAct,
    /// Work description captured at fetch time (the shootdown record may
    /// be reaped by the initiator after an early ack).
    pub(crate) cur_info: Option<FlushTlbInfo>,
    /// Initiator of the current item.
    pub(crate) cur_initiator: CoreId,
    /// Whether the current item allows early acknowledgement.
    pub(crate) cur_early: bool,
    /// Failure injection (`buggy_quarantine`): the current item was
    /// early-acked *without* the `acked_unflushed` bump, so `LateAck`
    /// must skip the matching decrement or a healthy item's §3.2 window
    /// accounting would be stolen.
    pub(crate) cur_buggy_ack: bool,
}

/// Stages of the NMI handler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum NmiStage {
    /// Handler body: optionally probe user memory (kprobe-style).
    Body,
    /// Return from NMI.
    Done,
}

/// An NMI frame (failure injection for the §3.2 hazard).
#[derive(Debug, Hash)]
pub(crate) struct NmiFrame {
    /// Current stage.
    pub(crate) stage: NmiStage,
    /// User address the handler will probe, if any.
    pub(crate) probe: Option<VirtAddr>,
}

/// A core.
#[derive(Debug)]
pub struct Cpu {
    /// This core's id.
    pub id: CoreId,
    /// `cpu_tlbstate`.
    pub tlb_state: CpuTlbState,
    /// Interrupt reception state.
    pub(crate) lapic: LocalApic,
    /// Execution stack (bottom = thread / idle).
    pub(crate) frames: Vec<FrameSlot>,
    /// Threads pinned to this core, by index into `Machine::threads`.
    pub(crate) runqueue: VecDeque<usize>,
    /// Currently running thread.
    pub(crate) current: Option<usize>,
    /// Call-single queue: pending shootdown work pushed by initiators.
    pub csq: VecDeque<ShootdownId>,
    /// Resume-token; stale `Resume` events are dropped.
    pub resume_token: u64,
    /// Shootdowns this core has acknowledged but not yet flushed
    /// (the §3.2 early-ack window; consulted by `nmi_uaccess_okay`).
    pub acked_unflushed: u64,
    /// §4.2: this core is inside a batched-mode syscall — it touches no
    /// user memory, so initiators skip its IPI; it re-syncs via the
    /// generation check before returning to userspace.
    pub(crate) in_batched_syscall: bool,
    /// Per-mm synced generation for previously-loaded address spaces whose
    /// PCID-tagged entries may survive in the TLB.
    pub(crate) pcid_gens: FastMap<MmId, u64>,
}
