//! The §5.3 / Figure 11 Apache (mpm_event) model.
//!
//! The paper: "Apache creates and tears down memory mappings of served
//! files upon each request" — that is the whole TLB story, so the model
//! serves requests with exactly that kernel footprint: `mmap` the file
//! (≤ 3 pages; "the served webpages are smaller than 12KB"), touch its
//! pages (demand faults), `send` it (kernel reads the user mapping), and
//! `munmap` it (shootdown to the sibling workers, which share the
//! process). An open-loop generator offers a fixed aggregate request rate
//! (wrk at 150k req/s), so throughput plateaus once the offered load is
//! met — the paper's 11-core saturation.

use std::cell::RefCell;
use std::rc::Rc;

use tlbdown_core::OptConfig;
use tlbdown_kernel::mm::FileId;
use tlbdown_kernel::prog::{Prog, ProgAction, ProgCtx};
use tlbdown_kernel::{KernelConfig, Machine, Syscall};
use tlbdown_sim::{Counter, SplitMix64};
use tlbdown_topo::TopologySpec;
use tlbdown_types::{CoreId, Cycles, Topology, VirtAddr};

/// Aggregate offered load, requests per simulated second (wrk's rate).
const OFFERED_RPS: f64 = 150_000.0;
/// Pages per served file (≤ 3 in the paper).
const FILE_PAGES: u64 = 3;
/// Number of distinct files served.
const FILES: u64 = 64;
/// Application work per request (parsing, socket handling) in cycles.
const REQUEST_WORK: u64 = 110_000;

/// Configuration of one Apache run.
#[derive(Clone, Debug)]
pub struct ApacheCfg {
    /// Server cores (the paper sweeps 1–11 via taskset).
    pub cores: u32,
    /// Mitigations on?
    pub safe: bool,
    /// Optimizations active.
    pub opts: OptConfig,
    /// Simulated duration.
    pub duration: Cycles,
    /// RNG seed.
    pub seed: u64,
    /// Interconnect model; `Flat` keeps the run byte-identical to the
    /// pre-topology pipeline.
    pub interconnect: TopologySpec,
}

impl ApacheCfg {
    /// Defaults for a Figure 11 point.
    pub fn new(cores: u32, safe: bool, opts: OptConfig) -> Self {
        ApacheCfg {
            cores,
            safe,
            opts,
            duration: Cycles::new(10_000_000),
            seed: 0xa9ac4e,
            interconnect: TopologySpec::Flat,
        }
    }
}

/// Result of one run.
#[derive(Clone, Debug)]
pub struct ApacheResult {
    /// Requests completed.
    pub requests: u64,
    /// Simulated seconds.
    pub seconds: f64,
    /// Requests per simulated second.
    pub throughput: f64,
    /// Machine counters at the end of the run (sim-side, deterministic).
    pub counters: Counter,
    /// Final simulated time in cycles.
    pub sim_cycles: u64,
}

/// Request accounting shared between a set of [`ServeWorker`]s and the
/// harness that reads it.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeStats {
    /// Requests served to completion.
    pub completed: u64,
    /// Requests started but not yet completed.
    pub in_flight: u64,
    /// Completed requests that started before their worker's cold
    /// deadline (see [`ServeWorker::cold_until`]).
    pub cold: u64,
    /// Summed service latency of the cold requests, in cycles.
    pub cold_cycles: u64,
    /// Summed service latency of the warm (all other) requests, in cycles.
    pub warm_cycles: u64,
}

impl ServeStats {
    /// Mean service latency of warm requests, in cycles (0 when none).
    pub fn warm_latency(&self) -> f64 {
        mean(self.warm_cycles, self.completed - self.cold)
    }

    /// Mean service latency of cold requests, in cycles (0 when none).
    pub fn cold_latency(&self) -> f64 {
        mean(self.cold_cycles, self.cold)
    }
}

fn mean(cycles: u64, n: u64) -> f64 {
    if n > 0 {
        cycles as f64 / n as f64
    } else {
        0.0
    }
}

/// One serving worker, the §5.3 request: `mmap` a file, touch each page
/// (demand faults), `send` it (the kernel reads the user mapping),
/// compute, and `munmap` it (a shootdown to every sibling sharing the
/// mm), until the deadline. Closed loop unless [`ServeWorker::open_loop`]
/// sets an arrival rate; the compute step runs only with
/// [`ServeWorker::request_work`] set.
pub struct ServeWorker {
    files: Vec<FileId>,
    file_pages: u64,
    deadline: u64,
    rng: SplitMix64,
    stats: Rc<RefCell<ServeStats>>,
    /// Mean cycles between open-loop arrivals (`None`: closed loop).
    interval: Option<f64>,
    next_arrival: f64,
    request_work: u64,
    cold_until: u64,
    state: u32,
    addr: u64,
    touch: u64,
    req_start: u64,
}

impl ServeWorker {
    /// A closed-loop worker serving random picks of `files` (each
    /// `file_pages` long) until `deadline`, counting into `stats`.
    pub fn new(
        files: Vec<FileId>,
        file_pages: u64,
        deadline: u64,
        rng: SplitMix64,
        stats: Rc<RefCell<ServeStats>>,
    ) -> Self {
        ServeWorker {
            files,
            file_pages,
            deadline,
            rng,
            stats,
            interval: None,
            next_arrival: 0.0,
            request_work: 0,
            cold_until: 0,
            state: 0,
            addr: 0,
            touch: 0,
            req_start: 0,
        }
    }

    /// Open loop: requests arrive at exponentially distributed gaps of
    /// mean `interval` cycles, and the worker idles until each one.
    pub fn open_loop(mut self, interval: f64) -> Self {
        self.interval = Some(interval);
        self
    }

    /// Application work per request (parsing, socket handling), in
    /// cycles, between the `send` and the `munmap`.
    pub fn request_work(mut self, cycles: u64) -> Self {
        self.request_work = cycles;
        self
    }

    /// Requests starting before cycle `t` count as cold in [`ServeStats`].
    pub fn cold_until(mut self, t: u64) -> Self {
        self.cold_until = t;
        self
    }
}

impl Prog for ServeWorker {
    fn next(&mut self, ctx: &ProgCtx) -> ProgAction {
        let now = ctx.now.as_u64();
        match self.state {
            // Wait for the next request to arrive, then map a file.
            0 => {
                if now >= self.deadline {
                    return ProgAction::Exit;
                }
                if let Some(interval) = self.interval {
                    if (now as f64) < self.next_arrival {
                        let wait = (self.next_arrival - now as f64).ceil() as u64;
                        return ProgAction::Compute(Cycles::new(wait.max(1)));
                    }
                    self.next_arrival += interval * self.rng.exponential(1.0);
                }
                self.state = 1;
                self.req_start = now;
                self.stats.borrow_mut().in_flight += 1;
                let file = self.files[self.rng.gen_range(self.files.len() as u64) as usize];
                ProgAction::Syscall(Syscall::MmapFile {
                    file,
                    page_offset: 0,
                    pages: self.file_pages,
                    shared: true,
                })
            }
            // Touch each page of the mapping (demand faults), then send it.
            1 => {
                self.addr = ctx.retval;
                self.touch = 0;
                self.state = 2;
                ProgAction::Nop
            }
            2 => {
                if self.touch < self.file_pages {
                    let va = VirtAddr::new(self.addr + self.touch * 4096);
                    self.touch += 1;
                    ProgAction::Access { va, write: false }
                } else {
                    self.state = if self.request_work > 0 { 3 } else { 4 };
                    ProgAction::Syscall(Syscall::Send {
                        addr: VirtAddr::new(self.addr),
                        pages: self.file_pages,
                    })
                }
            }
            // Application work, then tear the mapping down.
            3 => {
                self.state = 4;
                ProgAction::Compute(Cycles::new(self.request_work))
            }
            4 => {
                self.state = 5;
                ProgAction::Syscall(Syscall::Munmap {
                    addr: VirtAddr::new(self.addr),
                    pages: self.file_pages,
                })
            }
            5 => {
                let latency = now - self.req_start;
                let mut s = self.stats.borrow_mut();
                s.in_flight -= 1;
                s.completed += 1;
                if self.req_start < self.cold_until {
                    s.cold += 1;
                    s.cold_cycles += latency;
                } else {
                    s.warm_cycles += latency;
                }
                self.state = 0;
                ProgAction::Nop
            }
            _ => ProgAction::Exit,
        }
    }
}

/// Run one Apache configuration.
pub fn run_apache(cfg: &ApacheCfg) -> ApacheResult {
    assert!(cfg.cores >= 1 && cfg.cores <= 28);
    let kc = KernelConfig {
        topo: Topology::paper_machine(),
        ..KernelConfig::paper_baseline()
    }
    .with_opts(cfg.opts)
    .with_safe_mode(cfg.safe)
    .with_topology(cfg.interconnect.clone());
    let mut m = Machine::new(kc);
    let mm = m.create_process().expect("boot: create process");
    let files: Vec<FileId> = (0..FILES)
        .map(|_| m.create_file(FILE_PAGES).expect("boot: create file"))
        .collect();
    let stats = Rc::new(RefCell::new(ServeStats::default()));
    let mut rng = SplitMix64::new(cfg.seed);
    let per_worker_interval = Cycles::FREQ_HZ as f64 / (OFFERED_RPS / cfg.cores as f64);
    for t in 0..cfg.cores {
        let worker = ServeWorker::new(
            files.clone(),
            FILE_PAGES,
            cfg.duration.as_u64(),
            rng.fork(),
            stats.clone(),
        )
        .open_loop(per_worker_interval)
        .request_work(REQUEST_WORK);
        m.spawn(mm, CoreId(t), Box::new(worker));
    }
    m.run_until(cfg.duration);
    assert!(
        m.violations().is_empty(),
        "oracle violations: {:?}",
        m.violations()
    );
    let seconds = cfg.duration.as_secs_f64();
    let n = stats.borrow().completed;
    ApacheResult {
        requests: n,
        seconds,
        throughput: n as f64 / seconds,
        counters: m.stats.counters.clone(),
        sim_cycles: m.now().as_u64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(cores: u32, opts: OptConfig) -> ApacheResult {
        let mut cfg = ApacheCfg::new(cores, true, opts);
        cfg.duration = Cycles::new(3_000_000);
        run_apache(&cfg)
    }

    #[test]
    fn serves_requests_and_scales() {
        let one = quick(1, OptConfig::baseline());
        let four = quick(4, OptConfig::baseline());
        assert!(one.requests > 0);
        assert!(four.requests > one.requests);
    }

    #[test]
    fn throughput_plateaus_at_offered_load() {
        // With enough cores, served ≈ offered, not cores × capacity.
        let mut cfg = ApacheCfg::new(20, true, OptConfig::baseline());
        cfg.duration = Cycles::new(4_000_000);
        let r = run_apache(&cfg);
        let offered_in_window = OFFERED_RPS * cfg.duration.as_secs_f64();
        assert!(
            (r.requests as f64) < offered_in_window * 1.15,
            "served {} cannot exceed offered {offered_in_window:.0} by much",
            r.requests
        );
        // mmap_sem write contention bounds how much of the offered load a
        // shared-mm server can absorb (the same contention the paper's
        // Apache suffers); 20 cores reach well past half of it.
        assert!(
            (r.requests as f64) > offered_in_window * 0.55,
            "20 cores should meet most of the offered load: {} vs {offered_in_window:.0}",
            r.requests
        );
    }

    #[test]
    fn mesh_interconnect_replays_byte_identically() {
        let mut cfg = ApacheCfg::new(2, true, OptConfig::baseline());
        cfg.duration = Cycles::new(2_000_000);
        cfg.interconnect = TopologySpec::Mesh;
        let a = run_apache(&cfg);
        let b = run_apache(&cfg);
        assert!(a.requests > 0);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.sim_cycles, b.sim_cycles);
        assert_eq!(a.counters.render_json(), b.counters.render_json());
    }

    #[test]
    fn concurrent_flushes_speed_up_saturated_cores() {
        let base = quick(2, OptConfig::baseline());
        let conc = quick(2, OptConfig::cumulative(1));
        assert!(
            conc.requests >= base.requests,
            "concurrent {} !>= baseline {}",
            conc.requests,
            base.requests
        );
    }
}
