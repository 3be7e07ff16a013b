//! Pinned dispatch order of the event engine.
//!
//! The engine's queue exists for host speed; it must never change what
//! the simulation *does*. These tests pin what the machine observably
//! produces — the canonical state digest and a hash of the full Chrome
//! trace export — at every cumulative optimization level on a single-
//! and a dual-socket machine, under chaos fault injection, over the
//! routed fabrics, and on the scale tier. Any change to the order in
//! which the engine dispatches events moves one of these values, so an
//! engine change that reorders dispatch fails tier 1, not only the
//! full-tier snapshots. Most values were recorded when the engine still
//! had a timing wheel in front of its heap, and both front-ends
//! produced them byte for byte; the L7 and L8 tuples of the per-level
//! and chaos pins were recorded on the one-heap engine, when those runs
//! got a two-entry reuse window.

use tlbdown_core::OptConfig;
use tlbdown_kernel::chaos::ChaosConfig;
use tlbdown_kernel::prog::{BusyLoopProg, MadviseLoopProg};
use tlbdown_kernel::{KernelConfig, Machine};
use tlbdown_sim::fault::FaultSpec;
use tlbdown_topo::TopologySpec;
use tlbdown_trace::to_chrome_json;
use tlbdown_types::{CoreId, Cycles, Topology};
use tlbdown_workloads::madvise::{run_scale_tier, ScaleTierCfg};

/// FNV-1a over `s`: a hash that does not depend on the toolchain, so a
/// trace export can be pinned as one `u64`.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Run the dueling-madvise workload, returning the state digest, the
/// full trace export and the IPIs the run sent.
fn traced_run(cfg: KernelConfig) -> (u64, String, u64) {
    let mut m = Machine::new(cfg);
    m.start_tracing(1 << 13);
    let mm = m.create_process().expect("boot: create process");
    m.spawn(mm, CoreId(0), Box::new(MadviseLoopProg::new(6, 5)));
    m.spawn(mm, CoreId(1), Box::new(BusyLoopProg));
    m.spawn(mm, CoreId(2), Box::new(MadviseLoopProg::new(3, 5)));
    m.spawn(mm, CoreId(3), Box::new(BusyLoopProg));
    m.run_until(Cycles::new(4_000_000));
    let export = to_chrome_json(&m.take_trace()).render();
    (m.state_digest(), export, m.stats.counters.get("ipis_sent"))
}

/// [`traced_run`] with the export hashed: `(state digest, trace hash)`.
/// A pinned run must shoot down, or it pins no IPI, shootdown or
/// cross-socket dispatch.
fn pinned_run(cfg: KernelConfig) -> (u64, u64) {
    let (digest, export, ipis) = traced_run(cfg);
    assert!(ipis > 0, "the pinned run sent no IPI");
    (digest, fnv1a(&export))
}

/// The 4-core single-socket test machine, and a 2×2 dual-socket
/// machine, on which L8's replica sync is live and IPIs and cacheline
/// transfers cross sockets.
fn machines() -> [(&'static str, KernelConfig); 2] {
    [
        ("1x4", KernelConfig::test_machine(4)),
        (
            "2x2",
            KernelConfig {
                topo: Topology::new(2, 2),
                ..KernelConfig::paper_baseline()
            },
        ),
    ]
}

/// `(state digest, trace hash)` of [`traced_run`] per machine of
/// [`machines`], at cumulative levels L0..L8, with the reuse window
/// capped at two entries so L7 and L8 still shoot down.
const LEVEL_PINS: [[(u64, u64); OptConfig::NUM_LEVELS]; 2] = [
    [
        (0xb029_466c_8e37_34df, 0x3951_7a41_9d01_7566),
        (0x27a7_ad1f_dd5c_9692, 0x681f_48d0_9ab7_467a),
        (0x8b3e_9659_9738_2ab9, 0xdd21_6bdb_9721_10e0),
        (0x05e6_8b04_2249_4006, 0x6f48_7321_6810_916a),
        (0x9765_9185_be94_f051, 0xb354_797f_a971_c545),
        (0x9765_9185_be94_f051, 0xb354_797f_a971_c545),
        (0xe9c0_a09a_a22e_b548, 0xa534_2a52_8a49_6bf8),
        (0x2d70_0508_175a_1d32, 0xbc18_fd4d_6950_6635),
        (0x872c_3f31_3e30_8de9, 0xbc18_fd4d_6950_6635),
    ],
    [
        (0x5d76_68c6_94a1_1299, 0x2451_7ac2_7c7f_d2c0),
        (0x56aa_7f0d_172a_5183, 0xae77_e51d_6612_2ff5),
        (0x08af_2127_fcab_6736, 0x0184_7aa9_34a5_be65),
        (0xe15d_6f60_2d26_5f1b, 0xe39a_461c_1eca_c3f2),
        (0xfa78_a0a1_54f8_4cc3, 0x9724_d5c4_0219_1ac8),
        (0xfa78_a0a1_54f8_4cc3, 0x9724_d5c4_0219_1ac8),
        (0x09d7_f87b_094e_3b45, 0x5ba4_96d4_dab1_ec8d),
        (0x53d6_f071_5878_25b4, 0x4896_5ffc_23fd_b646),
        (0x9bac_f89d_d204_80a0, 0xf9ba_5c9b_2472_297e),
    ],
];

#[test]
fn dispatch_is_pinned_at_every_opt_level() {
    for ((machine, base), pins) in machines().into_iter().zip(LEVEL_PINS) {
        for ((level, _, opts), pin) in OptConfig::all_levels().zip(pins) {
            let cfg = base.clone().with_opts(opts).with_reuse_window_cap(2);
            assert_eq!(
                pinned_run(cfg),
                pin,
                "(state digest, trace hash) moved on {machine} at opt level {level}"
            );
        }
    }
}

#[test]
fn dispatch_is_pinned_under_fault_injection() {
    // IPI drops, delays, duplicates and late IRQs, on one socket and on
    // two.
    let pins = [
        (0xe6ea_def8_16e9_53f1, 0x3aa5_083d_a9c5_d78c),
        (0xf4a9_ddae_fa73_78f6, 0x8b7c_726c_b9e8_c8c6),
    ];
    for ((machine, base), pin) in machines().into_iter().zip(pins) {
        let cfg = base
            .with_opts(OptConfig::general_four())
            .with_chaos(ChaosConfig::with_fault(FaultSpec::everything(), 0xfa07));
        assert_eq!(pinned_run(cfg), pin, "chaos run moved on {machine}");
    }
}

#[test]
fn explicit_flat_topology_is_byte_identical_to_default_at_every_opt_level() {
    // The flat interconnect is the pinned pre-topology reference: asking
    // for it explicitly must change *nothing* — same state digest, same
    // trace export, at all seven cumulative optimization levels. This is
    // the contract that keeps BENCH_1..5 byte-stable while ring/mesh
    // exist behind the same knob.
    for (level, _, opts) in OptConfig::all_levels() {
        let cfg = || KernelConfig::test_machine(4).with_opts(opts);
        let default = traced_run(cfg());
        let flat = traced_run(cfg().with_topology(TopologySpec::Flat));
        assert_eq!(
            default.0, flat.0,
            "explicit Flat changed the state digest at opt level {level}"
        );
        assert_eq!(
            default.1, flat.1,
            "explicit Flat changed the trace export at opt level {level}"
        );
    }
}

#[test]
fn routed_dispatch_is_pinned() {
    // Ring and mesh routing put per-hop link events on the queue; their
    // runs are pinned like the flat ones.
    let pins = [
        (
            TopologySpec::Ring,
            (0x3476_927b_e99d_96c5, 0xe5bb_5611_e20d_049a),
        ),
        (
            TopologySpec::Mesh,
            (0x406a_ed7b_bae7_2372, 0xc933_b80c_36f3_90ae),
        ),
    ];
    for (spec, pin) in pins {
        let cfg = KernelConfig {
            topo: Topology::new(2, 2),
            ..KernelConfig::paper_baseline()
        }
        .with_opts(OptConfig::general_four())
        .with_topology(spec.clone());
        assert_eq!(pinned_run(cfg), pin, "{} run moved", spec.label());
    }
}

/// `(state digest, events, simulated cycles, counter-JSON hash)` of the
/// scale-tier smoke run over `interconnect`.
fn smoke_tier(interconnect: TopologySpec) -> (u64, u64, u64, u64) {
    let cfg = ScaleTierCfg {
        interconnect,
        ..ScaleTierCfg::smoke()
    };
    let r = run_scale_tier(&cfg).expect("tier runs clean");
    assert!(
        r.counters.get("ipis_sent") > 0,
        "the pinned tier sent no IPI"
    );
    (
        r.digest,
        r.events,
        r.sim_cycles,
        fnv1a(&r.counters.render_json()),
    )
}

#[test]
fn scale_tier_smoke_is_pinned() {
    assert_eq!(
        smoke_tier(TopologySpec::Flat),
        (
            0xeb69_9118_5e57_517b,
            40_000,
            581_770,
            0x2264_e2b7_aa25_b2b5
        )
    );
}

#[test]
fn mesh_scale_tier_smoke_is_pinned() {
    assert_eq!(
        smoke_tier(TopologySpec::Mesh),
        (
            0xadbb_b2c5_3de7_470b,
            40_000,
            633_538,
            0x5ca1_3fdb_e4d7_b055
        )
    );
}

#[test]
fn chaos_stress_is_pinned_at_every_opt_level() {
    // The chaos-stressed duel with every fault armed, the reuse window
    // capped at two entries so L7 and L8 still shoot down: `(state
    // digest, final time, violations, recorded errors)` per cumulative
    // level L0..L8.
    let pins: [(u64, u64, usize, usize); OptConfig::NUM_LEVELS] = [
        (0x5be5_2d6e_2e19_fc60, 9_999_883, 0, 0),
        (0x8a65_012b_e3f1_e686, 9_999_872, 0, 0),
        (0x8cb3_38b1_27b0_7919, 9_999_948, 0, 0),
        (0xb882_972f_367a_3e96, 9_999_868, 0, 0),
        (0xda33_17a2_f01b_03a3, 9_999_881, 0, 0),
        (0xda33_17a2_f01b_03a3, 9_999_881, 0, 0),
        (0x2f8d_4ad7_99dd_5cea, 9_999_815, 0, 0),
        (0x7d51_54b1_d460_8a0f, 9_999_999, 0, 0),
        (0x6556_7de9_3ea7_2380, 9_999_999, 0, 0),
    ];
    for (level, pin) in pins.into_iter().enumerate() {
        let chaos = ChaosConfig::with_fault(FaultSpec::everything(), 0x0dd5_eed5);
        let mut m = Machine::new(
            KernelConfig::test_machine(4)
                .with_opts(OptConfig::cumulative(level))
                .with_chaos(chaos)
                .with_reuse_window_cap(2),
        );
        let mm = m.create_process().expect("boot: create process");
        m.spawn(mm, CoreId(0), Box::new(MadviseLoopProg::new(8, 6)));
        m.spawn(mm, CoreId(1), Box::new(BusyLoopProg));
        m.spawn(mm, CoreId(2), Box::new(MadviseLoopProg::new(3, 6)));
        m.spawn(mm, CoreId(3), Box::new(BusyLoopProg));
        m.run_until(Cycles::new(10_000_000));
        assert!(
            m.stats.counters.get("ipis_sent") > 0,
            "the chaos run sent no IPI at opt level {level}"
        );
        let got = (
            m.state_digest(),
            m.now().as_u64(),
            m.violations().len(),
            m.recorded_errors().len(),
        );
        assert_eq!(got, pin, "chaos stress moved at opt level {level}");
    }
}
