//! The shipped experiments. `experiments/specs/*.toml` is their only
//! definition, so this file pins what each one decodes to:
//!
//! 1. every shipped spec's grid, by an FNV-1a digest of its `{:#?}`
//!    form, and its expansion, by run count and each run's derived seed
//!    (both were recorded while the same grids also existed as Rust
//!    constructors, and the two agreed);
//! 2. the paper-shape facts of individual grids (fig3's α values, the
//!    coexistence peers, the latency-penalty points, …);
//! 3. every topology, gate, rate, queue, prior, sender, peer, workload
//!    and axis variant the shipped specs use, decoded field by field.

use augur_elements::{CellularParams, GateSpec, ModelParams, RateProcess, TraceEnd};
use augur_inference::ModelPrior;
use augur_scenario::{
    experiments_dir, load_shipped, Axis, CoexistSpec, ObserveSpec, PeerSpec, PriorSpec, QueueSpec,
    SenderSpec, SweepGrid, TopologySpec, WorkloadSpec,
};
use augur_sim::{BitRate, Bits, Dur, Ppm};

fn shipped(name: &str) -> SweepGrid {
    load_shipped(name).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(spec name, digest of the grid's {:#?} form, each run's derived seed)`.
const PINS: [(&str, u64, &[u64]); 14] = [
    ("fig1", 0x12bc_d8c6_cfbb_97d4, &[0x8063_340d_2328_903e]),
    (
        "fig3",
        0x2002_cbec_46d1_f93b,
        &[
            0x3daf_2e3e_4c64_589a,
            0x874d_71c9_a69a_1cd7,
            0xb9b4_7c97_59ef_bbd4,
            0xac62_a6ce_e27f_b12a,
        ],
    ),
    ("tab1", 0x194f_7379_db9d_5c03, &[0x3333_4b4a_e599_ef15]),
    ("txt1", 0xaefd_bd04_c606_13f3, &[0x48af_0c8f_0546_6971]),
    (
        "txt2",
        0x9c9f_6d49_208f_3c6d,
        &[0xcba2_3fa4_86f7_0583, 0x6a2b_5ce2_534a_eeaf],
    ),
    (
        "scaling",
        0xee8c_61f3_bb29_de57,
        &[
            0xb538_f7b1_c336_f494,
            0xaa05_4426_1f8b_0382,
            0xbc74_50b9_58cd_390f,
            0xf5fd_78a2_038e_5e8b,
            0xc46e_2f31_30cb_fcb5,
            0x345a_5752_c902_8d1d,
        ],
    ),
    (
        "smoke",
        0x9581_2c35_3258_9cc1,
        &[
            0xd275_6324_7866_34aa,
            0xdc50_6f97_8708_92a1,
            0x1901_d42e_eb62_0eab,
            0x0d40_7362_f508_dcb6,
            0xe350_1bdd_875f_d37c,
            0x13ea_fdee_35ef_67c3,
            0x22d0_08f4_b396_12cf,
            0x74db_563b_b297_e9ee,
        ],
    ),
    (
        "coexist-fairness",
        0xc5d9_9751_9dcb_322d,
        &[
            0xb202_d576_7167_037b,
            0xc594_7c9f_74ef_fd28,
            0x613a_7aeb_6a9b_0487,
            0xcdc9_b938_60b3_8bbe,
        ],
    ),
    (
        "coexist-vs-tcp",
        0xe20d_465f_e588_29a5,
        &[
            0x3a1b_cab7_0b5f_c114,
            0xd347_1eb4_c201_4c60,
            0xcecc_436a_5eee_30b2,
            0xb6b9_148c_e413_e453,
            0x31b5_553e_a3e1_5cc3,
            0xa57b_1c3b_88c0_b2da,
        ],
    ),
    (
        "ext-aqm",
        0x12e0_2a5f_d9fa_1a59,
        &[
            0x9f3c_c077_eea3_a647,
            0xeff8_6291_0238_2d37,
            0xb13b_4df0_88c8_b744,
        ],
    ),
    (
        "replay-cellular",
        0x5451_ef98_2407_bbae,
        &[
            0x73e0_94b6_cc85_b6a3,
            0x7248_a089_0c7d_2314,
            0x3d42_4c79_0524_0d7e,
            0x511f_6206_d44a_a802,
            0x054c_95fa_a8b6_9083,
            0xeda3_4865_b1b0_2bfc,
            0x3f87_7106_2983_c662,
            0xb6d1_0084_2f0c_1343,
            0x0c30_0528_9870_9e2b,
            0x7f3b_a264_c515_f3c9,
            0x1379_70f3_cc8b_1c90,
            0x0580_8bba_e32a_826d,
        ],
    ),
    (
        "dumbbell-cross",
        0xb9b6_2c64_3810_cb8a,
        &[
            0x22a8_72b2_2844_5528,
            0x8a99_207c_ed4a_dd60,
            0x2dea_9a21_7e93_d30d,
            0x19a1_0def_66dd_21f2,
        ],
    ),
    (
        "parking-lot",
        0x8949_f3e1_c696_5641,
        &[
            0x0df5_909e_efd7_ec8a,
            0x99c8_17cb_05b2_6564,
            0x73d2_6510_3c99_7af2,
            0x36e2_8f17_1fe1_a125,
        ],
    ),
    (
        "ext-scaling-flows",
        0x7101_f3f4_2eab_adda,
        &[
            0x2b01_a1b4_2b4b_6e19,
            0x329e_d7fd_1479_ff5e,
            0x4246_aaae_efcd_9798,
            0xeeec_dde9_b6cc_41d3,
            0x9262_5e95_f5c0_151d,
            0x4d13_f550_2d5f_cbfe,
            0xa8af_2748_8b2c_522e,
            0x885f_5ad0_0045_2d52,
        ],
    ),
];

#[test]
fn every_shipped_spec_decodes_to_its_pinned_grid() {
    for (name, digest, _) in PINS {
        let grid = shipped(name);
        assert_eq!(
            grid.base.name, name,
            "{name}: scenario name is the file stem"
        );
        assert_eq!(
            fnv1a(&format!("{grid:#?}")),
            digest,
            "{name}: the decoded grid changed"
        );
    }
    // And nothing unpinned is shipped.
    let mut shipped_names: Vec<String> = std::fs::read_dir(experiments_dir().join("specs"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    shipped_names.sort();
    let mut pinned: Vec<String> = PINS.iter().map(|(n, ..)| format!("{n}.toml")).collect();
    pinned.sort();
    assert_eq!(shipped_names, pinned);
}

#[test]
fn every_shipped_spec_expands_to_its_pinned_runs_and_seeds() {
    for (name, _, seeds) in PINS {
        let runs = shipped(name).expand();
        assert_eq!(runs.len(), seeds.len(), "{name}: run count");
        for (i, (run, seed)) in runs.iter().zip(seeds).enumerate() {
            assert_eq!(run.index, i, "{name}: runs are numbered in order");
            assert_eq!(run.seed, *seed, "{name}: seed of run {}", run.index);
        }
    }
}

#[test]
fn fig3_grid_matches_the_paper() {
    let grid = shipped("fig3");
    assert_eq!(grid.len(), 4);
    let runs = grid.expand();
    let alphas: Vec<f64> = runs
        .iter()
        .map(|r| r.spec.sender.alpha().unwrap())
        .collect();
    assert_eq!(alphas, vec![0.9, 1.0, 2.5, 5.0]);
    assert!(runs
        .iter()
        .all(|r| r.spec.workload == WorkloadSpec::ClosedLoop));
}

#[test]
fn ext_scaling_crosses_engines_with_sizes() {
    let runs = shipped("scaling").expand();
    assert_eq!(runs.len(), 6);
    // Sender is the slow axis: exact × every size first, then particle.
    let cells: Vec<(&str, usize)> = runs
        .iter()
        .map(|r| (r.spec.sender.label(), r.spec.prior.size()))
        .collect();
    assert_eq!(
        cells,
        [
            ("isender-exact", 101),
            ("isender-exact", 1_001),
            ("isender-exact", 10_001),
            ("isender-particle", 101),
            ("isender-particle", 1_001),
            ("isender-particle", 10_001),
        ]
    );
}

#[test]
fn coexist_fairness_expands_to_replicates() {
    let mut grid = shipped("coexist-fairness");
    assert_eq!(grid.len(), 4);
    assert!(grid.set_replicates(3));
    let runs = grid.expand();
    assert_eq!(runs.len(), 3);
    for r in &runs {
        match &r.spec.workload {
            WorkloadSpec::Coexist(cx) => {
                assert_eq!(cx.peers, vec![PeerSpec::Isender { alpha: 1.0 }])
            }
            other => panic!("unexpected workload {other:?}"),
        }
    }
}

#[test]
fn coexist_vs_tcp_crosses_peers_with_seeds() {
    let runs = shipped("coexist-vs-tcp").expand();
    assert_eq!(runs.len(), 6);
    let peers: Vec<String> = runs
        .iter()
        .map(|r| match &r.spec.workload {
            WorkloadSpec::Coexist(cx) => cx.label(),
            other => panic!("unexpected workload {other:?}"),
        })
        .collect();
    assert_eq!(
        peers,
        [
            "aimd",
            "aimd",
            "tcp-reno",
            "tcp-reno",
            "tcp-cubic",
            "tcp-cubic"
        ]
    );
    assert_eq!(runs[2].point(), "peer=tcp-reno replicate=0");
}

#[test]
fn txt2_sweeps_the_latency_penalty() {
    let runs = shipped("txt2").expand();
    assert_eq!(runs.len(), 2);
    assert_eq!(runs[0].point(), "latency_penalty=0");
    assert_eq!(runs[1].point(), "latency_penalty=0.5");
}

fn exact(alpha: f64, max_branches: usize) -> SenderSpec {
    SenderSpec::IsenderExact {
        alpha,
        latency_penalty: 0.0,
        max_branches,
    }
}

fn aimd() -> PeerSpec {
    PeerSpec::Aimd {
        timeout: Dur::from_secs(8),
    }
}

#[test]
fn model_topologies_priors_and_senders_decode_field_by_field() {
    // fig3: the paper's ground truth (square-wave gate), the paper
    // prior, the exact sender, the closed loop, and an alpha axis.
    let fig3 = shipped("fig3");
    assert_eq!(fig3.base.duration, Dur::from_secs(300));
    assert_eq!(fig3.base.base_seed, 0xF13);
    assert_eq!(
        fig3.base.topology,
        TopologySpec::Model(ModelParams {
            link_rate: BitRate::from_bps(12_000),
            cross_rate: BitRate::from_bps(8_400),
            gate: GateSpec::SquareWave {
                half_period: Dur::from_secs(100),
                initially_connected: true,
            },
            loss: Ppm::new(200_000),
            buffer_capacity: Bits::new(96_000),
            initial_fullness: Bits::ZERO,
            packet_size: Bits::new(12_000),
            cross_active: true,
        })
    );
    assert_eq!(fig3.base.prior, PriorSpec::Paper);
    assert_eq!(fig3.base.sender, exact(1.0, 50_000));
    assert_eq!(fig3.base.workload, WorkloadSpec::ClosedLoop);
    assert_eq!(fig3.base.observe, ObserveSpec::default());
    match fig3.axes.as_slice() {
        [Axis::Alpha(v)] => assert_eq!(v, &[0.9, 1.0, 2.5, 5.0]),
        other => panic!("fig3 axes: {other:?}"),
    }

    // txt1: an always-on gate, a half-full buffer, a custom prior.
    let txt1 = shipped("txt1");
    assert_eq!(
        txt1.base.topology,
        TopologySpec::Model(ModelParams {
            link_rate: BitRate::from_bps(12_000),
            cross_rate: BitRate::from_bps(8_400),
            gate: GateSpec::AlwaysOn,
            loss: Ppm::ZERO,
            buffer_capacity: Bits::new(96_000),
            initial_fullness: Bits::new(48_000),
            packet_size: Bits::new(12_000),
            cross_active: false,
        })
    );
    assert_eq!(
        txt1.base.prior,
        PriorSpec::Custom(ModelPrior {
            link_rates: [10_000, 12_000, 14_000, 16_000]
                .map(BitRate::from_bps)
                .to_vec(),
            cross_fracs_ppm: vec![700_000],
            losses: vec![Ppm::ZERO],
            buffer_capacities: vec![Bits::new(96_000)],
            fullness_step: Some(Bits::new(12_000)),
            mtts: Dur::from_secs(100),
            epoch: Dur::from_secs(1),
            gate_initial: vec![true],
            packet_size: Bits::new(12_000),
            cross_active: false,
        })
    );
    assert!(txt1.axes.is_empty());

    // txt2: a latency-penalty axis.
    match shipped("txt2").axes.as_slice() {
        [Axis::LatencyPenalty(v)] => assert_eq!(v, &[0.0, 0.5]),
        other => panic!("txt2 axes: {other:?}"),
    }

    // scaling: the fine link-rate prior, the scripted ping workload,
    // exact vs particle senders, and a prior-size axis.
    let scaling = shipped("scaling");
    assert_eq!(
        scaling.base.prior,
        PriorSpec::FineLinkRate {
            n: 101,
            lo_bps: 8_000,
            hi_bps: 16_000,
        }
    );
    assert_eq!(
        scaling.base.workload,
        WorkloadSpec::ScriptedPing {
            interval: Dur::from_secs(2),
        }
    );
    match scaling.axes.as_slice() {
        [Axis::Sender(senders), Axis::PriorSize(sizes)] => {
            assert_eq!(
                senders,
                &[
                    exact(1.0, 1 << 20),
                    SenderSpec::IsenderParticle {
                        alpha: 1.0,
                        latency_penalty: 0.0,
                        n_particles: 1_000,
                    },
                ]
            );
            assert_eq!(sizes, &[101, 1_001, 10_001]);
        }
        other => panic!("scaling axes: {other:?}"),
    }

    // smoke: the small prior, and a sender axis crossed with seeds.
    let smoke = shipped("smoke");
    assert_eq!(smoke.base.prior, PriorSpec::Small);
    match smoke.axes.as_slice() {
        [Axis::Sender(senders), Axis::Seeds(4)] => assert_eq!(
            senders,
            &[
                exact(1.0, 4_096),
                SenderSpec::IsenderParticle {
                    alpha: 1.0,
                    latency_penalty: 0.0,
                    n_particles: 64,
                },
            ]
        ),
        other => panic!("smoke axes: {other:?}"),
    }
}

#[test]
fn cellular_topologies_rates_and_queues_decode_field_by_field() {
    let red = QueueSpec::Red {
        min_th: Bits::new(500_000),
        max_th: Bits::new(1_500_000),
        max_p: Ppm::new(100_000),
        w_shift: 9,
    };
    let codel = QueueSpec::CoDel {
        target: Dur::from_millis(5),
        interval: Dur::from_millis(100),
    };

    // fig1: the LTE-like path (a rate schedule) behind a drop-tail
    // queue, driven by TCP Reno.
    let fig1 = shipped("fig1");
    assert_eq!(
        fig1.base.topology,
        TopologySpec::Cellular {
            params: CellularParams {
                buffer_capacity: Bits::new(6_000_000),
                rate: RateProcess::Schedule {
                    steps: vec![
                        (Dur::ZERO, BitRate::from_bps(4_000_000)),
                        (Dur::from_secs(8), BitRate::from_bps(1_000_000)),
                        (Dur::from_secs(14), BitRate::from_bps(250_000)),
                        (Dur::from_secs(17), BitRate::from_bps(2_000_000)),
                    ],
                    period: Dur::from_secs(20),
                },
                arq_loss: Ppm::new(100_000),
                arq_retry_delay: Dur::from_millis(40),
                propagation: Dur::from_millis(25),
            },
            queue: QueueSpec::DropTail,
        }
    );
    assert_eq!(fig1.base.sender, SenderSpec::TcpReno { max_window: 1_000 });

    // ext-aqm: the same path with a queue axis.
    let aqm = shipped("ext-aqm");
    assert_eq!(aqm.base.topology, fig1.base.topology);
    match aqm.axes.as_slice() {
        [Axis::Queue(q)] => assert_eq!(q, &[QueueSpec::DropTail, red.clone(), codel.clone()]),
        other => panic!("ext-aqm axes: {other:?}"),
    }

    // replay-cellular: a replayed trace rate, and sender × rate-trace ×
    // queue axes.
    let replay = shipped("replay-cellular");
    // (file reference, sample count, end policy); the samples themselves
    // are pinned by the trace-file test in `config_roundtrip.rs`.
    let trace =
        |stem: &str, samples: usize| (format!("../traces/{stem}.csv"), samples, TraceEnd::Loop);
    let shape = |rate: &RateProcess| match rate {
        RateProcess::Trace {
            label,
            samples,
            end,
        } => (label.clone(), samples.len(), *end),
        other => panic!("expected a trace rate, got {other:?}"),
    };
    let TopologySpec::Cellular { params, queue } = &replay.base.topology else {
        panic!("replay-cellular is cellular")
    };
    assert_eq!(shape(&params.rate), trace("lte-fade", 121));
    assert_eq!(params.buffer_capacity, Bits::new(6_000_000));
    assert_eq!(queue, &QueueSpec::DropTail);
    match replay.axes.as_slice() {
        [Axis::Sender(senders), Axis::RateTrace(rates), Axis::Queue(queues)] => {
            assert_eq!(
                senders,
                &[
                    SenderSpec::TcpReno { max_window: 1_000 },
                    SenderSpec::TcpCubic { max_window: 1_000 },
                ]
            );
            let shapes: Vec<_> = rates.iter().map(shape).collect();
            assert_eq!(shapes, [trace("lte-fade", 121), trace("lte-scatter", 181)]);
            // The base rate and the axis's first point load one file.
            assert_eq!(rates[0], params.rate);
            assert_eq!(queues, &[QueueSpec::DropTail, red, codel]);
        }
        other => panic!("replay-cellular axes: {other:?}"),
    }
}

#[test]
fn coexist_graph_and_many_flow_workloads_decode_field_by_field() {
    // coexist-fairness: an ISender peer and a seeds axis.
    let fairness = shipped("coexist-fairness");
    assert_eq!(
        fairness.base.topology,
        TopologySpec::Model(ModelParams::simple_link(
            BitRate::from_bps(24_000),
            Bits::new(96_000)
        ))
    );
    assert_eq!(
        fairness.base.workload,
        WorkloadSpec::Coexist(CoexistSpec {
            peers: vec![PeerSpec::Isender { alpha: 1.0 }],
        })
    );
    assert!(matches!(fairness.axes.as_slice(), [Axis::Seeds(4)]));

    // coexist-vs-tcp: a peer axis over every loss-based peer kind.
    match shipped("coexist-vs-tcp").axes.as_slice() {
        [Axis::Peer(peers), Axis::Seeds(2)] => assert_eq!(
            peers,
            &[
                aimd(),
                PeerSpec::TcpReno { max_window: 64 },
                PeerSpec::TcpCubic { max_window: 64 },
            ]
        ),
        other => panic!("coexist-vs-tcp axes: {other:?}"),
    }

    // The graph specs decode to exactly what the topology builders make.
    let dumbbell = shipped("dumbbell-cross");
    assert_eq!(
        dumbbell.base.topology,
        TopologySpec::Graph(augur_topo::dumbbell(
            3,
            BitRate::from_bps(96_000),
            BitRate::from_bps(24_000),
            Dur::from_millis(20),
            Bits::new(96_000),
            Bits::from_bytes(1_500),
        ))
    );
    assert_eq!(
        dumbbell.base.workload,
        WorkloadSpec::Coexist(CoexistSpec {
            peers: vec![aimd(), aimd()],
        })
    );
    let parking = shipped("parking-lot");
    assert_eq!(
        parking.base.topology,
        TopologySpec::Graph(augur_topo::parking_lot(
            3,
            BitRate::from_bps(24_000),
            Dur::from_millis(10),
            Bits::new(96_000),
            Bits::from_bytes(1_500),
        ))
    );
    assert_eq!(parking.base.sender, exact(1.0, 50_000));

    // ext-scaling-flows: the many-flows workload and a flows axis.
    let flows = shipped("ext-scaling-flows");
    let WorkloadSpec::ManyFlows(mf) = &flows.base.workload else {
        panic!("ext-scaling-flows runs the many-flows workload")
    };
    assert_eq!(mf.flows, 10);
    assert_eq!(mf.mix, [aimd(), PeerSpec::TcpReno { max_window: 64 }]);
    match flows.axes.as_slice() {
        [Axis::Flows(n), Axis::Seeds(2)] => assert_eq!(n, &[10, 100, 1_000, 10_000]),
        other => panic!("ext-scaling-flows axes: {other:?}"),
    }
}
