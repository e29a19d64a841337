//! The `Scenario` serialize/deserialize round trip, property-tested:
//! `from_json(to_json(s)) == s` for arbitrary scenarios, and the
//! serialized text is a fixpoint of `to_json → parse → to_json` (the
//! contract a trace-replay service needs to echo back exactly what it
//! received).

use proptest::prelude::*;
use scenario::{EngineSpec, PacketProfile, Scenario, ScenarioError, TrafficSpec};
use simkit::Json;

fn engine_strategy() -> impl Strategy<Value = EngineSpec> {
    prop_oneof![
        Just(EngineSpec::Patronoc),
        Just(EngineSpec::Packet(PacketProfile::Compact)),
        Just(EngineSpec::Packet(PacketProfile::HighPerformance)),
    ]
}

fn topology_strategy() -> impl Strategy<Value = patronoc::Topology> {
    prop_oneof![
        (2usize..6, 2usize..6).prop_map(|(cols, rows)| patronoc::Topology::Mesh { cols, rows }),
        (2usize..6, 2usize..6).prop_map(|(cols, rows)| patronoc::Topology::Torus { cols, rows }),
        (2usize..12).prop_map(|nodes| patronoc::Topology::Ring { nodes }),
    ]
}

fn traffic_strategy() -> impl Strategy<Value = TrafficSpec> {
    prop_oneof![
        (0.0001..1.0f64, 1u64..65_000, 0.0..1.0f64, any::<bool>()).prop_map(
            |(load, max_transfer, read_fraction, copies)| TrafficSpec::Uniform {
                load,
                max_transfer,
                read_fraction,
                copies,
            }
        ),
        (
            prop_oneof![
                Just(traffic::SyntheticPattern::AllGlobal),
                Just(traffic::SyntheticPattern::MaxTwoHop),
                Just(traffic::SyntheticPattern::MaxSingleHop),
                Just(traffic::SyntheticPattern::Transpose),
                Just(traffic::SyntheticPattern::BitComplement),
                (1u8..=100).prop_map(|skew_pct| traffic::SyntheticPattern::Hotspot { skew_pct }),
            ],
            0.0001..1.0f64,
            1u64..65_000,
            0.0..1.0f64,
        )
            .prop_map(|(pattern, load, max_transfer, read_fraction)| {
                TrafficSpec::Synthetic {
                    pattern,
                    load,
                    max_transfer,
                    read_fraction,
                }
            }),
        (
            prop_oneof![
                Just(traffic::DnnWorkload::DistributedTraining),
                Just(traffic::DnnWorkload::ParallelConv),
                Just(traffic::DnnWorkload::PipelinedConv),
            ],
            1usize..10,
        )
            .prop_map(|(workload, steps)| TrafficSpec::Dnn { workload, steps }),
    ]
}

proptest! {
    #[test]
    fn scenario_json_round_trips(
        engine in engine_strategy(),
        topology in topology_strategy(),
        traffic in traffic_strategy(),
        axi in (
            prop_oneof![Just(32u32), Just(64), Just(128), Just(512)],
            1u32..8,
            1u32..64,
            1usize..4,
        ),
        stop in (
            0u64..100_000,
            0u64..1_000_000,
            prop_oneof![Just(None), (1u64..1_000_000_000).prop_map(Some)],
            0u64..u64::MAX,
        ),
    ) {
        let (data_width, id_width, max_outstanding, link_stages) = axi;
        let (warmup, window, budget, seed) = stop;
        let mut s = Scenario::patronoc()
            .topology(topology)
            .data_width(data_width)
            .id_width(id_width)
            .max_outstanding(max_outstanding)
            .link_stages(link_stages)
            .traffic(traffic)
            .warmup(warmup)
            .window(window)
            .seed(seed);
        s.engine = engine;
        s.budget = budget;

        // Value round trip: parse(serialize(s)) == s.
        let json = s.to_json();
        let back = Scenario::from_json(&json).expect("serialized scenario parses");
        prop_assert_eq!(&back, &s);

        // Textual fixpoint: to_json → parse → to_json is stable.
        let text = json.to_json();
        let reparsed = Json::parse(&text).expect("writer output is valid JSON");
        prop_assert_eq!(reparsed.to_json(), text.clone());

        // And the text round trip matches the value round trip.
        let from_text = Scenario::from_json_str(&text).expect("text parses");
        prop_assert_eq!(from_text, s);
    }
}

#[test]
fn parse_errors_name_the_problem() {
    let err = Scenario::from_json_str("{not json").unwrap_err();
    assert!(err.to_string().contains("invalid JSON"), "{err}");

    let mut json = Scenario::patronoc().to_json();
    if let Json::Obj(pairs) = &mut json {
        pairs.retain(|(k, _)| k != "seed");
    }
    let err = Scenario::from_json(&json).unwrap_err();
    assert!(err.to_string().contains("missing key `seed`"), "{err}");

    let mut json = Scenario::patronoc().to_json();
    if let Json::Obj(pairs) = &mut json {
        for (k, v) in pairs.iter_mut() {
            if k == "engine" {
                *v = Json::str("noxim");
            }
        }
    }
    let err = Scenario::from_json(&json).unwrap_err();
    assert!(err.to_string().contains("unknown engine"), "{err}");
}

#[test]
fn documents_with_the_retired_threads_key_are_rejected() {
    // Artifacts written while the region-sharding knob existed carry a
    // `threads` key; parsing names it instead of silently ignoring it.
    let mut json = Scenario::patronoc().to_json();
    if let Json::Obj(pairs) = &mut json {
        pairs.push(("threads".to_owned(), Json::U64(4)));
    }
    let err = Scenario::from_json(&json).unwrap_err();
    assert!(matches!(err, ScenarioError::Parse(_)), "{err:?}");
    assert!(err.to_string().contains("`threads`"), "{err}");
    assert!(err.to_string().contains("retired"), "{err}");
}

/// `Scenario::patronoc()` serialized, with `key` replaced by (or, when
/// absent, appended as) `value`.
fn with_key(key: &str, value: Json) -> Json {
    let mut json = Scenario::patronoc().window(1_000).to_json();
    if let Json::Obj(pairs) = &mut json {
        match pairs.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => pairs.push((key.to_owned(), value)),
        }
    }
    json
}

fn parse_error(json: &Json) -> String {
    match Scenario::from_json(json) {
        Err(ScenarioError::Parse(msg)) => msg,
        other => panic!("expected a parse error, got {other:?}"),
    }
}

#[test]
fn retired_threads_key_is_rejected_whatever_its_value() {
    // Even the old serial default (`1`) is refused: accepting some values
    // would make the key look live.
    for value in [
        Json::U64(0),
        Json::U64(1),
        Json::U64(u64::MAX),
        Json::Null,
        Json::Bool(false),
        Json::F64(2.0),
        Json::str("4"),
    ] {
        let msg = parse_error(&with_key("threads", value.clone()));
        assert!(msg.contains("`threads` is retired"), "{value}: {msg}");
    }
}

#[test]
fn artifacts_written_before_the_threads_key_retired_are_rejected() {
    // The text the serializer produced while the knob existed: the same
    // document with `"threads":1` between `seed` and `time_skip`.
    let current = Scenario::patronoc().window(1_000).to_json().to_json();
    let legacy = current.replace(",\"time_skip\"", ",\"threads\":1,\"time_skip\"");
    assert_ne!(legacy, current, "the legacy key was not spliced in");
    let err = Scenario::from_json_str(&legacy).unwrap_err();
    assert!(err.to_string().contains("`threads` is retired"), "{err}");
    // Without the key the same text parses.
    assert!(Scenario::from_json_str(&current).is_ok());
}

#[test]
fn time_skip_key_is_optional_but_typed() {
    // Absent means on (documents predating the knob); present must be a
    // boolean.
    let mut json = Scenario::patronoc()
        .time_skip(false)
        .window(1_000)
        .to_json();
    if let Json::Obj(pairs) = &mut json {
        pairs.retain(|(k, _)| k != "time_skip");
    }
    assert!(Scenario::from_json(&json).unwrap().time_skip);
    let off = with_key("time_skip", Json::Bool(false));
    assert!(!Scenario::from_json(&off).unwrap().time_skip);
    let msg = parse_error(&with_key("time_skip", Json::U64(1)));
    assert!(msg.contains("key `time_skip`: expected a boolean"), "{msg}");
}

#[test]
fn budget_must_be_null_or_an_integer() {
    let budgeted = with_key("budget", Json::U64(5_000));
    assert_eq!(Scenario::from_json(&budgeted).unwrap().budget, Some(5_000));
    for bad in [Json::str("5000"), Json::F64(5e3), Json::Bool(true)] {
        let msg = parse_error(&with_key("budget", bad.clone()));
        assert!(
            msg.contains("key `budget`: expected null or an integer"),
            "{bad}: {msg}"
        );
    }
}

#[test]
fn unknown_labels_are_named() {
    let msg = parse_error(&with_key("algorithm", Json::str("west-first")));
    assert!(
        msg.contains("unknown routing algorithm `west-first`"),
        "{msg}"
    );
    let msg = parse_error(&with_key("connectivity", Json::str("sparse")));
    assert!(msg.contains("unknown connectivity `sparse`"), "{msg}");
    let hypercube = Json::obj(vec![("kind", Json::str("hypercube"))]);
    let msg = parse_error(&with_key("topology", hypercube));
    assert!(msg.contains("unknown topology kind `hypercube`"), "{msg}");
}

#[test]
fn out_of_range_widths_are_rejected_not_truncated() {
    for key in ["addr_width", "data_width", "id_width", "max_outstanding"] {
        let msg = parse_error(&with_key(key, Json::U64(1 << 32)));
        assert!(msg.contains(&format!("key `{key}` out of range")), "{msg}");
    }
}

fn traffic_obj(kind: &str, fields: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![("kind", Json::str(kind))];
    pairs.extend(fields);
    Json::obj(pairs)
}

fn uniform(load: f64, max_transfer: u64, read_fraction: f64) -> Json {
    traffic_obj(
        "uniform",
        vec![
            ("load", Json::F64(load)),
            ("max_transfer", Json::U64(max_transfer)),
            ("read_fraction", Json::F64(read_fraction)),
            ("copies", Json::Bool(false)),
        ],
    )
}

fn synthetic(load: f64, max_transfer: u64, read_fraction: f64) -> Json {
    traffic_obj(
        "synthetic",
        vec![
            ("pattern", Json::str("all-global")),
            ("load", Json::F64(load)),
            ("max_transfer", Json::U64(max_transfer)),
            ("read_fraction", Json::F64(read_fraction)),
        ],
    )
}

/// Parses `traffic` inside an otherwise valid document and asserts a
/// parse error naming `key` — not a panic, and not a silent clamp.
fn assert_traffic_rejected(traffic: &Json, key: &str) {
    let doc = with_key("traffic", traffic.clone());
    let outcome = std::panic::catch_unwind(|| Scenario::from_json(&doc));
    match outcome {
        Ok(Err(ScenarioError::Parse(msg))) => assert!(msg.contains(key), "{traffic}: {msg}"),
        Ok(other) => panic!("{traffic}: expected a parse error, got {other:?}"),
        Err(_) => panic!("{traffic}: parsing panicked"),
    }
}

/// Parses `traffic` and runs the scenario for a short window.
fn assert_traffic_runs(traffic: &Json) {
    let mut sc = Scenario::from_json(&with_key("traffic", traffic.clone()))
        .unwrap_or_else(|e| panic!("{traffic}: {e}"));
    sc.window = 200;
    sc.run().unwrap_or_else(|e| panic!("{traffic}: {e}"));
}

const REGION: u64 = 1 << 24;

fn dnn_steps(steps: u64) -> Json {
    traffic_obj(
        "dnn",
        vec![
            ("workload", Json::str("Pipe Conv")),
            ("steps", Json::U64(steps)),
        ],
    )
}

// Each document below used to parse, and then either panicked in the
// traffic generator once the scenario ran (zero load, zero-byte
// transfers, zero DNN steps, transfers larger than a region) or silently
// clamped a probability (`read_fraction` 7).
macro_rules! rejected {
    ($($name:ident: $traffic:expr => $key:literal;)*) => {$(
        #[test]
        fn $name() {
            assert_traffic_rejected(&$traffic, $key);
        }
    )*};
}

rejected! {
    uniform_zero_load_is_a_parse_error: uniform(0.0, 1_000, 0.5) => "key `load`";
    uniform_negative_load_is_a_parse_error: uniform(-0.5, 1_000, 0.5) => "key `load`";
    uniform_load_above_one_is_a_parse_error: uniform(1.5, 1_000, 0.5) => "key `load`";
    uniform_nan_load_is_a_parse_error: uniform(f64::NAN, 1_000, 0.5) => "key `load`";
    uniform_infinite_load_is_a_parse_error: uniform(f64::INFINITY, 1_000, 0.5) => "key `load`";
    uniform_zero_byte_transfers_are_a_parse_error: uniform(0.5, 0, 0.5) => "key `max_transfer`";
    uniform_transfers_larger_than_a_region_are_a_parse_error:
        uniform(0.5, REGION + 1, 0.5) => "key `max_transfer`";
    uniform_read_fraction_above_one_is_a_parse_error: uniform(0.5, 1_000, 7.0) => "key `read_fraction`";
    uniform_negative_read_fraction_is_a_parse_error: uniform(0.5, 1_000, -0.1) => "key `read_fraction`";
    uniform_nan_read_fraction_is_a_parse_error: uniform(0.5, 1_000, f64::NAN) => "key `read_fraction`";
    synthetic_zero_load_is_a_parse_error: synthetic(0.0, 1_000, 0.5) => "key `load`";
    synthetic_zero_byte_transfers_are_a_parse_error: synthetic(0.5, 0, 0.5) => "key `max_transfer`";
    synthetic_transfers_larger_than_a_region_are_a_parse_error:
        synthetic(0.5, REGION + 1, 0.5) => "key `max_transfer`";
    synthetic_read_fraction_above_one_is_a_parse_error: synthetic(0.5, 1_000, 7.0) => "key `read_fraction`";
    dnn_zero_steps_is_a_parse_error: dnn_steps(0) => "key `steps`";
}

// The closed ends of the ranges stay valid.
#[test]
fn full_load_one_byte_all_write_uniform_traffic_runs() {
    assert_traffic_runs(&uniform(1.0, 1, 0.0));
}

#[test]
fn full_load_region_sized_all_read_uniform_traffic_runs() {
    assert_traffic_runs(&uniform(1.0, REGION, 1.0));
}

#[test]
fn full_load_one_byte_all_read_synthetic_traffic_runs() {
    assert_traffic_runs(&synthetic(1.0, 1, 1.0));
}

#[test]
fn a_one_step_dnn_trace_runs() {
    assert_traffic_runs(&dnn_steps(1));
}

proptest! {
    #[test]
    fn any_scenario_carrying_threads_is_rejected(
        engine in engine_strategy(),
        topology in topology_strategy(),
        traffic in traffic_strategy(),
        threads in any::<u64>(),
    ) {
        let mut s = Scenario::patronoc().topology(topology).traffic(traffic).window(1_000);
        s.engine = engine;
        let mut json = s.to_json();
        if let Json::Obj(pairs) = &mut json {
            pairs.push(("threads".to_owned(), Json::U64(threads)));
        }
        let rejected = matches!(
            Scenario::from_json(&json),
            Err(ScenarioError::Parse(ref msg)) if msg.contains("`threads` is retired")
        );
        prop_assert!(rejected);
    }
}

#[test]
fn a_deserialized_scenario_runs_identically() {
    // The round trip is not just structural: the parsed scenario must
    // produce the bit-identical report.
    let original = Scenario::patronoc()
        .traffic(TrafficSpec::uniform_copies(0.4, 500))
        .warmup(500)
        .window(3_000)
        .seed(77);
    let text = original.to_json().to_json();
    let parsed = Scenario::from_json_str(&text).unwrap();
    assert_eq!(parsed, original);
    let a = original.run().unwrap();
    let b = parsed.run().unwrap();
    assert_eq!(a, b);
    assert_eq!(a.throughput_gib_s.to_bits(), b.throughput_gib_s.to_bits());
}
