//! The wire protocol: JSON shapes for requests, responses, and the
//! typed error envelope.
//!
//! Every error response body is the envelope
//! `{"code": <stable-slug>, "message": <human text>}`, extended with
//! `"valid_keys"` on unknown-solver/unknown-graph rejections so a
//! client (like the `reproduce` CLI before it) is always steered to a
//! valid alternative.

use crate::json::Value;
use lmds_api::{SolutionView, SolveConfig, SolveConfigView, SolveError};
use lmds_graph::dynamic::GraphUpdate;

/// A wire error: HTTP status plus the JSON envelope.
#[derive(Debug, Clone)]
pub struct WireError {
    /// HTTP status code.
    pub status: u16,
    /// Stable machine-readable code (the envelope's `code` field).
    pub code: &'static str,
    /// Human-readable message.
    pub message: String,
    /// Valid alternatives for not-found style errors.
    pub valid_keys: Option<Vec<String>>,
}

impl WireError {
    /// A plain envelope without alternatives.
    pub fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        WireError { status, code, message: message.into(), valid_keys: None }
    }

    /// An envelope listing the valid keys the caller could have used.
    pub fn with_keys(
        status: u16,
        code: &'static str,
        message: impl Into<String>,
        keys: impl IntoIterator<Item = String>,
    ) -> Self {
        WireError {
            status,
            code,
            message: message.into(),
            valid_keys: Some(keys.into_iter().collect()),
        }
    }

    /// 400 with `code: "bad-request"`.
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self::new(400, "bad-request", message)
    }

    /// The JSON envelope body.
    pub fn render(&self) -> Value {
        let mut pairs =
            vec![("code", Value::from(self.code)), ("message", Value::from(self.message.clone()))];
        if let Some(keys) = &self.valid_keys {
            pairs.push((
                "valid_keys",
                Value::Arr(keys.iter().map(|k| Value::from(k.as_str())).collect()),
            ));
        }
        Value::obj(pairs)
    }
}

/// Maps a [`SolveError`] onto the wire taxonomy: unknown solver → 404
/// (with the valid keys), config/instance rejections and runtime
/// failures → 422.
pub fn solve_error_to_wire(err: &SolveError) -> WireError {
    match err {
        SolveError::UnknownSolver { key, known } => WireError::with_keys(
            404,
            "unknown-solver",
            format!("no solver registered as {key:?}"),
            known.iter().map(|k| k.to_string()),
        ),
        SolveError::UnsupportedProblem { .. }
        | SolveError::UnsupportedMode { .. }
        | SolveError::UnsupportedOptions { .. } => {
            WireError::new(422, "unsupported-config", err.to_string())
        }
        SolveError::BudgetExhausted { .. } => {
            WireError::new(422, "budget-exhausted", err.to_string())
        }
        SolveError::Runtime(..) => WireError::new(422, "solve-error", err.to_string()),
    }
}

/// A parsed `POST /solve` / `POST /jobs` body.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// Corpus graph name.
    pub graph: String,
    /// Registry solver key.
    pub solver: String,
    /// The config view (defaults when the body has no `config`).
    pub config: SolveConfigView,
    /// Per-job timeout in milliseconds, if requested.
    pub timeout_ms: Option<u64>,
}

fn str_field(body: &Value, field: &'static str) -> Result<String, WireError> {
    body.get(field)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| WireError::bad_request(format!("body needs a string field {field:?}")))
}

/// Parses and validates a solve-request body.
///
/// # Errors
///
/// A 400 [`WireError`] naming the missing or ill-typed field.
pub fn parse_solve_request(body: &[u8]) -> Result<SolveRequest, WireError> {
    let text =
        std::str::from_utf8(body).map_err(|_| WireError::bad_request("body is not UTF-8"))?;
    let doc = crate::json::parse(text).map_err(|e| WireError::bad_request(e.to_string()))?;
    let graph = str_field(&doc, "graph")?;
    let solver = str_field(&doc, "solver")?;
    let timeout_ms =
        match doc.get("timeout_ms") {
            None | Some(Value::Null) => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                WireError::bad_request("timeout_ms must be a non-negative integer")
            })?),
        };
    let config = match doc.get("config") {
        None | Some(Value::Null) => SolveConfigView::default(),
        Some(cfg) => parse_config_view(cfg)?,
    };
    Ok(SolveRequest { graph, solver, config, timeout_ms })
}

/// Parses the `config` object of a solve request into a
/// [`SolveConfigView`]. Unknown fields are rejected (a typo must not
/// silently run under defaults).
pub fn parse_config_view(cfg: &Value) -> Result<SolveConfigView, WireError> {
    let Value::Obj(map) = cfg else {
        return Err(WireError::bad_request("config must be an object"));
    };
    const KNOWN: &[&str] = &[
        "problem",
        "mode",
        "id_policy",
        "id_seed",
        "round_cap",
        "radii",
        "exact_backend",
        "opt_budget",
        "measure_ratio",
        "fault",
    ];
    if let Some(unknown) = map.keys().find(|k| !KNOWN.contains(&k.as_str())) {
        return Err(WireError::bad_request(format!(
            "unknown config field {unknown:?} (known: {})",
            KNOWN.join(", ")
        )));
    }
    let opt_str = |field: &'static str| -> Result<Option<String>, WireError> {
        match map.get(field) {
            None | Some(Value::Null) => Ok(None),
            Some(v) => v
                .as_str()
                .map(|s| Some(s.to_string()))
                .ok_or_else(|| WireError::bad_request(format!("config.{field} must be a string"))),
        }
    };
    let opt_u64 = |field: &'static str| -> Result<Option<u64>, WireError> {
        match map.get(field) {
            None | Some(Value::Null) => Ok(None),
            Some(v) => v.as_u64().map(Some).ok_or_else(|| {
                WireError::bad_request(format!("config.{field} must be a non-negative integer"))
            }),
        }
    };
    let radii = match map.get("radii") {
        None | Some(Value::Null) => None,
        Some(v) => {
            let items = v.as_arr().filter(|a| a.len() == 2).ok_or_else(|| {
                WireError::bad_request(
                    "config.radii must be a two-element array [one_cut, two_cut]",
                )
            })?;
            let mut pair = [0u32; 2];
            for (slot, item) in pair.iter_mut().zip(items) {
                *slot = item
                    .as_u64()
                    .and_then(|x| u32::try_from(x).ok())
                    .ok_or_else(|| WireError::bad_request("config.radii entries must be u32"))?;
            }
            Some((pair[0], pair[1]))
        }
    };
    let measure_ratio = match map.get("measure_ratio") {
        None | Some(Value::Null) => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| WireError::bad_request("config.measure_ratio must be a boolean"))?,
    };
    Ok(SolveConfigView {
        problem: opt_str("problem")?,
        mode: opt_str("mode")?,
        id_policy: opt_str("id_policy")?,
        id_seed: opt_u64("id_seed")?,
        round_cap: opt_u64("round_cap")?
            .map(|x| u32::try_from(x).map_err(|_| WireError::bad_request("round_cap too large")))
            .transpose()?,
        radii,
        exact_backend: opt_str("exact_backend")?,
        opt_budget: opt_u64("opt_budget")?,
        measure_ratio,
        fault: opt_str("fault")?,
    })
}

/// Renders a [`SolveConfigView`] as a JSON object with every field
/// present (absent options render as `null`), in deterministic key
/// order.
pub fn render_config_view(view: &SolveConfigView) -> Value {
    let opt_str = |v: &Option<String>| v.as_ref().map_or(Value::Null, |s| Value::from(s.as_str()));
    Value::obj([
        ("problem", opt_str(&view.problem)),
        ("mode", opt_str(&view.mode)),
        ("id_policy", opt_str(&view.id_policy)),
        ("id_seed", view.id_seed.map_or(Value::Null, Value::from)),
        ("round_cap", view.round_cap.map_or(Value::Null, |x| Value::from(u64::from(x)))),
        (
            "radii",
            view.radii.map_or(Value::Null, |(a, b)| {
                Value::Arr(vec![Value::from(u64::from(a)), Value::from(u64::from(b))])
            }),
        ),
        ("exact_backend", opt_str(&view.exact_backend)),
        ("opt_budget", view.opt_budget.map_or(Value::Null, Value::from)),
        ("measure_ratio", Value::from(view.measure_ratio)),
        ("fault", opt_str(&view.fault)),
    ])
}

/// The canonical configuration fingerprint used in result-cache keys:
/// the *materialized* config echoed back through
/// [`SolveConfigView::from_config`] and rendered as compact JSON.
/// Materializing first means two requests that spell the same effective
/// configuration differently (e.g. omitting a knob vs. passing its
/// default) share one fingerprint.
pub fn config_fingerprint(cfg: &SolveConfig) -> String {
    render_config_view(&SolveConfigView::from_config(cfg)).render()
}

/// Renders a [`SolutionView`] as its wire object.
pub fn render_solution(view: &SolutionView) -> Value {
    Value::obj([
        ("solver", Value::from(view.solver.as_str())),
        ("problem", Value::from(view.problem.as_str())),
        ("mode", Value::from(view.mode.as_str())),
        ("size", Value::from(view.size)),
        ("vertices", Value::Arr(view.vertices.iter().map(|&v| Value::from(v)).collect())),
        ("valid", Value::from(view.valid)),
        ("rounds", view.rounds.map_or(Value::Null, Value::from)),
        ("total_message_bits", view.total_message_bits.map_or(Value::Null, Value::from)),
        ("max_message_bits", view.max_message_bits.map_or(Value::Null, Value::from)),
        ("wall_micros", Value::from(view.wall_micros)),
        ("ratio", view.ratio.map_or(Value::Null, Value::from)),
        (
            "optimum",
            view.optimum.map_or(Value::Null, |(value, exact)| {
                Value::obj([("value", Value::from(value)), ("exact", Value::from(exact))])
            }),
        ),
        (
            "fault",
            match (&view.fault_messages_dropped, &view.fault_crashed, &view.fault_silent) {
                (None, None, None) => Value::Null,
                (dropped, crashed, silent) => Value::obj([
                    ("messages_dropped", dropped.map_or(Value::Null, Value::from)),
                    (
                        "crashed",
                        Value::Arr(crashed.iter().flatten().map(|&v| Value::from(v)).collect()),
                    ),
                    (
                        "silent",
                        Value::Arr(silent.iter().flatten().map(|&v| Value::from(v)).collect()),
                    ),
                    (
                        "max_staleness",
                        view.fault_max_staleness.map_or(Value::Null, |x| Value::from(u64::from(x))),
                    ),
                ]),
            },
        ),
    ])
}

/// Parses the wire object produced by [`render_solution`] back into a
/// [`SolutionView`] — the decode half the persistent result cache
/// needs to reload solutions on restart.
///
/// # Errors
///
/// A human-readable description of the first missing or ill-typed
/// field.
pub fn parse_solution(doc: &Value) -> Result<SolutionView, String> {
    let str_field = |f: &str| -> Result<String, String> {
        doc.get(f)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("solution needs a string field {f:?}"))
    };
    let u64_field = |f: &str| -> Result<u64, String> {
        doc.get(f)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("solution field {f:?} must be a non-negative integer"))
    };
    let opt_u64 = |f: &str| -> Result<Option<u64>, String> {
        match doc.get(f) {
            None | Some(Value::Null) => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("solution field {f:?} must be a non-negative integer")),
        }
    };
    let vertices = doc
        .get("vertices")
        .and_then(Value::as_arr)
        .ok_or("solution needs a \"vertices\" array")?
        .iter()
        .map(|v| {
            v.as_u64().map(|x| x as usize).ok_or_else(|| "vertex ids must be integers".to_string())
        })
        .collect::<Result<Vec<usize>, String>>()?;
    let valid = doc
        .get("valid")
        .and_then(Value::as_bool)
        .ok_or("solution needs a boolean \"valid\" field")?;
    let ratio = match doc.get("ratio") {
        None | Some(Value::Null) => None,
        Some(v) => Some(v.as_f64().ok_or("solution field \"ratio\" must be a number")?),
    };
    let optimum = match doc.get("optimum") {
        None | Some(Value::Null) => None,
        Some(o) => {
            let value = o
                .get("value")
                .and_then(Value::as_u64)
                .ok_or("optimum needs an integer \"value\"")? as usize;
            let exact =
                o.get("exact").and_then(Value::as_bool).ok_or("optimum needs a bool \"exact\"")?;
            Some((value, exact))
        }
    };
    let vertex_list = |v: &Value, what: &str| -> Result<Vec<usize>, String> {
        v.as_arr()
            .ok_or_else(|| format!("fault field {what:?} must be an array"))?
            .iter()
            .map(|x| {
                x.as_u64()
                    .map(|x| x as usize)
                    .ok_or_else(|| format!("fault {what} entries must be integers"))
            })
            .collect()
    };
    let (fault_messages_dropped, fault_crashed, fault_silent, fault_max_staleness) =
        match doc.get("fault") {
            None | Some(Value::Null) => (None, None, None, None),
            Some(fr) => (
                fr.get("messages_dropped").and_then(Value::as_u64),
                Some(vertex_list(fr.get("crashed").unwrap_or(&Value::Null), "crashed")?),
                Some(vertex_list(fr.get("silent").unwrap_or(&Value::Null), "silent")?),
                // Saturate rather than truncate: a forged 2³²+5 must not
                // silently parse as staleness 5.
                fr.get("max_staleness")
                    .and_then(Value::as_u64)
                    .map(|x| u32::try_from(x).unwrap_or(u32::MAX)),
            ),
        };
    Ok(SolutionView {
        solver: str_field("solver")?,
        problem: str_field("problem")?,
        mode: str_field("mode")?,
        size: u64_field("size")? as usize,
        vertices,
        valid,
        rounds: opt_u64("rounds")?
            .map(|x| u32::try_from(x).map_err(|_| "rounds too large".to_string()))
            .transpose()?,
        total_message_bits: opt_u64("total_message_bits")?,
        max_message_bits: opt_u64("max_message_bits")?,
        wall_micros: u64_field("wall_micros")?,
        ratio,
        optimum,
        fault_messages_dropped,
        fault_crashed,
        fault_silent,
        fault_max_staleness,
    })
}

/// Parses a `PATCH /graphs/{name}` body into a [`GraphUpdate`] batch.
///
/// Wire shape: `{"updates": [<op>, ...]}` where each op is one of
///
/// * `{"op": "insert", "u": 0, "v": 1}` — insert edge `{u, v}`,
/// * `{"op": "delete", "u": 0, "v": 1}` — remove edge `{u, v}`,
/// * `{"op": "add_vertex"}` — append one isolated vertex.
///
/// The batch is applied atomically server-side
/// ([`lmds_graph::dynamic::DynamicGraph::apply`]), so a rejected op
/// means nothing was applied. An empty batch is rejected here — a PATCH
/// that changes nothing is almost certainly a client bug.
///
/// # Errors
///
/// A 400 [`WireError`] naming the malformed op or field.
pub fn parse_update_batch(body: &[u8]) -> Result<Vec<GraphUpdate>, WireError> {
    let text =
        std::str::from_utf8(body).map_err(|_| WireError::bad_request("body is not UTF-8"))?;
    let doc = crate::json::parse(text).map_err(|e| WireError::bad_request(e.to_string()))?;
    let items = doc
        .get("updates")
        .and_then(Value::as_arr)
        .ok_or_else(|| WireError::bad_request("body needs an \"updates\" array"))?;
    if items.is_empty() {
        return Err(WireError::bad_request("\"updates\" must not be empty"));
    }
    let mut batch = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let op = item
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| WireError::bad_request(format!("update #{i} needs a string \"op\"")))?;
        let endpoint = |field: &'static str| -> Result<usize, WireError> {
            item.get(field).and_then(Value::as_u64).map(|x| x as usize).ok_or_else(|| {
                WireError::bad_request(format!(
                    "update #{i} ({op}) needs a non-negative integer {field:?}"
                ))
            })
        };
        batch.push(match op {
            "insert" => GraphUpdate::InsertEdge(endpoint("u")?, endpoint("v")?),
            "delete" => GraphUpdate::RemoveEdge(endpoint("u")?, endpoint("v")?),
            "add_vertex" => GraphUpdate::AddVertex,
            other => {
                return Err(WireError::bad_request(format!(
                    "update #{i}: unknown op {other:?} (known: insert, delete, add_vertex)"
                )))
            }
        });
    }
    Ok(batch)
}

/// Renders a graph-entry summary (`PUT /graphs/{name}` response and
/// `GET /graphs` rows). The 64-bit checksum travels as a hex string —
/// JSON numbers are f64 and would corrupt it.
pub fn render_graph_entry(entry: &crate::corpus::GraphEntry) -> Value {
    Value::obj([
        ("name", Value::from(entry.name())),
        ("n", Value::from(entry.graph().n())),
        ("m", Value::from(entry.graph().m())),
        ("checksum", Value::from(format!("{:#018x}", entry.checksum))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmds_api::{ExecutionMode, Problem};

    #[test]
    fn parses_a_full_solve_request() {
        let body = br#"{
            "graph": "demo",
            "solver": "mds/algorithm1",
            "timeout_ms": 2500,
            "config": {
                "mode": "local-oracle",
                "id_policy": "shuffled",
                "id_seed": 7,
                "round_cap": 99,
                "radii": [2, 3],
                "measure_ratio": true
            }
        }"#;
        let req = parse_solve_request(body).unwrap();
        assert_eq!(req.graph, "demo");
        assert_eq!(req.solver, "mds/algorithm1");
        assert_eq!(req.timeout_ms, Some(2500));
        let cfg = req.config.try_into_config(Problem::MinDominatingSet).unwrap();
        assert_eq!(cfg.mode, ExecutionMode::LOCAL_ORACLE);
        assert_eq!(cfg.scenario.round_cap, Some(99));
        assert!(cfg.measure_ratio);
    }

    #[test]
    fn missing_fields_and_typos_are_400s() {
        let err = parse_solve_request(b"{}").unwrap_err();
        assert_eq!((err.status, err.code), (400, "bad-request"));
        assert!(err.message.contains("graph"), "{}", err.message);

        let err = parse_solve_request(br#"{"graph":"g","solver":"s","config":{"mdoe":"x"}}"#)
            .unwrap_err();
        assert!(err.message.contains("mdoe"), "typos are named: {}", err.message);

        let err = parse_solve_request(b"not json").unwrap_err();
        assert_eq!(err.status, 400);

        let err =
            parse_solve_request(br#"{"graph":"g","solver":"s","timeout_ms":-3}"#).unwrap_err();
        assert!(err.message.contains("timeout_ms"));
    }

    #[test]
    fn threads_is_an_unknown_config_field() {
        let err = parse_solve_request(br#"{"graph":"g","solver":"s","config":{"threads":2}}"#)
            .unwrap_err();
        assert_eq!((err.status, err.code), (400, "bad-request"));
        assert!(err.message.contains("unknown config field \"threads\""), "{}", err.message);
    }

    #[test]
    fn sharded_oracle_mode_round_trips_unchanged() {
        let req = parse_solve_request(
            br#"{"graph":"g","solver":"s","config":{"mode":"local-sharded-oracle"}}"#,
        )
        .unwrap();
        assert_eq!(req.config.mode.as_deref(), Some("local-sharded-oracle"));
        let cfg = req.config.try_into_config(Problem::MinDominatingSet).unwrap();
        assert_eq!(cfg.mode, ExecutionMode::LOCAL_SHARDED);
        let echoed = render_config_view(&lmds_api::SolveConfigView::from_config(&cfg));
        assert_eq!(echoed.get("mode").and_then(Value::as_str), Some("local-sharded-oracle"));
        assert_eq!(
            parse_config_view(&echoed).unwrap().mode.as_deref(),
            Some("local-sharded-oracle")
        );
    }

    #[test]
    fn unknown_solver_envelope_carries_valid_keys() {
        let registry = lmds_api::SolverRegistry::with_defaults();
        let err = SolveError::UnknownSolver { key: "mds/nope".into(), known: registry.keys() };
        let wire = solve_error_to_wire(&err);
        assert_eq!((wire.status, wire.code), (404, "unknown-solver"));
        let doc = wire.render();
        let keys = doc.get("valid_keys").unwrap().as_arr().unwrap();
        assert_eq!(keys.len(), registry.keys().len());
        assert!(keys.iter().any(|k| k.as_str() == Some("mds/algorithm1")));
    }

    #[test]
    fn solution_views_round_trip_through_the_wire_object() {
        let registry = lmds_api::SolverRegistry::with_defaults();
        let inst =
            lmds_api::Instance::sequential("p8", lmds_gen::basic::path(8)).with_mds_optimum(3);
        let cfg = lmds_api::SolveConfig::mds()
            .mode(ExecutionMode::LOCAL_MESSAGE_PASSING)
            .measure_ratio(true);
        let sol = registry.solve("mds/theorem44", &inst, &cfg).unwrap();
        let view = SolutionView::from(&sol);
        let parsed = parse_solution(&render_solution(&view)).unwrap();
        assert_eq!(parsed, view, "render → parse is the identity");

        // A centralized run with no distributed fields round-trips too.
        let sol = registry.solve("mds/exact", &inst, &lmds_api::SolveConfig::mds()).unwrap();
        let view = SolutionView::from(&sol);
        assert_eq!(parse_solution(&render_solution(&view)).unwrap(), view);

        assert!(parse_solution(&Value::obj([])).is_err(), "missing fields are named");
    }

    #[test]
    fn config_fingerprints_canonicalize_equivalent_configs() {
        use lmds_api::SolveConfigView;
        let problem = Problem::MinDominatingSet;
        // Spelled-out defaults and omitted defaults materialize to the
        // same config, so they share a fingerprint.
        let implicit = SolveConfigView::default().try_into_config(problem).unwrap();
        let explicit =
            SolveConfigView { mode: Some("centralized".into()), ..SolveConfigView::default() }
                .try_into_config(problem)
                .unwrap();
        assert_eq!(config_fingerprint(&implicit), config_fingerprint(&explicit));

        // A real knob change separates the keys.
        let local = SolveConfigView { mode: Some("local-oracle".into()), ..Default::default() }
            .try_into_config(problem)
            .unwrap();
        assert_ne!(config_fingerprint(&implicit), config_fingerprint(&local));
        assert!(config_fingerprint(&local).contains("local-oracle"));

        // Worker counts change no output, so they are not part of the key.
        assert!(!config_fingerprint(&local).contains("threads"), "{}", config_fingerprint(&local));
    }

    #[test]
    fn update_batches_parse_and_malformed_ops_are_named() {
        let batch = parse_update_batch(
            br#"{"updates": [
                {"op": "insert", "u": 0, "v": 1},
                {"op": "delete", "u": 2, "v": 3},
                {"op": "add_vertex"}
            ]}"#,
        )
        .unwrap();
        assert_eq!(
            batch,
            vec![
                GraphUpdate::InsertEdge(0, 1),
                GraphUpdate::RemoveEdge(2, 3),
                GraphUpdate::AddVertex
            ]
        );

        for (body, needle) in [
            (br#"{}"# as &[u8], "updates"),
            (br#"{"updates": []}"#, "must not be empty"),
            (br#"{"updates": [{"op": "explode"}]}"#, "explode"),
            (br#"{"updates": [{"op": "insert", "u": 0}]}"#, "\"v\""),
            (br#"{"updates": [{"op": "delete", "u": -1, "v": 2}]}"#, "\"u\""),
            (br#"{"updates": [{"u": 0, "v": 1}]}"#, "\"op\""),
        ] {
            let err = parse_update_batch(body).unwrap_err();
            assert_eq!((err.status, err.code), (400, "bad-request"));
            assert!(err.message.contains(needle), "{:?} → {}", body, err.message);
        }
    }

    #[test]
    fn envelope_shape_is_stable() {
        let doc = WireError::new(429, "queue-full", "later").render();
        assert_eq!(doc.get("code").unwrap().as_str(), Some("queue-full"));
        assert_eq!(doc.get("message").unwrap().as_str(), Some("later"));
        assert!(doc.get("valid_keys").is_none(), "no alternatives, no field");
    }
}
