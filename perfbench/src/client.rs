//! A minimal client for `qudit-serve`: request bodies, one-shot HTTP exchanges, and
//! the parser for `/compile` responses.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use openqudit::prelude::*;
use openqudit::serve::json::{self, Json};

/// What a `/compile` request asks for.
#[derive(Debug, Clone)]
pub enum Target {
    /// A constant gate from the library, by its registry name.
    Gate(&'static str),
    /// An explicit dense unitary.
    Matrix(Matrix<f64>),
}

/// The JSON body of a `/compile` request for a 2-qubit `target` at engine `seed`.
/// Numbers use Rust's shortest round-trip formatting, so the server reads back
/// exactly the matrix the client checks against.
pub fn compile_body(target: &Target, seed: u64) -> String {
    let target = match target {
        Target::Gate(name) => format!("{{\"gate\":\"{name}\"}}"),
        Target::Matrix(m) => {
            let rows: Vec<String> = (0..m.rows())
                .map(|r| {
                    let cells: Vec<String> = (0..m.cols())
                        .map(|c| {
                            let z = m.get(r, c);
                            format!("[{},{}]", z.re, z.im)
                        })
                        .collect();
                    format!("[{}]", cells.join(","))
                })
                .collect();
            format!("{{\"matrix\":[{}]}}", rows.join(","))
        }
    };
    format!("{{\"radices\":[2,2],\"seed\":{seed},\"target\":{target}}}")
}

/// One HTTP response, split into the parts the benchmark reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The `x-openqudit-dedup` header (`leader` or `joined`), when present.
    pub dedup: Option<String>,
    /// The body.
    pub body: String,
}

/// Splits a raw HTTP/1.1 response into status, dedup role, and body.
///
/// # Errors
///
/// Returns a message when the status line or the header/body separator is missing.
pub fn parse_http_response(raw: &str) -> Result<Response, String> {
    let (head, body) = raw.split_once("\r\n\r\n").ok_or("no header/body separator")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or("empty response")?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let dedup = lines.find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.trim().eq_ignore_ascii_case("x-openqudit-dedup").then(|| value.trim().to_string())
    });
    Ok(Response { status, dedup, body: body.to_string() })
}

/// Sends one request on a fresh connection and returns the raw response.
///
/// # Errors
///
/// Propagates socket errors.
pub fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    Ok(raw)
}

/// The fields of a 200 `/compile` body that the benchmark checks and measures.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileOutcome {
    /// Entangling blocks of the output circuit, as `(a, b)` qudit pairs.
    pub blocks: Vec<(usize, usize)>,
    /// The output circuit's parameters, in template order.
    pub params: Vec<f64>,
    /// The infidelity the server claims.
    pub infidelity: f64,
    /// The success flag the server claims.
    pub success: bool,
    /// Per-pass wall-clock seconds, in pipeline order.
    pub pass_seconds: Vec<(String, f64)>,
    /// The tier-invariant counters of the compilation.
    pub metrics: BTreeMap<String, f64>,
}

impl CompileOutcome {
    /// Sum of the pass timings.
    pub fn pass_total(&self) -> f64 {
        self.pass_seconds.iter().map(|(_, s)| s).sum()
    }
}

fn number_list(value: &Json, what: &str) -> Result<Vec<f64>, String> {
    value
        .as_arr()
        .ok_or(format!("{what} is not an array"))?
        .iter()
        .map(|v| v.as_f64().ok_or(format!("{what} holds a non-number")))
        .collect()
}

/// Parses a 200 `/compile` body.
///
/// # Errors
///
/// Returns a message naming the first missing or malformed field.
pub fn parse_compile_body(body: &str) -> Result<CompileOutcome, String> {
    let doc = json::parse(body.as_bytes())?;
    let field = |key: &str| doc.get(key).ok_or(format!("missing field {key:?}"));
    let mut blocks = Vec::new();
    for pair in field("blocks")?.as_arr().ok_or("blocks is not an array")? {
        match number_list(pair, "block")?.as_slice() {
            [a, b] => blocks.push((*a as usize, *b as usize)),
            other => return Err(format!("block {other:?} is not a pair")),
        }
    }
    let params = number_list(field("params")?, "params")?;
    let infidelity = field("infidelity")?.as_f64().ok_or("infidelity is not a number")?;
    let success = field("success")?.as_bool().ok_or("success is not a boolean")?;
    let mut pass_seconds = Vec::new();
    for timing in field("timings")?.as_arr().ok_or("timings is not an array")? {
        let pass = timing.get("pass").and_then(Json::as_str).ok_or("timing without pass")?;
        let seconds =
            timing.get("seconds").and_then(Json::as_f64).ok_or("timing without seconds")?;
        pass_seconds.push((pass.to_string(), seconds));
    }
    let mut metrics = BTreeMap::new();
    for (name, value) in field("metrics")?.as_obj().ok_or("metrics is not an object")? {
        metrics.insert(name.clone(), value.as_f64().ok_or("metric is not a number")?);
    }
    Ok(CompileOutcome { blocks, params, infidelity, success, pass_seconds, metrics })
}

/// Rebuilds the circuit a 2-qubit `/compile` response describes: the synthesis
/// template over its blocks, whose parameter order the response's `params` follow.
///
/// # Errors
///
/// Returns a message when the blocks do not name a valid template.
pub fn rebuild_circuit(outcome: &CompileOutcome) -> Result<QuditCircuit, String> {
    builders::pqc_template(&[2, 2], &outcome.blocks).map_err(|e| e.to_string())
}
