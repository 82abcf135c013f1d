//! Runs every workload of `BENCHMARK.json` at smoke scale, untraced and
//! traced, and checks that the result line is correct and names exactly
//! the metrics `BENCHMARK.json` lists, each with its unit.

use std::collections::BTreeMap;
use std::process::Command;

/// A JSON value, enough of the grammar for `BENCHMARK.json` and the
/// benchmark's result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key:?}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("not an object: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k:?}");
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(a),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not expected here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("UTF-8"))
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn metric_units(bench: &Json, list: &str) -> BTreeMap<String, String> {
    bench
        .get(list)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> (std::process::ExitStatus, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lte-perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.5"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("benchmark binary runs");
    (
        out.status,
        String::from_utf8(out.stdout).expect("UTF-8 output"),
    )
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let bench = benchmark();
    let listed = bench.get("workloads").arr();
    assert!(!listed.is_empty());
    for w in listed {
        let name = w.get("name").str();
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let want = metric_units(&bench, list);
            let (status, stdout) = run(name, trace);
            assert!(status.success(), "{name} --trace {trace} failed:\n{stdout}");
            let lines: Vec<&str> = stdout.lines().collect();
            assert!(lines.len() >= 2, "settings and result lines expected");
            Json::parse(lines[lines.len() - 2]).get("settings").obj();
            let result = Json::parse(lines[lines.len() - 1]);
            assert_eq!(
                result.get("correct"),
                &Json::Bool(true),
                "{name} --trace {trace}"
            );
            assert_eq!(result.get("failed"), &Json::Num(0.0));
            let Json::Num(attempted) = result.get("attempted") else {
                panic!("attempted must be a number")
            };
            assert!(*attempted >= 1.0 && attempted.fract() == 0.0);
            let metrics = result.get("metrics").obj();
            let got: BTreeMap<String, String> = metrics
                .iter()
                .map(|(k, v)| (k.clone(), v.get("unit").str().to_string()))
                .collect();
            assert_eq!(
                got, want,
                "{name} --trace {trace}: metric names or units differ"
            );
            for (k, v) in metrics {
                let Json::Num(x) = v.get("value") else {
                    panic!("{k}: value must be a number")
                };
                assert!(x.is_finite(), "{name} {k} = {x}");
            }
        }
    }
}

#[test]
fn bad_arguments_exit_with_usage_and_no_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "serve", "--seed", "1", "--seconds", "1"],
        &[
            "--workload",
            "serve",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "serve",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_lte-perfbench"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
