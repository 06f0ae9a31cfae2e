//! Smoke tests of the benchmark command: every workload and every traced
//! run at tiny sizes, checked against the metric names and units
//! `BENCHMARK.json` declares.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["sweep", "sampled", "market_reorg"];

/// A parsed JSON value: just enough JSON for the result line and
/// `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    Text(String),
    List(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Object(map) => map.get(key).unwrap_or_else(|| panic!("no key {key} in {self:?}")),
            _ => panic!("{self:?} is not an object"),
        }
    }

    fn text(&self) -> &str {
        match self {
            Json::Text(text) => text,
            _ => panic!("{self:?} is not a string"),
        }
    }

    fn number(&self) -> f64 {
        match self {
            Json::Number(value) => *value,
            _ => panic!("{self:?} is not a number"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut parser = Parser { bytes: text.as_bytes(), at: 0 };
        let value = parser.value();
        parser.skip_space();
        assert_eq!(parser.at, parser.bytes.len(), "trailing input in {text}");
        value
    }

    fn skip_space(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) {
        self.skip_space();
        assert_eq!(self.bytes[self.at], byte, "at byte {}", self.at);
        self.at += 1;
    }

    fn value(&mut self) -> Json {
        self.skip_space();
        match self.bytes[self.at] {
            b'{' => {
                self.at += 1;
                let mut map = BTreeMap::new();
                self.skip_space();
                if self.bytes[self.at] == b'}' {
                    self.at += 1;
                    return Json::Object(map);
                }
                loop {
                    let Json::Text(key) = self.value() else { panic!("object keys are strings") };
                    self.expect(b':');
                    assert!(map.insert(key.clone(), self.value()).is_none(), "duplicate {key}");
                    self.skip_space();
                    self.at += 1;
                    if self.bytes[self.at - 1] == b'}' {
                        return Json::Object(map);
                    }
                }
            }
            b'[' => {
                self.at += 1;
                let mut list = Vec::new();
                self.skip_space();
                if self.bytes[self.at] == b']' {
                    self.at += 1;
                    return Json::List(list);
                }
                loop {
                    list.push(self.value());
                    self.skip_space();
                    self.at += 1;
                    if self.bytes[self.at - 1] == b']' {
                        return Json::List(list);
                    }
                }
            }
            b'"' => {
                let start = self.at + 1;
                let end = start + self.bytes[start..].iter().position(|&b| b == b'"').unwrap();
                self.at = end + 1;
                Json::Text(String::from_utf8(self.bytes[start..end].to_vec()).unwrap())
            }
            _ => {
                let start = self.at;
                while self.at < self.bytes.len() && !b",}] \n".contains(&self.bytes[self.at]) {
                    self.at += 1;
                }
                match std::str::from_utf8(&self.bytes[start..self.at]).unwrap() {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    "null" => Json::Null,
                    number => Json::Number(number.parse().unwrap_or_else(|_| panic!("{number}"))),
                }
            }
        }
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    let Json::List(metrics) = Parser::parse(&text).get(section).clone() else {
        panic!("{section} is a list")
    };
    metrics
        .iter()
        .map(|m| (m.get("name").text().to_string(), m.get("unit").text().to_string()))
        .collect()
}

struct Run {
    success: bool,
    notes: Vec<String>,
    result: Option<Json>,
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let mut lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let result = lines.pop().filter(|l| l.starts_with('{')).map(|l| Parser::parse(&l));
    Run { success: output.status.success(), notes: lines, result }
}

/// Checks the result line's shape and returns its `(name, unit)` pairs.
fn check_result(workload: &str, run: &Run) -> Vec<(String, String)> {
    assert!(run.success, "{workload} failed: {:?}", run.notes);
    let result = run.result.as_ref().expect("a result line");
    let Json::Object(top) = result else { panic!("result is an object") };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), &Json::Bool(true));
    assert!(result.get("attempted").number() >= 1.0);
    assert_eq!(result.get("failed").number(), 0.0);
    let Json::Object(metrics) = result.get("metrics") else { panic!("metrics is an object") };
    let mut pairs: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, metric)| {
            assert!(metric.get("value").number().is_finite(), "{workload} {name}");
            (name.clone(), metric.get("unit").text().to_string())
        })
        .collect();
    pairs.sort();
    pairs
}

fn sorted(mut pairs: Vec<(String, String)>) -> Vec<(String, String)> {
    pairs.sort();
    pairs
}

#[test]
fn benchmark_json_lists_the_workloads_the_command_runs() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    let Json::List(workloads) = Parser::parse(&text).get("workloads").clone() else {
        panic!("workloads is a list")
    };
    let names: Vec<&str> = workloads.iter().map(|w| w.get("name").text()).collect();
    assert_eq!(names, WORKLOADS);
    let in_code: Vec<&str> = perfbench::workloads::Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(in_code, WORKLOADS);
}

#[test]
fn every_workload_prints_every_end_to_end_metric_with_its_unit() {
    let expected = sorted(declared("end_to_end"));
    for workload in WORKLOADS {
        let run = run(workload, 1, false);
        assert_eq!(check_result(workload, &run), expected, "{workload}");
        let Json::Object(metrics) = run.result.as_ref().unwrap().get("metrics") else {
            unreachable!()
        };
        for (name, metric) in metrics {
            assert!(metric.get("value").number() > 0.0, "{workload} {name} is never 0");
        }
    }
}

#[test]
fn every_traced_run_prints_every_per_layer_metric_and_reproduces_the_untraced_counts() {
    let expected = sorted(declared("per_layer"));
    let in_code: Vec<(String, String)> = perfbench::layers::PER_LAYER
        .iter()
        .map(|(name, unit)| (name.to_string(), unit.to_string()))
        .collect();
    assert_eq!(sorted(in_code), expected, "BENCHMARK.json and PER_LAYER agree");
    for workload in WORKLOADS {
        let run = run(workload, 1, true);
        // A traced run fails its gate when the traced calls do not
        // reproduce the untraced counts, so success covers faithfulness.
        assert_eq!(check_result(workload, &run), expected, "{workload}");
        let metrics = run.result.as_ref().unwrap().get("metrics");
        let coverage = metrics.get("trace.coverage").get("value").number();
        assert!(coverage > 0.5 && coverage <= 1.0, "{workload} coverage {coverage}");
        if workload == "market_reorg" {
            assert!(metrics.get("market.reorgs").get("value").number() > 0.0);
        }
    }
}

#[test]
fn a_second_seed_changes_the_inputs_and_every_verdict_still_holds() {
    for workload in WORKLOADS {
        let digests: Vec<String> = [1, 2]
            .into_iter()
            .map(|seed| {
                let run = run(workload, seed, false);
                check_result(workload, &run);
                run.notes
                    .iter()
                    .find_map(|note| note.strip_prefix("inputs "))
                    .expect("an inputs note")
                    .to_string()
            })
            .collect();
        assert_ne!(digests[0], digests[1], "{workload}: seeds 1 and 2 drew the same inputs");
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        vec!["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
        vec!["--workload", "sweep", "--seed", "x", "--seconds", "1", "--trace", "0"],
        vec!["--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "2"],
        vec!["--workload", "sweep", "--seed", "1", "--trace", "0"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_perfbench")).args(&args).output().unwrap();
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
