//! In-process half of the availsim benchmark (`perfbench/run.py` drives it).
//!
//! Subcommands, each printing one JSON object as its last stdout line:
//!
//! * `check --model M --csv FILE` — holds every row of a campaign CSV to
//!   the exact chain (`oracle`).
//! * `load --addr HOST:PORT --seed N --burst B --rates R1,R2,…
//!   --step-seconds S --limit-ms L` — plays the seeded serve-mix traffic
//!   against a running `availsim serve`: a closed-loop burst of B requests,
//!   then open-loop steps (`mix`).
//! * `trace --workload W --seed N [--spec FILE]… --seconds S` — per-layer
//!   timings of every crate's public functions (`layers`) plus a traced
//!   in-process replay of the workload (`replay`).

mod layers;
mod mix;
mod oracle;
mod replay;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Parsed `--key value` flags; repeated keys accumulate.
struct Args(BTreeMap<String, Vec<String>>);

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut map: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.entry(key.to_string()).or_default().push(value.clone());
        }
        Ok(Args(map))
    }

    fn all(&self, key: &str) -> &[String] {
        self.0.get(key).map_or(&[], Vec::as_slice)
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.all(key)
            .last()
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self.str(key)?;
        raw.parse()
            .map_err(|_| format!("--{key}: cannot parse `{raw}`"))
    }
}

/// A flat JSON object written in insertion order.
#[derive(Default)]
pub struct JsonOut(Vec<(String, String)>);

impl JsonOut {
    pub fn num(&mut self, key: &str, v: f64) {
        let text = if v.is_finite() {
            format!("{v:?}")
        } else {
            "null".into()
        };
        self.0.push((key.to_string(), text));
    }

    pub fn int(&mut self, key: &str, v: u64) {
        self.0.push((key.to_string(), v.to_string()));
    }

    pub fn raw(&mut self, key: &str, json: String) {
        self.0.push((key.to_string(), json));
    }

    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn run(argv: &[String]) -> Result<String, String> {
    let (cmd, rest) = argv
        .split_first()
        .ok_or("usage: perfbench-harness <check|load|trace> …")?;
    let args = Args::parse(rest)?;
    match cmd.as_str() {
        "check" => oracle::check_csv(args.str("model")?, args.str("csv")?),
        "load" => {
            let rates = args
                .str("rates")?
                .split(',')
                .map(|r| r.parse::<f64>().map_err(|_| format!("bad rate `{r}`")))
                .collect::<Result<Vec<_>, _>>()?;
            mix::load(
                args.str("addr")?,
                args.num("seed")?,
                args.num("burst")?,
                &rates,
                args.num("step-seconds")?,
                args.num("limit-ms")?,
            )
        }
        "trace" => replay::trace(
            args.str("workload")?,
            args.num("seed")?,
            args.all("spec"),
            args.num("rate").ok(),
            args.num("seconds")?,
        ),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
