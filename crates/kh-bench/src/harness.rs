//! The `khbench` cell harness: one flag parser, one determinism check,
//! one JSON writer and one exit path shared by every cell.
//!
//! A [`Cell`] names its default output file, its default `--nodes` (or
//! none) and its run function. [`parse`] reads the flags that cell
//! takes into [`Opts`]; the cell's [`Report`] renders one artifact: the common
//! header (`schema`, `quick`, `seed`, `nodes`, `jobs`, `repeats`), the
//! cell's fields, a `"gates"` object of booleans and a `"margins"`
//! object holding each comparison gate's signed slack (positive =
//! passing). Any failing gate prints its reason and fails the exit code.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// A JSON value that keeps object members in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number, already rendered (see [`Json::num`]).
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// `x` at `digits` decimal places; non-finite values become `null`.
    pub fn num(x: f64, digits: usize) -> Json {
        if x.is_finite() {
            Json::Num(format!("{x:.digits$}"))
        } else {
            Json::Null
        }
    }

    /// The artifact text. The root object and its object members are
    /// laid out one member per line, arrays of rows one row per line;
    /// everything deeper stays inline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").unwrap(),
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => quote(out, s),
            Json::Arr(items) => {
                let rows = items
                    .iter()
                    .any(|v| matches!(v, Json::Arr(_) | Json::Obj(_)));
                let items = items.iter().map(|v| (None, v));
                write_seq(out, ['[', ']'], items, depth <= 1 && rows, depth);
            }
            Json::Obj(fields) => {
                let fields = fields.iter().map(|(k, v)| (Some(*k), v));
                write_seq(out, ['{', '}'], fields, depth <= 1, depth);
            }
        }
    }
}

fn write_seq<'a>(
    out: &mut String,
    [open, close]: [char; 2],
    items: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
    multiline: bool,
    depth: usize,
) {
    let (first, sep, end) = match (multiline, open) {
        (true, _) => {
            let pad = "  ".repeat(depth + 1);
            let end = format!("\n{}", "  ".repeat(depth));
            (format!("\n{pad}"), format!(",\n{pad}"), end)
        }
        (false, '{') => (" ".to_string(), ", ".to_string(), " ".to_string()),
        (false, _) => (String::new(), ", ".to_string(), String::new()),
    };
    let empty = items.len() == 0;
    out.push(open);
    for (i, (key, value)) in items.enumerate() {
        out.push_str(if i == 0 { &first } else { &sep });
        if let Some(k) = key {
            quote(out, k);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
    }
    if !empty {
        out.push_str(&end);
    }
    out.push(close);
}

fn quote(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => write!(out, "\\{c}").unwrap(),
            c if c.is_control() => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `"key": value` exactly as an object member is written, so a cell can
/// look for a field of another cell's artifact in its text.
pub fn member(key: &str, value: &Json) -> String {
    let mut out = String::new();
    quote(&mut out, key);
    out.push_str(": ");
    value.write(&mut out, 2);
    out
}

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(x: $t) -> Json {
                Json::Num(x.to_string())
            }
        }
    )*};
}
json_from_int!(u16, u32, u64, u128, usize);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// One pass/fail verdict of a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: &'static str,
    pub pass: bool,
    /// Signed slack of a comparison gate, positive when passing: the
    /// tightest `hi - lo` over the compared pairs. `None` for identity
    /// and structural gates.
    pub margin: Option<f64>,
    /// What a failure means, printed when the gate fails. Comparison
    /// gates name the first pair that broke the rule.
    pub reason: String,
}

impl Gate {
    /// A gate with no numeric margin (byte identity, structure).
    pub fn holds(name: &'static str, pass: bool, reason: &str) -> Gate {
        let (margin, reason) = (None, reason.to_string());
        Gate {
            name,
            pass,
            margin,
            reason,
        }
    }

    /// Passes when `lo <= hi` for every `(lo, hi)` pair.
    pub fn le(name: &'static str, pairs: &[(f64, f64)]) -> Gate {
        Gate::compare(name, pairs.iter().copied(), false)
    }

    /// Passes when `lo < hi` for every `(lo, hi)` pair.
    pub fn lt(name: &'static str, pairs: &[(f64, f64)]) -> Gate {
        Gate::compare(name, pairs.iter().copied(), true)
    }

    /// Passes when `a >= b` for every `(a, b)` pair.
    pub fn ge(name: &'static str, pairs: &[(f64, f64)]) -> Gate {
        Gate::compare(name, pairs.iter().map(|&(a, b)| (b, a)), false)
    }

    fn compare(name: &'static str, pairs: impl Iterator<Item = (f64, f64)>, strict: bool) -> Gate {
        let mut gate = Gate::holds(name, true, "");
        for (lo, hi) in pairs {
            let ok = if strict { lo < hi } else { lo <= hi };
            if gate.pass && !ok {
                let op = if strict { "<" } else { "<=" };
                gate.reason = format!("needs {lo} {op} {hi}");
            }
            gate.pass &= ok;
            let slack = hi - lo;
            gate.margin = Some(match gate.margin {
                Some(m) if m.is_nan() || slack.is_nan() => f64::NAN,
                Some(m) => m.min(slack),
                None => slack,
            });
        }
        gate
    }

    /// Also require `cond`; a structural failure drops the margin, which
    /// would otherwise read as passing.
    pub fn requires(mut self, cond: bool, reason: &str) -> Gate {
        if !cond {
            (self.pass, self.margin, self.reason) = (false, None, reason.to_string());
        }
        self
    }
}

/// What a cell hands back to the harness.
pub struct Report {
    /// Artifact schema name, e.g. `khbench-cluster-svcload-v2`.
    pub schema: &'static str,
    pub fields: Vec<(&'static str, Json)>,
    pub gates: Vec<Gate>,
}

impl Report {
    /// The artifact: the common header, the cell's fields, then the
    /// `"gates"` and `"margins"` objects.
    pub fn artifact(&self, cell: &Cell, o: &Opts) -> String {
        let mut doc = vec![("schema", self.schema.into()), ("quick", o.quick.into())];
        doc.push(("seed", o.seed.into()));
        if cell.nodes.is_some() {
            doc.push(("nodes", o.nodes.into()));
        }
        if cell.pooled {
            doc.push(("jobs", o.jobs.into()));
        }
        doc.push(("repeats", o.repeats.into()));
        doc.extend(self.fields.iter().cloned());
        let gates = self.gates.iter().map(|g| (g.name, g.pass.into()));
        let margins = self
            .gates
            .iter()
            .filter_map(|g| Some((g.name, Json::num(g.margin?, 6))));
        doc.push(("gates", Json::Obj(gates.collect())));
        doc.push(("margins", Json::Obj(margins.collect())));
        Json::Obj(doc).render()
    }

    /// Print every failing gate's reason; failure if there is one.
    pub fn verdict(&self) -> ExitCode {
        let failed = self.gates.iter().filter(|g| !g.pass);
        let failed = failed.inspect(|g| eprintln!("error: gate {} failed: {}", g.name, g.reason));
        ExitCode::from(u8::from(failed.count() > 0))
    }
}

/// The parsed flags of one invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Opts {
    pub quick: bool,
    /// Cluster node count; 0 for cells that run no cluster.
    pub nodes: usize,
    pub jobs: usize,
    pub seed: u64,
    pub repeats: usize,
    pub out: String,
    /// The committed artifact a cell checks against (`--baseline`).
    pub baseline: String,
}

/// One `khbench` subcommand.
pub struct Cell {
    pub name: &'static str,
    /// Default `--out`.
    pub out: &'static str,
    /// Default `--nodes`; `None` when the cell takes no `--nodes`.
    pub nodes: Option<usize>,
    /// Whether the cell runs on the worker pool and takes `--jobs`.
    pub pooled: bool,
    /// Default `--baseline`; `None` when the cell takes no `--baseline`.
    pub baseline: Option<&'static str>,
    pub run: fn(&Opts) -> Report,
}

impl Cell {
    /// A pooled cell that takes no `--baseline`.
    pub const fn new(
        name: &'static str,
        out: &'static str,
        nodes: Option<usize>,
        run: fn(&Opts) -> Report,
    ) -> Cell {
        let (pooled, baseline) = (true, None);
        Cell {
            name,
            out,
            nodes,
            pooled,
            baseline,
            run,
        }
    }

    /// The flags this cell takes, each with its value placeholder.
    fn flags(&self) -> Vec<(&'static str, &'static str)> {
        let mut flags = vec![("quick", "")];
        if self.nodes.is_some() {
            flags.push(("nodes", " N"));
        }
        if self.pooled {
            flags.push(("jobs", " N"));
        }
        flags.extend([("seed", " N"), ("repeats", " N")]);
        if self.baseline.is_some() {
            flags.push(("baseline", " FILE"));
        }
        flags.push(("out", " FILE"));
        flags
    }
}

/// The usage text, generated from the cell table.
pub fn usage(cells: &[Cell]) -> String {
    let mut s = "khbench — simulator wall-clock performance harness\n\nUSAGE:\n".to_string();
    for c in cells {
        write!(s, "  khbench {}", c.name).unwrap();
        for (flag, value) in c.flags() {
            write!(s, " [--{flag}{value}]").unwrap();
        }
        write!(s, "\n      default --out {}", c.out).unwrap();
        if let Some(n) = c.nodes {
            write!(s, " --nodes {n}").unwrap();
        }
        if let Some(b) = c.baseline {
            write!(s, " --baseline {b}").unwrap();
        }
        s.push('\n');
    }
    let seed = crate::SEED;
    s + &format!(
        "\nOPTIONS:\n  --quick     smaller trial counts / fewer repeats (CI smoke profile)\n  \
         --nodes     cluster node count, at least 2\n  \
         --jobs      pooled worker count, at least 1 (default: KH_JOBS env, then host cores)\n  \
         --seed      base seed for all cells (default {seed})\n  \
         --repeats   timed repeats per cell after 1 warmup, at least 1 (default 5, quick 3)\n  \
         --baseline  committed artifact checked for simulation-field identity\n  \
         --out       output JSON path\n"
    )
}

/// Look up the cell named by `args[0]` and parse the flags it takes.
pub fn parse<'a>(cells: &'a [Cell], args: &[String]) -> Result<(&'a Cell, Opts), String> {
    let (name, flags) = args.split_first().ok_or("no cell given")?;
    let cell = cells.iter().find(|c| c.name == name);
    let cell = cell.ok_or_else(|| format!("unknown cell {name:?}"))?;
    let (nodes, out) = (cell.nodes.unwrap_or(0), cell.out.to_string());
    let baseline = cell.baseline.unwrap_or_default().to_string();
    let mut o = Opts {
        nodes,
        seed: crate::SEED,
        out,
        baseline,
        ..Opts::default()
    };
    let (mut jobs, mut repeats) = (None, None);
    let mut it = flags.iter();
    while let Some(arg) = it.next() {
        let flag = arg.strip_prefix("--").unwrap_or_default();
        if !cell.flags().iter().any(|(f, _)| *f == flag) {
            return Err(format!("{name} does not take {arg:?}"));
        }
        if flag == "quick" {
            o.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
        let bad = |_| format!("{arg}: not a count: {value:?}");
        match flag {
            "nodes" => o.nodes = value.parse().map_err(bad)?,
            "jobs" => jobs = Some(value.parse().map_err(bad)?),
            "seed" => o.seed = value.parse().map_err(bad)?,
            "repeats" => repeats = Some(value.parse().map_err(bad)?),
            "out" => o.out = value.clone(),
            _ => o.baseline = value.clone(),
        }
    }
    if cell.nodes.is_some() && o.nodes < 2 {
        return Err(format!("--nodes {} is below the 2-node minimum", o.nodes));
    }
    if jobs == Some(0) || repeats == Some(0) {
        return Err("--jobs and --repeats must be at least 1".to_string());
    }
    o.jobs = jobs.unwrap_or_else(kh_core::pool::jobs);
    o.repeats = repeats.unwrap_or(if o.quick { 3 } else { 5 });
    Ok((cell, o))
}

/// Run a cell's experiment at `--jobs 1`, `2` and `jobs`, then rerun it
/// at `jobs` with the same seed. The `"deterministic"` gate passes when
/// all four fingerprints are equal and non-empty; the last run comes
/// back so the cell reports on a run the check covered.
pub fn deterministic<T>(
    jobs: usize,
    mut run_at: impl FnMut(usize) -> T,
    fingerprint: impl Fn(&T) -> String,
) -> (Gate, T) {
    let mut first: Option<String> = None;
    let mut last = None;
    let mut pass = true;
    for workers in [1, 2, jobs, jobs] {
        kh_core::pool::set_jobs(workers);
        let run = run_at(workers);
        let fp = fingerprint(&run);
        pass &= match &first {
            Some(f) => *f == fp,
            None => !fp.is_empty(),
        };
        first.get_or_insert(fp);
        last = Some(run);
    }
    eprintln!("determinism (jobs 1 == 2 == {jobs} == rerun): {pass}");
    let reason = "output diverged across --jobs 1/2/N or a same-seed rerun";
    let gate = Gate::holds("deterministic", pass, reason);
    (gate, last.expect("the loop runs four times"))
}

/// Run `f` once as warmup, then `repeats` timed runs; the median in ns.
pub fn time_median(repeats: usize, mut f: impl FnMut()) -> u128 {
    f();
    let mut samples: Vec<u128> = (0..repeats)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_lays_out_rows_and_keeps_member_order() {
        let row = Json::Obj(vec![("b", 1u64.into()), ("a", Json::num(0.5, 2))]);
        let doc = Json::Obj(vec![
            ("s", "x\"y".into()),
            ("depths", vec![1usize, 2].into()),
            ("rows", Json::Arr(vec![row.clone(), row])),
            ("none", Json::Arr(vec![])),
            ("nan", Json::num(f64::NAN, 3)),
        ]);
        let want = "{\n  \"s\": \"x\\\"y\",\n  \"depths\": [1, 2],\n  \"rows\": [\n    \
                    { \"b\": 1, \"a\": 0.50 },\n    { \"b\": 1, \"a\": 0.50 }\n  ],\n  \
                    \"none\": [],\n  \"nan\": null\n}\n";
        assert_eq!(doc.render(), want);
        assert_eq!(member("hits", &3094u64.into()), "\"hits\": 3094");
    }

    #[test]
    fn margins_are_the_tightest_signed_slack() {
        let g = Gate::le("g", &[(1.0, 3.0), (2.0, 2.5)]);
        assert!(g.pass);
        assert_eq!(g.margin, Some(0.5));
        let g = Gate::ge("g", &[(1.0, 3.0)]);
        assert!(!g.pass && g.reason == "needs 3 <= 1");
        assert_eq!(g.margin, Some(-2.0));
        // A tie passes `le` at zero slack and fails `lt`.
        assert!(Gate::le("g", &[(2.0, 2.0)]).pass);
        assert!(!Gate::lt("g", &[(2.0, 2.0)]).pass);
        let g = Gate::le("g", &[(f64::NAN, 1.0), (0.0, 1.0)]);
        assert!(!g.pass && g.margin.unwrap().is_nan());
        assert!(Gate::le("g", &[(0.0, 1.0)])
            .requires(false, "")
            .margin
            .is_none());
    }

    #[test]
    fn parse_refuses_what_a_cell_does_not_take() {
        fn run(_: &Opts) -> Report {
            unreachable!()
        }
        let cells = [
            Cell::new("c", "c.json", Some(4), run),
            Cell::new("p", "p.json", None, run),
        ];
        let parse = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            parse(&cells, &args).map(|(_, o)| o)
        };
        let o = parse("c --jobs 3").unwrap();
        assert_eq!((o.nodes, o.jobs, o.repeats), (4, 3, 5));
        assert_eq!(o.out, "c.json");
        for bad in "c --node 16|c --nodes 1|c --nodes 0|c --jobs 0|p --nodes 4|x".split('|') {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn determinism_needs_a_nonempty_matching_fingerprint() {
        let (g, last) = deterministic(3, |w| w, |_| "same".to_string());
        assert!(g.pass);
        assert_eq!(last, 3);
        assert!(!deterministic(3, |w| w, |_| String::new()).0.pass);
        assert!(!deterministic(3, |w| w, |w| w.to_string()).0.pass);
    }
}
