//! Argument parsing driven by one table, [`COMMANDS`]: each row names a
//! subcommand, its flags and how to build its [`Command`], and the same
//! rows render the global help and each subcommand's usage line. The
//! allowed dependency set has no CLI parser crate.

use decarb_traces::time::{hours_in_year, EPOCH_YEAR, LAST_YEAR};

use Flag::{Switch, Value};

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `regions [--group G] [--year Y]`.
    Regions {
        /// Optional geographic-group filter (label prefix, case-insensitive).
        group: Option<String>,
        /// Evaluation year.
        year: i32,
    },
    /// `analyze <ZONE> [--year Y]`.
    Analyze {
        /// Zone code.
        zone: String,
        /// Evaluation year.
        year: i32,
    },
    /// `analyze --workspace [PATH] [--json]` — run the in-tree static
    /// lints (`decarb-analyze`) over a workspace checkout.
    AnalyzeWorkspace {
        /// Workspace root (defaults to the current directory).
        path: String,
        /// Emit JSON diagnostics instead of a text report.
        json: bool,
    },
    /// `plan <ZONE> --hours L [--slack H] [--arrive H0] [--year Y]`.
    Plan {
        /// Zone code of the job's origin.
        zone: String,
        /// Job length in hours.
        hours: usize,
        /// Slack in hours.
        slack: usize,
        /// Arrival as an hour-of-year offset.
        arrive: usize,
        /// Evaluation year.
        year: i32,
    },
    /// `forecast <ZONE> [--days N] [--year Y]`.
    Forecast {
        /// Zone code.
        zone: String,
        /// Evaluation window in days.
        days: usize,
        /// Evaluation year.
        year: i32,
    },
    /// `rank [--year Y]`.
    Rank {
        /// Evaluation year.
        year: i32,
    },
    /// `export <ZONE> [--year Y]`.
    Export {
        /// Zone code.
        zone: String,
        /// Evaluation year.
        year: i32,
    },
    /// `list` — enumerate the experiment registry.
    List,
    /// `run <ID...|all> [--json]` — run registered experiments.
    Run {
        /// Experiment ids in the order given, or just `all` for the
        /// whole registry.
        ids: Vec<String>,
        /// Emit JSON instead of text tables.
        json: bool,
    },
    /// `scenario list` — enumerate the built-in scenario matrix.
    ScenarioList,
    /// `scenario run <NAME|all> [--json]` / `scenario run --file PATH
    /// [--json]` — run built-in or user-defined scenarios, optionally
    /// as one shard of a partitioned sweep (`--shards N --shard-index
    /// I`).
    ScenarioRun {
        /// What to run: a built-in name (or `all`) or a scenario file.
        target: ScenarioTarget,
        /// Emit JSON instead of a text table.
        json: bool,
        /// Run only one shard of the sweep plan.
        shard: Option<ShardSpec>,
        /// Promote pre-run static-check findings from warnings to a
        /// failure.
        strict: bool,
    },
    /// `scenario check <NAME|all> [--json]` / `scenario check --file
    /// PATH [--json]` — statically validate scenarios without
    /// simulating them.
    ScenarioCheck {
        /// What to check: a built-in name (or `all`) or a scenario file.
        target: ScenarioTarget,
        /// Emit JSON diagnostics instead of a text report.
        json: bool,
    },
    /// `scenario merge <REPORT...> [--expect all|FILE]` — recombine
    /// per-shard JSON reports into one document.
    ScenarioMerge {
        /// Paths of the shard reports, in any order.
        reports: Vec<String>,
        /// Optional completeness check: the sweep the shards must
        /// cover exactly.
        expect: Option<MergeExpect>,
    },
    /// `scenario diff --report R --golden G [--tolerance-pct P]` — gate
    /// every numeric field of each scenario against a golden JSON report.
    ScenarioDiff {
        /// Path of the freshly produced `scenario run ... --json` report.
        report: String,
        /// Path of the committed golden report.
        golden: String,
        /// Allowed relative drift of each float field, percent.
        tolerance_pct: f64,
    },
    /// `data pack|probe|append` — manage binary trace containers.
    Data(DataCommand),
    /// `serve [--addr HOST:PORT] [--threads N] [--capacity-per-hour N]`
    /// — run the carbon-aware placement service (an HTTP/1.1 daemon
    /// answering live `POST /v1/place` queries; see docs/API.md) over
    /// the global `--data` dataset or the built-in one.
    Serve {
        /// Bind address; port 0 picks an ephemeral port.
        addr: String,
        /// Worker threads in the accept pool.
        threads: usize,
        /// Same-hour admissions allowed per region before the router
        /// skips it (`None` = unlimited, admission control off).
        capacity_per_hour: Option<usize>,
    },
    /// `help`, `-h` or `--help`.
    Help,
    /// `<command> --help` (or `-h`): one row's usage line and help.
    CommandHelp {
        /// The row's `usage:` line.
        usage: String,
        /// The row's one-line description.
        help: &'static str,
    },
}

/// The `data` subcommands (binary trace containers).
#[derive(Debug, Clone, PartialEq)]
pub enum DataCommand {
    /// `data pack <CSV|builtin> [--regions FILE] [--resolution MIN]
    /// -o FILE` — encode a CSV dataset (or the built-in one) as a
    /// binary container.
    Pack {
        /// Source CSV path, or the literal `builtin`.
        source: String,
        /// Optional region-metadata sidecar for the CSV.
        regions: Option<String>,
        /// Re-express the dataset on a MIN-minute axis before packing
        /// (must divide 60; hourly sources embed losslessly). Declare a
        /// CSV's *native* sub-hourly cadence with a `[dataset]
        /// resolution` sidecar section instead.
        resolution: Option<u32>,
        /// Output container path.
        out: String,
    },
    /// `data probe <FILE> [--json]` — verify a container and print its
    /// header facts.
    Probe {
        /// Container path.
        file: String,
        /// Emit JSON instead of a text summary.
        json: bool,
    },
    /// `data append <FILE> --from CSV [--pad]` — append newly observed
    /// hours without rewriting stored history.
    Append {
        /// Container path (rewritten atomically).
        file: String,
        /// CSV holding the new rows (may overlap stored history).
        from: String,
        /// Pad zones that fall short of the longest new coverage by
        /// repeating their last value, instead of erroring.
        pad: bool,
    },
}

/// What `scenario run` executes.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioTarget {
    /// A built-in scenario name, or `all` for the whole matrix.
    Name(String),
    /// A user-defined scenario file (`--file PATH`).
    File(String),
}

/// One shard of a partitioned sweep: `--shards N --shard-index I`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Total disjoint shards the plan splits into.
    pub shards: usize,
    /// This process's shard, `0..shards`.
    pub index: usize,
}

/// What a merged report must cover (`scenario merge --expect ...`).
#[derive(Debug, Clone, PartialEq)]
pub enum MergeExpect {
    /// The built-in 54-scenario matrix (`--expect all`).
    All,
    /// The expansion of a scenario file (`--expect PATH`).
    File(String),
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

/// The default bind address of `serve`.
pub const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:8980";

/// How a flag consumes the command line. A name like `o|out` spells one
/// flag two ways: one-letter names take `-`, longer ones `--`.
#[derive(Debug, Clone, Copy)]
pub enum Flag {
    /// Present or absent: `--json`.
    Switch(&'static str),
    /// Takes the next argument as its value: `--year 2021`.
    Value(&'static str),
}

impl Flag {
    fn names(self) -> &'static str {
        match self {
            Flag::Switch(names) | Flag::Value(names) => names,
        }
    }

    /// The flag's spellings on the command line (`-o`, `--out`).
    pub fn spellings(self) -> impl Iterator<Item = String> {
        self.names().split('|').map(|name| {
            if name.len() == 1 {
                format!("-{name}")
            } else {
                format!("--{name}")
            }
        })
    }
}

/// One row of [`COMMANDS`]: how a subcommand is selected, documented,
/// scanned and turned into a [`Command`].
pub struct CommandSpec {
    /// The words selecting the row (`scenario run`, `analyze --workspace`).
    pub path: &'static str,
    /// The arguments after the path, as the usage line shows them.
    pub synopsis: &'static str,
    /// One line of description for the global help.
    pub help: &'static str,
    /// Every flag the row accepts.
    pub flags: &'static [Flag],
    /// The most positional arguments the row accepts.
    pub positionals: usize,
    /// Checks the scanned arguments and builds the command.
    pub build: fn(&Args<'_>) -> Result<Command, String>,
}

impl CommandSpec {
    /// `usage: decarb-cli <path> <synopsis>`: what a parse error of this
    /// row ends with.
    pub fn usage(&self) -> String {
        format!("usage: decarb-cli {} {}", self.path, self.synopsis)
            .trim_end()
            .to_string()
    }
}

/// One row's scanned arguments: the positionals in order and at most one
/// occurrence of each flag.
pub struct Args<'a> {
    spec: &'static CommandSpec,
    positionals: Vec<&'a str>,
    /// One slot per entry of `spec.flags`; a given switch holds `""`.
    values: Vec<Option<&'a str>>,
    /// `--help` or `-h` stood where a flag may.
    help: bool,
}

impl<'a> Args<'a> {
    /// Splits `rest` into positionals and flags, rejecting unknown,
    /// valueless and repeated flags and surplus positionals.
    fn scan(spec: &'static CommandSpec, rest: &'a [String]) -> Result<Self, String> {
        let mut args = Args {
            spec,
            positionals: Vec::new(),
            values: vec![None; spec.flags.len()],
            help: false,
        };
        let mut tokens = rest.iter();
        while let Some(token) = tokens.next() {
            if !token.starts_with('-') || token.len() == 1 {
                if args.positionals.len() == spec.positionals {
                    return Err(format!("unexpected argument `{token}` for `{}`", spec.path));
                }
                args.positionals.push(token);
                continue;
            }
            if matches!(token.as_str(), "--help" | "-h") {
                args.help = true;
                continue;
            }
            let slot = spec
                .flags
                .iter()
                .position(|flag| flag.spellings().any(|s| s == *token))
                .ok_or_else(|| format!("unknown option `{token}` for `{}`", spec.path))?;
            let value = match spec.flags[slot] {
                Flag::Switch(_) => "",
                Flag::Value(_) => tokens
                    .next()
                    .ok_or_else(|| format!("option `{token}` needs a value"))?,
            };
            if args.values[slot].replace(value).is_some() {
                return Err(format!("option `{token}` given twice"));
            }
        }
        Ok(args)
    }

    /// The value of flag `name` (any of its names, without dashes).
    fn value(&self, name: &str) -> Option<&'a str> {
        let slot = self
            .spec
            .flags
            .iter()
            .position(|flag| flag.names().split('|').any(|n| n == name))?;
        self.values[slot]
    }

    fn switch(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    fn string(&self, name: &str) -> Option<String> {
        self.value(name).map(str::to_string)
    }

    fn required(&self, name: &str) -> Result<String, String> {
        self.string(name)
            .ok_or_else(|| format!("`{}` needs --{name}", self.spec.path))
    }

    fn positional(&self, index: usize, what: &str) -> Result<String, String> {
        self.positionals
            .get(index)
            .map(|s| s.to_string())
            .ok_or_else(|| format!("`{}` needs {what}", self.spec.path))
    }

    fn zone(&self) -> Result<String, String> {
        Ok(self.positional(0, "a zone code")?.to_uppercase())
    }

    fn optional<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| format!("invalid value `{raw}` for --{name}"))
            })
            .transpose()
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.optional(name)?.unwrap_or(default))
    }

    /// A count that must be at least 1.
    fn count(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.parsed(name, default)? {
            0 => Err(format!("--{name} must be at least 1")),
            n => Ok(n),
        }
    }

    fn year(&self) -> Result<i32, String> {
        let year: i32 = self.parsed("year", 2022)?;
        if !(EPOCH_YEAR..LAST_YEAR).contains(&year) {
            return Err(format!(
                "--year must lie in {EPOCH_YEAR}..{}",
                LAST_YEAR - 1
            ));
        }
        Ok(year)
    }
}

/// Every subcommand: the one source of parsing, per-row usage lines and
/// the global help.
pub static COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        path: "regions",
        synopsis: "[--group G] [--year Y]",
        help: "list regions (annual mean, daily CV)",
        flags: &[Value("group"), Value("year")],
        positionals: 0,
        build: |a| {
            Ok(Command::Regions {
                group: a.string("group"),
                year: a.year()?,
            })
        },
    },
    CommandSpec {
        path: "analyze",
        synopsis: "<ZONE> [--year Y]",
        help: "one region's carbon profile",
        flags: &[Value("year")],
        positionals: 1,
        build: |a| {
            Ok(Command::Analyze {
                zone: a.zone()?,
                year: a.year()?,
            })
        },
    },
    CommandSpec {
        path: "analyze --workspace",
        synopsis: "[PATH] [--json]",
        help: "run the in-tree source lints over a checkout",
        flags: &[Switch("json")],
        positionals: 1,
        build: |a| {
            Ok(Command::AnalyzeWorkspace {
                path: a.positionals.first().unwrap_or(&".").to_string(),
                json: a.switch("json"),
            })
        },
    },
    CommandSpec {
        path: "plan",
        synopsis: "<ZONE> --hours L [--slack H] [--arrive H0] [--year Y]",
        help: "schedule one job four ways",
        flags: &[
            Value("hours"),
            Value("slack"),
            Value("arrive"),
            Value("year"),
        ],
        positionals: 1,
        build: |a| {
            let zone = a.zone()?;
            let hours = a.parsed("hours", 0)?;
            if hours == 0 {
                return Err("`plan` needs --hours ≥ 1".into());
            }
            let slack = a.parsed("slack", 24)?;
            let arrive: usize = a.parsed("arrive", 0)?;
            let year = a.year()?;
            let end = arrive
                .checked_add(hours)
                .and_then(|end| end.checked_add(slack));
            if end.is_none_or(|end| end > hours_in_year(year)) {
                return Err("job window extends past the year end; lower --arrive/--slack".into());
            }
            Ok(Command::Plan {
                zone,
                hours,
                slack,
                arrive,
                year,
            })
        },
    },
    CommandSpec {
        path: "forecast",
        synopsis: "<ZONE> [--days N] [--year Y]",
        help: "backtest all forecasters",
        flags: &[Value("days"), Value("year")],
        positionals: 1,
        build: |a| {
            let zone = a.zone()?;
            let days = a.parsed("days", 60)?;
            if !(5..=366).contains(&days) {
                return Err("--days must lie in 5..=366".into());
            }
            Ok(Command::Forecast {
                zone,
                days,
                year: a.year()?,
            })
        },
    },
    CommandSpec {
        path: "rank",
        synopsis: "[--year Y]",
        help: "rank-order stability of all regions",
        flags: &[Value("year")],
        positionals: 0,
        build: |a| Ok(Command::Rank { year: a.year()? }),
    },
    CommandSpec {
        path: "export",
        synopsis: "<ZONE> [--year Y]",
        help: "hourly trace as CSV on stdout",
        flags: &[Value("year")],
        positionals: 1,
        build: |a| {
            Ok(Command::Export {
                zone: a.zone()?,
                year: a.year()?,
            })
        },
    },
    CommandSpec {
        path: "list",
        synopsis: "",
        help: "list registered experiments",
        flags: &[],
        positionals: 0,
        build: |_| Ok(Command::List),
    },
    CommandSpec {
        path: "run",
        synopsis: "<ID...|all> [--json]",
        help: "run experiments from the registry",
        flags: &[Switch("json")],
        positionals: usize::MAX,
        build: |a| {
            a.positional(0, "an experiment id or `all` (see `list`)")?;
            if a.positionals.len() > 1 && a.positionals.contains(&"all") {
                return Err("`run all` takes no other experiment id".into());
            }
            Ok(Command::Run {
                ids: a.positionals.iter().map(|s| s.to_string()).collect(),
                json: a.switch("json"),
            })
        },
    },
    CommandSpec {
        path: "scenario list",
        synopsis: "",
        help: "list the built-in scenario matrix",
        flags: &[],
        positionals: 0,
        build: |_| Ok(Command::ScenarioList),
    },
    CommandSpec {
        path: "scenario run",
        synopsis: "<NAME|all|--file FILE> [--json] [--shards N --shard-index I] [--strict]",
        help: "run scenario-matrix entries in parallel",
        flags: &[
            Switch("json"),
            Switch("strict"),
            Value("file"),
            Value("shards"),
            Value("shard-index"),
        ],
        positionals: 1,
        build: build_scenario_run,
    },
    CommandSpec {
        path: "scenario check",
        synopsis: "<NAME|all|--file FILE> [--json]",
        help: "statically validate scenarios, no simulation",
        flags: &[Switch("json"), Value("file")],
        positionals: 1,
        build: |a| {
            Ok(Command::ScenarioCheck {
                target: scenario_target(a)?,
                json: a.switch("json"),
            })
        },
    },
    CommandSpec {
        path: "scenario merge",
        synopsis: "<REPORT...> [--expect all|FILE]",
        help: "recombine shard reports into one document",
        flags: &[Value("expect")],
        positionals: usize::MAX,
        build: |a| {
            if a.positionals.is_empty() {
                return Err("`scenario merge` needs at least one shard report path".into());
            }
            Ok(Command::ScenarioMerge {
                reports: a.positionals.iter().map(|s| s.to_string()).collect(),
                expect: a.value("expect").map(|what| match what {
                    "all" => MergeExpect::All,
                    file => MergeExpect::File(file.into()),
                }),
            })
        },
    },
    CommandSpec {
        path: "scenario diff",
        synopsis: "--report R --golden G [--tolerance-pct P]",
        help: "fail when a scenario's counts change or its floats drift",
        flags: &[Value("report"), Value("golden"), Value("tolerance-pct")],
        positionals: 0,
        build: |a| {
            let report = a.required("report")?;
            let golden = a.required("golden")?;
            let tolerance_pct: f64 = a.parsed("tolerance-pct", 0.1)?;
            if !tolerance_pct.is_finite() || tolerance_pct < 0.0 {
                return Err("--tolerance-pct must be non-negative".into());
            }
            Ok(Command::ScenarioDiff {
                report,
                golden,
                tolerance_pct,
            })
        },
    },
    CommandSpec {
        path: "data pack",
        synopsis: "<CSV|builtin> [--regions FILE] [--resolution MIN] -o FILE",
        help: "encode a dataset as a binary container (MIN divides 60)",
        flags: &[Value("regions"), Value("resolution"), Value("o|out")],
        positionals: 1,
        build: |a| {
            let source = a.positional(0, "a source CSV path or `builtin`")?;
            let resolution = a.optional("resolution")?;
            if let Some(minutes) = resolution {
                // Fail on `--resolution 7` before any file is read.
                decarb_traces::Resolution::from_minutes(minutes)?;
            }
            let out = a.required("out")?;
            let regions = a.string("regions");
            if source == "builtin" && regions.is_some() {
                return Err("--regions only applies when packing a CSV".into());
            }
            Ok(Command::Data(DataCommand::Pack {
                source,
                regions,
                resolution,
                out,
            }))
        },
    },
    CommandSpec {
        path: "data probe",
        synopsis: "<FILE> [--json]",
        help: "verify a container, print header facts",
        flags: &[Switch("json")],
        positionals: 1,
        build: |a| {
            Ok(Command::Data(DataCommand::Probe {
                file: a.positional(0, "a container path")?,
                json: a.switch("json"),
            }))
        },
    },
    CommandSpec {
        path: "data append",
        synopsis: "<FILE> --from CSV [--pad]",
        help: "append new hours without rewriting history",
        flags: &[Value("from"), Switch("pad")],
        positionals: 1,
        build: |a| {
            Ok(Command::Data(DataCommand::Append {
                file: a.positional(0, "a container path")?,
                from: a.required("from")?,
                pad: a.switch("pad"),
            }))
        },
    },
    CommandSpec {
        path: "serve",
        synopsis: "[--addr HOST:PORT] [--threads N] [--capacity-per-hour N]",
        help: "run the placement service (HTTP API, docs/API.md)",
        flags: &[Value("addr"), Value("threads"), Value("capacity-per-hour")],
        positionals: 0,
        build: |a| {
            let capacity_per_hour = a.optional("capacity-per-hour")?;
            if capacity_per_hour == Some(0) {
                return Err(
                    "--capacity-per-hour must be at least 1 (omit it for unlimited)".into(),
                );
            }
            Ok(Command::Serve {
                addr: a.value("addr").unwrap_or(DEFAULT_SERVE_ADDR).into(),
                threads: a.count("threads", 4)?,
                capacity_per_hour,
            })
        },
    },
];

/// `scenario run`/`scenario check` select a built-in name (or `all`)
/// or a `--file`, exactly one of the two.
fn scenario_target(a: &Args<'_>) -> Result<ScenarioTarget, String> {
    match (a.positionals.first(), a.value("file")) {
        (Some(_), Some(_)) => Err("pass a scenario name or `--file`, not both".into()),
        (Some(name), None) => Ok(ScenarioTarget::Name(name.to_string())),
        (None, Some(path)) => Ok(ScenarioTarget::File(path.into())),
        (None, None) => Err(format!(
            "`{}` needs a scenario name, `all`, or `--file FILE` (see `scenario list`)",
            a.spec.path
        )),
    }
}

fn build_scenario_run(a: &Args<'_>) -> Result<Command, String> {
    let target = scenario_target(a)?;
    let shard = match (a.optional("shards")?, a.optional("shard-index")?) {
        (None, None) => None,
        (Some(0), Some(_)) => return Err("--shards must be at least 1".into()),
        (Some(shards), Some(index)) if index >= shards => {
            return Err(format!("--shard-index must lie in 0..{shards}"))
        }
        (Some(shards), Some(index)) => Some(ShardSpec { shards, index }),
        _ => return Err("--shards and --shard-index must be given together".into()),
    };
    Ok(Command::ScenarioRun {
        target,
        json: a.switch("json"),
        shard,
        strict: a.switch("strict"),
    })
}

/// The global help after the command list.
const HELP_FOOTER: &str = "
defaults: --year 2022, --slack 24, --arrive 0, --days 60, --tolerance-pct 0.1

global: --data FILE [--regions FILE] (first options) replaces the built-in dataset with a
`zone,hour,value` CSV or a binary container packed by `data pack`
(auto-detected by magic bytes; containers carry their own region
metadata, so --regions applies to CSV only). Imported CSV traces are
validated and repaired; containers load verbatim.
`scenario run` accepts --data (scenario region sets must exist in the
imported dataset); `list`, `run`, `scenario list`, `scenario merge`,
`scenario diff`, `analyze --workspace` and `data` do not";

/// The global help, generated from [`COMMANDS`].
pub fn usage() -> String {
    let mut out = String::from("usage: decarb-cli <command> [options]\n\ncommands:\n");
    for spec in COMMANDS {
        let line = format!("{:<8} {}", spec.path, spec.synopsis);
        let line = line.trim_end();
        if line.len() <= 36 {
            out += &format!("  {line:<36} {}\n", spec.help);
        } else {
            out += &format!("  {line}\n{:39}{}\n", "", spec.help);
        }
    }
    out + HELP_FOOTER
}

/// Parses `argv` (without the program name) into a [`Command`]. A
/// failure ends with the usage line of the row it selected.
pub fn parse(argv: &[String]) -> Result<Command, ParseError> {
    match argv.first().map(String::as_str) {
        None => return Err(ParseError(format!("no command given\n\n{}", usage()))),
        Some("help" | "-h" | "--help") => return Ok(Command::Help),
        Some(_) => {}
    }
    let (spec, rest) = route(argv)?;
    Args::scan(spec, rest)
        .and_then(|args| {
            if args.help {
                Ok(Command::CommandHelp {
                    usage: spec.usage(),
                    help: spec.help,
                })
            } else {
                (spec.build)(&args)
            }
        })
        .map_err(|message| ParseError(format!("{message}\n\n{}", spec.usage())))
}

/// Picks the row whose path is the longest prefix of `argv`; when none
/// matches, names the deepest command group `argv` reaches and lists
/// its rows.
fn route(argv: &[String]) -> Result<(&'static CommandSpec, &[String]), ParseError> {
    let depth = |spec: &CommandSpec| spec.path.split(' ').count();
    let selected = COMMANDS
        .iter()
        .filter(|spec| {
            argv.len() >= depth(spec) && spec.path.split(' ').zip(argv).all(|(w, a)| w == a)
        })
        .max_by_key(|spec| depth(spec));
    if let Some(spec) = selected {
        return Ok((spec, &argv[depth(spec)..]));
    }
    for reached in (1..=argv.len()).rev() {
        let group = argv[..reached].join(" ");
        let members: Vec<String> = COMMANDS
            .iter()
            .filter(|spec| {
                spec.path
                    .strip_prefix(group.as_str())
                    .is_some_and(|tail| tail.starts_with(' '))
            })
            .map(CommandSpec::usage)
            .collect();
        if members.is_empty() {
            continue;
        }
        let problem = match argv.get(reached) {
            None => format!("`{group}` needs a subcommand"),
            Some(word) => format!("unknown subcommand `{word}` for `{group}`"),
        };
        return Err(ParseError(format!("{problem}:\n\n{}", members.join("\n"))));
    }
    Err(ParseError(format!(
        "unknown command `{}` (try --help)\n\nusage: decarb-cli <command> [options]",
        argv[0]
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_and_help() {
        // No command at all is a usage error carrying the global help.
        let ParseError(message) = parse(&[]).unwrap_err();
        assert!(message.contains(&usage()), "{message}");
        assert_eq!(parse(&argv(&["--help"])).unwrap(), Command::Help);
        assert_eq!(parse(&argv(&["-h"])).unwrap(), Command::Help);
        assert_eq!(parse(&argv(&["help"])).unwrap(), Command::Help);
        // After a command, `--help` asks for that row's help instead of
        // running it, even when its required arguments are missing.
        for args in [
            &["analyze", "--help"][..],
            &["analyze", "DE", "-h", "--year", "2021"],
        ] {
            assert_eq!(
                parse(&argv(args)).unwrap(),
                Command::CommandHelp {
                    usage: "usage: decarb-cli analyze <ZONE> [--year Y]".into(),
                    help: "one region's carbon profile",
                }
            );
        }
    }

    #[test]
    fn regions_with_filters() {
        let cmd = parse(&argv(&["regions", "--group", "europe", "--year", "2021"])).unwrap();
        assert_eq!(
            cmd,
            Command::Regions {
                group: Some("europe".into()),
                year: 2021
            }
        );
        assert_eq!(
            parse(&argv(&["regions"])).unwrap(),
            Command::Regions {
                group: None,
                year: 2022
            }
        );
    }

    #[test]
    fn serve_defaults_and_options() {
        assert_eq!(
            parse(&argv(&["serve"])).unwrap(),
            Command::Serve {
                addr: DEFAULT_SERVE_ADDR.into(),
                threads: 4,
                capacity_per_hour: None,
            }
        );
        assert_eq!(
            parse(&argv(&[
                "serve",
                "--addr",
                "0.0.0.0:9000",
                "--threads",
                "8",
                "--capacity-per-hour",
                "16"
            ]))
            .unwrap(),
            Command::Serve {
                addr: "0.0.0.0:9000".into(),
                threads: 8,
                capacity_per_hour: Some(16),
            }
        );
    }

    #[test]
    fn serve_rejects_bad_options() {
        assert!(parse(&argv(&["serve", "--threads", "0"])).is_err());
        assert!(parse(&argv(&["serve", "--threads", "many"])).is_err());
        assert!(parse(&argv(&["serve", "--regions", "meta.toml"])).is_err());
        assert!(parse(&argv(&["serve", "--data", "traces.dct"])).is_err());
        assert!(parse(&argv(&["serve", "--port", "80"])).is_err());
        assert!(parse(&argv(&["serve", "extra"])).is_err());
        assert!(parse(&argv(&["serve", "--capacity-per-hour", "0"])).is_err());
        assert!(parse(&argv(&["serve", "--capacity-per-hour", "lots"])).is_err());
    }

    #[test]
    fn plan_requires_hours() {
        assert!(parse(&argv(&["plan", "DE"])).is_err());
        let cmd = parse(&argv(&["plan", "de", "--hours", "6", "--slack", "48"])).unwrap();
        assert_eq!(
            cmd,
            Command::Plan {
                zone: "DE".into(),
                hours: 6,
                slack: 48,
                arrive: 0,
                year: 2022
            }
        );
    }

    #[test]
    fn zone_codes_are_uppercased() {
        let cmd = parse(&argv(&["analyze", "us-ca"])).unwrap();
        assert_eq!(
            cmd,
            Command::Analyze {
                zone: "US-CA".into(),
                year: 2022
            }
        );
    }

    #[test]
    fn unknown_options_are_rejected() {
        assert!(parse(&argv(&["regions", "--bogus", "1"])).is_err());
        assert!(parse(&argv(&["analyze", "DE", "--hours", "4"])).is_err());
    }

    #[test]
    fn year_bounds_enforced() {
        assert!(parse(&argv(&["rank", "--year", "2019"])).is_err());
        assert!(parse(&argv(&["rank", "--year", "2030"])).is_err());
        assert!(parse(&argv(&["rank", "--year", "2020"])).is_ok());
    }

    #[test]
    fn malformed_options() {
        assert!(parse(&argv(&["regions", "--year"])).is_err());
        assert!(parse(&argv(&["regions", "stray"])).is_err());
        assert!(parse(&argv(&["regions", "--year", "twenty"])).is_err());
        assert!(parse(&argv(&["frobnicate"])).is_err());
        // A repeated flag is an error, not a silent first-wins.
        assert!(parse(&argv(&["regions", "--year", "2021", "--year", "2022"])).is_err());
        assert!(parse(&argv(&["serve", "--threads", "2", "--threads", "3"])).is_err());
    }

    #[test]
    fn forecast_day_floor() {
        assert!(parse(&argv(&["forecast", "DE", "--days", "2"])).is_err());
        assert!(parse(&argv(&["forecast", "DE", "--days", "10"])).is_ok());
        assert!(parse(&argv(&["forecast", "DE", "--days", "367"])).is_err());
    }

    #[test]
    fn run_accepts_flag_and_id_in_either_order() {
        let expected = Command::Run {
            ids: vec!["fig5".into()],
            json: true,
        };
        assert_eq!(parse(&argv(&["run", "fig5", "--json"])).unwrap(), expected);
        assert_eq!(parse(&argv(&["run", "--json", "fig5"])).unwrap(), expected);
        assert_eq!(
            parse(&argv(&["run", "all"])).unwrap(),
            Command::Run {
                ids: vec!["all".into()],
                json: false
            }
        );
        assert_eq!(
            parse(&argv(&["run", "fig6a", "--json", "fig5"])).unwrap(),
            Command::Run {
                ids: vec!["fig6a".into(), "fig5".into()],
                json: true
            }
        );
    }

    #[test]
    fn scenario_subcommands_parse() {
        assert_eq!(
            parse(&argv(&["scenario", "list"])).unwrap(),
            Command::ScenarioList
        );
        let expected = Command::ScenarioRun {
            target: ScenarioTarget::Name("batch-agnostic-europe".into()),
            json: true,
            shard: None,
            strict: false,
        };
        assert_eq!(
            parse(&argv(&[
                "scenario",
                "run",
                "batch-agnostic-europe",
                "--json"
            ]))
            .unwrap(),
            expected
        );
        assert_eq!(
            parse(&argv(&[
                "scenario",
                "run",
                "--json",
                "batch-agnostic-europe"
            ]))
            .unwrap(),
            expected
        );
        assert_eq!(
            parse(&argv(&["scenario", "run", "all"])).unwrap(),
            Command::ScenarioRun {
                target: ScenarioTarget::Name("all".into()),
                json: false,
                shard: None,
                strict: false,
            }
        );
    }

    #[test]
    fn scenario_run_file_target_parses() {
        assert_eq!(
            parse(&argv(&[
                "scenario",
                "run",
                "--file",
                "my.scenario",
                "--json"
            ]))
            .unwrap(),
            Command::ScenarioRun {
                target: ScenarioTarget::File("my.scenario".into()),
                json: true,
                shard: None,
                strict: false,
            }
        );
        assert_eq!(
            parse(&argv(&["scenario", "run", "--file", "my.scenario"])).unwrap(),
            Command::ScenarioRun {
                target: ScenarioTarget::File("my.scenario".into()),
                json: false,
                shard: None,
                strict: false,
            }
        );
        // A name and a file together are ambiguous.
        assert!(parse(&argv(&["scenario", "run", "all", "--file", "x"])).is_err());
        assert!(parse(&argv(&["scenario", "run", "--file"])).is_err());
        assert!(parse(&argv(&["scenario", "run", "--file", "a", "--file", "b"])).is_err());
    }

    #[test]
    fn scenario_run_shard_and_worker_options_parse() {
        assert_eq!(
            parse(&argv(&[
                "scenario",
                "run",
                "all",
                "--shards",
                "4",
                "--shard-index",
                "2",
                "--json"
            ]))
            .unwrap(),
            Command::ScenarioRun {
                target: ScenarioTarget::Name("all".into()),
                json: true,
                shard: Some(ShardSpec {
                    shards: 4,
                    index: 2
                }),
                strict: false,
            }
        );
        // Validation: the pair must be complete and in range.
        assert!(parse(&argv(&["scenario", "run", "all", "--shards", "4"])).is_err());
        assert!(parse(&argv(&["scenario", "run", "all", "--shard-index", "0"])).is_err());
        assert!(parse(&argv(&[
            "scenario",
            "run",
            "all",
            "--shards",
            "4",
            "--shard-index",
            "4"
        ]))
        .is_err());
        assert!(parse(&argv(&[
            "scenario",
            "run",
            "all",
            "--shards",
            "0",
            "--shard-index",
            "0"
        ]))
        .is_err());
        assert!(parse(&argv(&[
            "scenario",
            "run",
            "all",
            "--shards",
            "two",
            "--shard-index",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn scenario_run_strict_flag_parses() {
        assert_eq!(
            parse(&argv(&["scenario", "run", "all", "--strict"])).unwrap(),
            Command::ScenarioRun {
                target: ScenarioTarget::Name("all".into()),
                json: false,
                shard: None,
                strict: true,
            }
        );
        assert_eq!(
            parse(&argv(&[
                "scenario",
                "run",
                "--file",
                "my.scenario",
                "--strict",
                "--json"
            ]))
            .unwrap(),
            Command::ScenarioRun {
                target: ScenarioTarget::File("my.scenario".into()),
                json: true,
                shard: None,
                strict: true,
            }
        );
    }

    #[test]
    fn scenario_check_parses_names_files_and_flags() {
        assert_eq!(
            parse(&argv(&["scenario", "check", "all"])).unwrap(),
            Command::ScenarioCheck {
                target: ScenarioTarget::Name("all".into()),
                json: false,
            }
        );
        assert_eq!(
            parse(&argv(&[
                "scenario",
                "check",
                "--json",
                "batch-agnostic-europe"
            ]))
            .unwrap(),
            Command::ScenarioCheck {
                target: ScenarioTarget::Name("batch-agnostic-europe".into()),
                json: true,
            }
        );
        assert_eq!(
            parse(&argv(&["scenario", "check", "--file", "my.scenario"])).unwrap(),
            Command::ScenarioCheck {
                target: ScenarioTarget::File("my.scenario".into()),
                json: false,
            }
        );
        assert!(parse(&argv(&["scenario", "check"])).is_err());
        assert!(parse(&argv(&["scenario", "check", "all", "--file", "x"])).is_err());
        assert!(parse(&argv(&["scenario", "check", "a", "b"])).is_err());
        assert!(parse(&argv(&["scenario", "check", "all", "--strict"])).is_err());
    }

    #[test]
    fn analyze_workspace_parses_path_and_json() {
        assert_eq!(
            parse(&argv(&["analyze", "--workspace"])).unwrap(),
            Command::AnalyzeWorkspace {
                path: ".".into(),
                json: false,
            }
        );
        assert_eq!(
            parse(&argv(&["analyze", "--workspace", "/tmp/repo", "--json"])).unwrap(),
            Command::AnalyzeWorkspace {
                path: "/tmp/repo".into(),
                json: true,
            }
        );
        // The zone form still works, and its option set is unchanged.
        assert!(parse(&argv(&["analyze", "--workspace", "a", "b"])).is_err());
        assert!(parse(&argv(&["analyze", "--workspace", "--year", "2022"])).is_err());
        assert!(parse(&argv(&["analyze", "DE", "--workspace", "x"])).is_err());
    }

    #[test]
    fn scenario_merge_parses_reports_and_expectations() {
        assert_eq!(
            parse(&argv(&["scenario", "merge", "a.json", "b.json"])).unwrap(),
            Command::ScenarioMerge {
                reports: vec!["a.json".into(), "b.json".into()],
                expect: None,
            }
        );
        assert_eq!(
            parse(&argv(&[
                "scenario", "merge", "a.json", "--expect", "all", "b.json"
            ]))
            .unwrap(),
            Command::ScenarioMerge {
                reports: vec!["a.json".into(), "b.json".into()],
                expect: Some(MergeExpect::All),
            }
        );
        assert_eq!(
            parse(&argv(&[
                "scenario",
                "merge",
                "a.json",
                "--expect",
                "my.scenario"
            ]))
            .unwrap(),
            Command::ScenarioMerge {
                reports: vec!["a.json".into()],
                expect: Some(MergeExpect::File("my.scenario".into())),
            }
        );
        assert!(parse(&argv(&["scenario", "merge"])).is_err());
        assert!(parse(&argv(&["scenario", "merge", "--expect", "all"])).is_err());
        assert!(parse(&argv(&["scenario", "merge", "a.json", "--expect"])).is_err());
        assert!(parse(&argv(&["scenario", "merge", "a.json", "--bogus", "x"])).is_err());
    }

    #[test]
    fn scenario_diff_parses_and_validates() {
        assert_eq!(
            parse(&argv(&[
                "scenario", "diff", "--report", "r.json", "--golden", "g.json"
            ]))
            .unwrap(),
            Command::ScenarioDiff {
                report: "r.json".into(),
                golden: "g.json".into(),
                tolerance_pct: 0.1
            }
        );
        assert_eq!(
            parse(&argv(&[
                "scenario",
                "diff",
                "--report",
                "r.json",
                "--golden",
                "g.json",
                "--tolerance-pct",
                "2.5"
            ]))
            .unwrap(),
            Command::ScenarioDiff {
                report: "r.json".into(),
                golden: "g.json".into(),
                tolerance_pct: 2.5
            }
        );
        assert!(parse(&argv(&["scenario", "diff", "--report", "r.json"])).is_err());
        assert!(parse(&argv(&["scenario", "diff", "--golden", "g.json"])).is_err());
        assert!(parse(&argv(&[
            "scenario",
            "diff",
            "--report",
            "r",
            "--golden",
            "g",
            "--tolerance-pct",
            "-1"
        ]))
        .is_err());
    }

    #[test]
    fn scenario_rejects_malformed_argv() {
        assert!(parse(&argv(&["scenario"])).is_err());
        assert!(parse(&argv(&["scenario", "frobnicate"])).is_err());
        assert!(parse(&argv(&["scenario", "list", "extra"])).is_err());
        assert!(parse(&argv(&["scenario", "run"])).is_err());
        assert!(parse(&argv(&["scenario", "run", "--bogus", "x"])).is_err());
        assert!(parse(&argv(&["scenario", "run", "a", "b"])).is_err());
    }

    #[test]
    fn data_pack_parses_and_validates() {
        assert_eq!(
            parse(&argv(&["data", "pack", "in.csv", "-o", "out.dct"])).unwrap(),
            Command::Data(DataCommand::Pack {
                source: "in.csv".into(),
                regions: None,
                resolution: None,
                out: "out.dct".into(),
            })
        );
        assert_eq!(
            parse(&argv(&[
                "data",
                "pack",
                "in.csv",
                "--regions",
                "meta.toml",
                "--out",
                "out.dct"
            ]))
            .unwrap(),
            Command::Data(DataCommand::Pack {
                source: "in.csv".into(),
                regions: Some("meta.toml".into()),
                resolution: None,
                out: "out.dct".into(),
            })
        );
        assert_eq!(
            parse(&argv(&["data", "pack", "builtin", "-o", "golden.dct"])).unwrap(),
            Command::Data(DataCommand::Pack {
                source: "builtin".into(),
                regions: None,
                resolution: None,
                out: "golden.dct".into(),
            })
        );
        assert_eq!(
            parse(&argv(&[
                "data",
                "pack",
                "builtin",
                "--resolution",
                "5",
                "-o",
                "fine.dct"
            ]))
            .unwrap(),
            Command::Data(DataCommand::Pack {
                source: "builtin".into(),
                regions: None,
                resolution: Some(5),
                out: "fine.dct".into(),
            })
        );
        assert!(parse(&argv(&["data", "pack"])).is_err());
        assert!(parse(&argv(&["data", "pack", "in.csv"])).is_err());
        assert!(parse(&argv(&["data", "pack", "in.csv", "-o"])).is_err());
        assert!(parse(&argv(&[
            "data",
            "pack",
            "builtin",
            "--regions",
            "m",
            "-o",
            "x"
        ]))
        .is_err());
        assert!(parse(&argv(&["data", "pack", "a", "-o", "x", "-o", "y"])).is_err());
    }

    #[test]
    fn data_pack_rejects_invalid_resolutions() {
        // Must divide 60 and lie in 1..=60; junk and duplicates fail too.
        for bad in ["7", "90", "0", "61", "soon", "-5"] {
            let out = parse(&argv(&[
                "data",
                "pack",
                "builtin",
                "--resolution",
                bad,
                "-o",
                "x.dct",
            ]));
            assert!(out.is_err(), "--resolution {bad} should be rejected");
        }
        assert!(parse(&argv(&["data", "pack", "builtin", "--resolution"])).is_err());
        assert!(parse(&argv(&[
            "data",
            "pack",
            "builtin",
            "--resolution",
            "5",
            "--resolution",
            "5",
            "-o",
            "x.dct"
        ]))
        .is_err());
        // Every divisor of 60 parses.
        for good in ["1", "5", "10", "15", "30", "60"] {
            let out = parse(&argv(&[
                "data",
                "pack",
                "builtin",
                "--resolution",
                good,
                "-o",
                "x.dct",
            ]));
            assert!(out.is_ok(), "--resolution {good} should parse");
        }
    }

    #[test]
    fn data_probe_and_append_parse() {
        assert_eq!(
            parse(&argv(&["data", "probe", "d.dct"])).unwrap(),
            Command::Data(DataCommand::Probe {
                file: "d.dct".into(),
                json: false,
            })
        );
        assert_eq!(
            parse(&argv(&["data", "probe", "d.dct", "--json"])).unwrap(),
            Command::Data(DataCommand::Probe {
                file: "d.dct".into(),
                json: true,
            })
        );
        assert_eq!(
            parse(&argv(&["data", "append", "d.dct", "--from", "new.csv"])).unwrap(),
            Command::Data(DataCommand::Append {
                file: "d.dct".into(),
                from: "new.csv".into(),
                pad: false,
            })
        );
        assert_eq!(
            parse(&argv(&[
                "data", "append", "d.dct", "--from", "new.csv", "--pad"
            ]))
            .unwrap(),
            Command::Data(DataCommand::Append {
                file: "d.dct".into(),
                from: "new.csv".into(),
                pad: true,
            })
        );
        assert!(parse(&argv(&["data"])).is_err());
        assert!(parse(&argv(&["data", "frobnicate"])).is_err());
        assert!(parse(&argv(&["data", "probe"])).is_err());
        assert!(parse(&argv(&["data", "probe", "d.dct", "extra"])).is_err());
        assert!(parse(&argv(&["data", "append", "d.dct"])).is_err());
        assert!(parse(&argv(&["data", "append", "d.dct", "--from"])).is_err());
    }

    /// The help cannot drift from the parser: every flag a row's
    /// synopsis shows is one it accepts and vice versa, every row is in
    /// the global help, and its bare path routes back to it.
    #[test]
    fn command_table_agrees_with_synopses_help_and_routing() {
        let help = usage();
        for spec in COMMANDS {
            let shown: Vec<&str> = spec
                .synopsis
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter(|word| word.len() > 1 && word.starts_with('-'))
                .collect();
            for word in &shown {
                assert!(
                    spec.flags.iter().any(|f| f.spellings().any(|s| s == *word)),
                    "`{}` shows {word} but does not accept it",
                    spec.path
                );
            }
            for flag in spec.flags {
                assert!(
                    flag.spellings().any(|s| shown.contains(&s.as_str())),
                    "`{}` accepts {flag:?} but its synopsis omits it",
                    spec.path
                );
            }
            let line = format!("{:<8} {}", spec.path, spec.synopsis);
            assert!(help.contains(line.trim_end()), "help omits `{}`", spec.path);
            let bare: Vec<String> = spec.path.split(' ').map(String::from).collect();
            if let Err(ParseError(message)) = parse(&bare) {
                assert!(message.ends_with(&spec.usage()), "{message}");
            }
        }
    }

    #[test]
    fn run_and_list_reject_malformed_argv() {
        assert!(parse(&argv(&["run"])).is_err());
        assert!(parse(&argv(&["run", "--bogus", "fig5"])).is_err());
        assert!(parse(&argv(&["run", "fig5", "all"])).is_err());
        assert!(parse(&argv(&["list", "extra"])).is_err());
        assert_eq!(parse(&argv(&["list"])).unwrap(), Command::List);
    }
}
