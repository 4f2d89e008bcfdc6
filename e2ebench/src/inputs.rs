//! Seeded inputs: the preloaded relation, the timed operation
//! sequence, and the plaintext model every answer is checked against.
//!
//! Everything here is a pure function of `(workload, seed, ops)`: the
//! program under test only ever receives the generated relation,
//! queries and tuples.

use std::collections::BTreeMap;

use dbph_crypto::{DeterministicRng, EntropySource, SecretKey};
use dbph_relation::{Query, Relation, Tuple, Value};
use dbph_workload::distributions::Zipf;
use dbph_workload::employees::EmployeeGen;

/// Departments in the generated `Emp` relation (`dept-00` … `dept-63`).
pub const DEPARTMENTS: u64 = 64;
/// Rows per `insert_many` in `ingest_replicated`.
pub const INGEST_BATCH: usize = 16;
/// Floor on a run's operation count: three measurement windows, so the
/// median over windows outvotes one disturbed window.
pub const MIN_OPS: usize = 3 * crate::metrics::WINDOW_OPS;

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointRw,
    ScanSelect,
    IngestReplicated,
}

/// Table size and run shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Rows outsourced during set-up.
    pub rows: usize,
    /// Whether the server's encrypted index is enabled.
    pub index: bool,
    /// Hot names warmed during set-up and probed in the timed phase.
    pub hot_names: usize,
    /// Nominal operations per second on the reference host (see
    /// `README.md`): the fixed operation count of a run is this times
    /// `--seconds`, and at least [`MIN_OPS`].
    pub ops_per_second: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Whether set-up reopens the primary and attaches a semi-sync
    /// follower.
    pub replicated: bool,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PointRw,
        Workload::ScanSelect,
        Workload::IngestReplicated,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRw => "point_rw",
            Workload::ScanSelect => "scan_select",
            Workload::IngestReplicated => "ingest_replicated",
        }
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::PointRw => Spec {
                rows: 10_000,
                index: true,
                hot_names: 128,
                ops_per_second: 5_000,
                setup_reps: 3,
                replicated: false,
            },
            Workload::ScanSelect => Spec {
                rows: 5_000,
                index: false,
                hot_names: 0,
                ops_per_second: 100,
                setup_reps: 5,
                replicated: false,
            },
            Workload::IngestReplicated => Spec {
                rows: 20_000,
                index: false,
                hot_names: 0,
                ops_per_second: 900,
                setup_reps: 3,
                replicated: true,
            },
        }
    }
}

impl Spec {
    /// The fixed operation count for a run of `seconds`.
    pub fn ops(&self, seconds: u64) -> usize {
        let seconds = usize::try_from(seconds).unwrap_or(usize::MAX);
        self.ops_per_second.saturating_mul(seconds).max(MIN_OPS)
    }
}

/// Which plaintext attribute a select's expectation is keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Attr {
    Name,
    Dept,
}

/// One timed operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `select attr = value`.
    Select {
        query: Query,
        attr: Attr,
        value: Value,
    },
    /// Insert these fresh rows in one request.
    Insert(Vec<Tuple>),
}

/// Everything a run feeds the program.
pub struct Inputs {
    pub key: SecretKey,
    pub relation: Relation,
    /// Set-up queries that warm the index (`point_rw` only).
    pub warm: Vec<Op>,
    pub ops: Vec<Op>,
}

fn select(attr: Attr, value: Value) -> Op {
    let column = match attr {
        Attr::Name => "name",
        Attr::Dept => "dept",
    };
    Op::Select {
        query: Query::select(column, value.clone()),
        attr,
        value,
    }
}

fn dept(rng: &mut DeterministicRng) -> Value {
    Value::str(format!("dept-{:02}", rng.below(DEPARTMENTS)))
}

/// A uniform draw from `values`.
fn pick(rng: &mut DeterministicRng, values: &[Value]) -> Value {
    let len = u64::try_from(values.len()).expect("small");
    values[usize::try_from(rng.below(len)).expect("small")].clone()
}

/// A new row named `name` with a random department and salary.
fn new_row(rng: &mut DeterministicRng, name: Value) -> Tuple {
    let (lo, hi) = EmployeeGen::default().salary_range;
    let steps = u64::try_from((hi - lo) / 100 + 1).expect("positive salary range");
    let salary = lo + i64::try_from(rng.below(steps)).expect("small") * 100;
    Tuple::new(vec![name, dept(rng), Value::int(salary)])
}

/// Generates the inputs of one run of `workload` shaped by `spec`.
pub fn generate(workload: Workload, spec: &Spec, seed: u64, ops: usize) -> Inputs {
    let root = DeterministicRng::from_seed(seed).child("e2ebench");
    let key = SecretKey::from_bytes(root.child("key").array());
    let relation = EmployeeGen {
        rows: spec.rows,
        departments: usize::try_from(DEPARTMENTS).expect("small"),
        ..EmployeeGen::default()
    }
    .generate(seed);
    let mut rng = root.child(workload.name());
    let names: Vec<Value> = relation
        .tuples()
        .iter()
        .map(|t| t.get(0).expect("name column").clone())
        .collect();

    let mut hot: Vec<Value> = Vec::with_capacity(spec.hot_names);
    while hot.len() < spec.hot_names {
        let name = pick(&mut rng, &names);
        if !hot.contains(&name) {
            hot.push(name);
        }
    }
    let warm = hot.iter().map(|n| select(Attr::Name, n.clone())).collect();

    let zipf = Zipf::new(spec.hot_names.max(1), 0.99);
    // Names no preloaded row has.
    let mut serial = 0usize;
    let mut fresh_name = || {
        serial += 1;
        Value::str(format!("new-{serial:07}"))
    };
    let ops = (0..ops)
        .map(|_| match workload {
            Workload::PointRw if rng.below(10) == 0 => {
                // One insert in 32 reuses a hot name, so hot probes
                // must find new matches in their delta scans. Only the
                // colder half of the hot set is reused: a second row
                // under a top-ranked name would double the cost of a
                // large share of all selects, by chance of the seed.
                let name = if rng.below(32) == 0 {
                    pick(&mut rng, &hot[hot.len() / 2..])
                } else {
                    fresh_name()
                };
                Op::Insert(vec![new_row(&mut rng, name)])
            }
            Workload::PointRw => select(Attr::Name, hot[zipf.sample(&mut rng)].clone()),
            Workload::ScanSelect if rng.below(4) == 0 => select(Attr::Dept, dept(&mut rng)),
            Workload::ScanSelect => select(Attr::Name, pick(&mut rng, &names)),
            Workload::IngestReplicated => Op::Insert(
                (0..INGEST_BATCH)
                    .map(|_| new_row(&mut rng, fresh_name()))
                    .collect(),
            ),
        })
        .collect();
    Inputs {
        key,
        relation,
        warm,
        ops,
    }
}

/// The plaintext relation as the client believes the server holds it:
/// what every decrypted, false-positive-filtered answer must equal.
pub struct Model {
    rows: Relation,
    by_key: BTreeMap<(Attr, Value), Vec<Tuple>>,
}

impl Model {
    pub fn new(relation: &Relation) -> Self {
        let mut model = Model {
            rows: Relation::empty(relation.schema().clone()),
            by_key: BTreeMap::new(),
        };
        for t in relation.tuples() {
            model.insert(t);
        }
        model
    }

    pub fn insert(&mut self, tuple: &Tuple) {
        for (attr, column) in [(Attr::Name, 0), (Attr::Dept, 1)] {
            let value = tuple.get(column).expect("Emp column").clone();
            self.by_key
                .entry((attr, value))
                .or_default()
                .push(tuple.clone());
        }
        self.rows
            .insert(tuple.clone())
            .expect("generated tuple conforms to schema");
    }

    /// The exact answer to `select attr = value`.
    pub fn expect(&self, attr: Attr, value: &Value) -> Relation {
        let tuples = self
            .by_key
            .get(&(attr, value.clone()))
            .cloned()
            .unwrap_or_default();
        Relation::from_tuples(self.rows.schema().clone(), tuples).expect("model rows conform")
    }

    /// Every row: what a durable copy must hold.
    pub fn all(&self) -> &Relation {
        &self.rows
    }
}

/// Counts the operation mix: `(selects, inserts, inserted rows)`.
pub fn mix(ops: &[Op]) -> (usize, usize, usize) {
    ops.iter().fold((0, 0, 0), |(s, i, r), op| match op {
        Op::Select { .. } => (s + 1, i, r),
        Op::Insert(rows) => (s, i + 1, r + rows.len()),
    })
}
