//! SQL-level equivalence: the encrypted deployment and the plaintext
//! reference engine must return identical rows for every statement of
//! a generated workload.

use dbph::core::{Client, FinalSwpPh, Server, ServerConfig};
use dbph::crypto::{DeterministicRng, EntropySource, SecretKey};
use dbph::relation::sql::{self, ExecOutcome, Statement};
use dbph::relation::{Catalog, Tuple};

/// Runs one statement against both engines and asserts SELECT
/// agreement (order-insensitive).
fn run_both(
    reference: &mut Catalog,
    client: &mut Option<Client>,
    server: &Server,
    master: &SecretKey,
    statement_text: &str,
) {
    let reference_outcome = sql::execute(reference, statement_text).unwrap();
    match sql::parse_statement(statement_text).unwrap() {
        Statement::CreateTable(schema) => {
            let ph = FinalSwpPh::new(schema.clone(), master).unwrap();
            let mut c = Client::new(ph, server.clone());
            c.outsource(&dbph::relation::Relation::empty(schema))
                .unwrap();
            *client = Some(c);
        }
        Statement::Insert { rows, .. } => {
            let c = client.as_mut().expect("create first");
            for row in rows {
                c.insert(&Tuple::new(row)).unwrap();
            }
        }
        Statement::Select(stmt) => {
            let c = client.as_ref().expect("create first");
            let mut encrypted_rows = match &stmt.filter {
                Some(dnf) => {
                    let relation = c.select_dnf(dnf).unwrap();
                    dbph::relation::exec::project(&relation, &stmt.projection).unwrap()
                }
                None => {
                    let all = c.fetch_all().unwrap();
                    dbph::relation::exec::project(&all, &stmt.projection).unwrap()
                }
            };
            let ExecOutcome::Rows {
                rows: mut expected, ..
            } = reference_outcome
            else {
                panic!("reference did not produce rows");
            };
            encrypted_rows.sort();
            expected.sort();
            assert_eq!(encrypted_rows, expected, "{statement_text}");
        }
        Statement::Delete { filter, .. } => {
            let c = client.as_ref().expect("create first");
            let removed = c.delete(&filter).unwrap();
            assert_eq!(
                reference_outcome,
                ExecOutcome::Deleted(removed),
                "{statement_text}"
            );
        }
        Statement::DropTable(_) => {
            if let Some(c) = client.take() {
                c.drop_table().unwrap();
            }
        }
    }
}

#[test]
fn scripted_session_agrees() {
    let mut reference = Catalog::new();
    let server = Server::open(&ServerConfig::default(), None).unwrap();
    let master = SecretKey::from_bytes([81u8; 32]);
    let mut client = None;

    for stmt in [
        "CREATE TABLE Emp (name STRING(16), dept STRING(8), salary INT)",
        "INSERT INTO Emp VALUES ('Montgomery', 'HR', 7500), ('Smith', 'IT', 4900)",
        "INSERT INTO Emp VALUES ('Jones', 'IT', 1200)",
        "SELECT * FROM Emp WHERE dept = 'IT'",
        "SELECT name FROM Emp WHERE salary = 4900",
        "SELECT * FROM Emp WHERE name = 'Nobody'",
        "INSERT INTO Emp VALUES ('Ng', 'IT', 4900)",
        "SELECT name, salary FROM Emp WHERE dept = 'IT' AND salary = 4900",
        "SELECT * FROM Emp WHERE salary = 4900 OR dept = 'HR'",
        "SELECT name FROM Emp WHERE name = 'Jones' OR name = 'Ng' OR salary = 7500",
        "DELETE FROM Emp WHERE salary = 4900",
        "SELECT * FROM Emp",
        "DELETE FROM Emp WHERE dept = 'IT' AND salary = 1200",
        "SELECT * FROM Emp",
        "DROP TABLE Emp",
    ] {
        run_both(&mut reference, &mut client, &server, &master, stmt);
    }
}

#[test]
fn randomized_workload_agrees() {
    let mut rng = DeterministicRng::from_seed(4242);
    let mut reference = Catalog::new();
    let server = Server::open(&ServerConfig::default(), None).unwrap();
    let master = SecretKey::from_bytes([82u8; 32]);
    let mut client = None;

    run_both(
        &mut reference,
        &mut client,
        &server,
        &master,
        "CREATE TABLE T (k STRING(8), v INT)",
    );

    // 60 random inserts over a small value domain (to force collisions),
    // interleaved with selects over the same domain.
    for i in 0..60 {
        let k = rng.below(8);
        let v = rng.below(5) as i64;
        run_both(
            &mut reference,
            &mut client,
            &server,
            &master,
            &format!("INSERT INTO T VALUES ('key-{k}', {v})"),
        );
        if i % 5 == 0 {
            let probe_k = rng.below(8);
            run_both(
                &mut reference,
                &mut client,
                &server,
                &master,
                &format!("SELECT * FROM T WHERE k = 'key-{probe_k}'"),
            );
            let probe_v = rng.below(5) as i64;
            run_both(
                &mut reference,
                &mut client,
                &server,
                &master,
                &format!("SELECT k FROM T WHERE v = {probe_v}"),
            );
        }
    }
    run_both(
        &mut reference,
        &mut client,
        &server,
        &master,
        "SELECT * FROM T",
    );
}
