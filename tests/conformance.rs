//! Cross-scheme conformance: every `DatabasePh` in the workspace obeys
//! Definition 1.1's homomorphism law on the same workloads.

use dbph::baselines::{
    BucketConfig, BucketizationPh, DamianiPh, DeterministicPh, PlaintextPh, VarlenPh,
};
use dbph::core::ph::check_homomorphism_law;
use dbph::core::{DatabasePh, FinalSwpPh};
use dbph::crypto::SecretKey;
use dbph::relation::schema::{emp_schema, hospital_schema};
use dbph::relation::{ExactSelect, Query, Relation, Value};
use dbph::workload::{EmployeeGen, HospitalConfig};

fn key() -> SecretKey {
    SecretKey::from_bytes([123u8; 32])
}

fn emp_queries() -> Vec<Query> {
    vec![
        Query::select("name", "emp-0000001"),
        Query::select("dept", "dept-00"),
        Query::select("dept", "dept-03"),
        Query::select("salary", 1000i64),
        Query::select("salary", -1i64), // empty result
        Query::select("name", "no such employee"),
        Query::conjunction(vec![
            ExactSelect::new("dept", "dept-01"),
            ExactSelect::new("salary", 2000i64),
        ])
        .unwrap(),
    ]
}

fn check_all_queries<P: DatabasePh>(ph: &P, relation: &Relation) {
    for q in emp_queries() {
        check_homomorphism_law(ph, relation, &q)
            .unwrap_or_else(|e| panic!("{}: {q}: {e}", ph.scheme_name()));
    }
}

#[test]
fn swp_final_obeys_the_law() {
    let r = EmployeeGen {
        rows: 200,
        ..EmployeeGen::default()
    }
    .generate(1);
    let ph = FinalSwpPh::new(EmployeeGen::schema(), &key()).unwrap();
    check_all_queries(&ph, &r);
}

#[test]
fn varlen_obeys_the_law() {
    let r = EmployeeGen {
        rows: 200,
        ..EmployeeGen::default()
    }
    .generate(2);
    let ph = VarlenPh::new(EmployeeGen::schema(), &key()).unwrap();
    check_all_queries(&ph, &r);
}

#[test]
fn bucketization_obeys_the_law() {
    let r = EmployeeGen {
        rows: 200,
        ..EmployeeGen::default()
    }
    .generate(3);
    let cfg = BucketConfig::uniform(&EmployeeGen::schema(), 8, (0, 10_000)).unwrap();
    let ph = BucketizationPh::new(EmployeeGen::schema(), cfg, &key()).unwrap();
    check_all_queries(&ph, &r);
}

#[test]
fn damiani_obeys_the_law() {
    let r = EmployeeGen {
        rows: 200,
        ..EmployeeGen::default()
    }
    .generate(4);
    let ph = DamianiPh::new(EmployeeGen::schema(), &key()).unwrap();
    check_all_queries(&ph, &r);
}

#[test]
fn damiani_with_tiny_tags_obeys_the_law() {
    // 3-bit tags: collisions everywhere, filter must cope.
    let r = EmployeeGen {
        rows: 150,
        ..EmployeeGen::default()
    }
    .generate(5);
    let ph = DamianiPh::with_tag_bits(EmployeeGen::schema(), &key(), 3).unwrap();
    check_all_queries(&ph, &r);
}

#[test]
fn deterministic_obeys_the_law() {
    let r = EmployeeGen {
        rows: 200,
        ..EmployeeGen::default()
    }
    .generate(6);
    let ph = DeterministicPh::new(EmployeeGen::schema(), &key());
    check_all_queries(&ph, &r);
}

#[test]
fn plaintext_obeys_the_law() {
    let r = EmployeeGen {
        rows: 200,
        ..EmployeeGen::default()
    }
    .generate(7);
    let ph = PlaintextPh::new(EmployeeGen::schema());
    check_all_queries(&ph, &r);
}

#[test]
fn swp_ph_over_basic_scheme_obeys_the_law() {
    // Scheme I is the only other decryptable SWP variant; the generic
    // construction must satisfy Definition 1.1 over it too.
    use dbph::core::{SwpPh, WordCodec};
    use dbph::swp::{BasicScheme, SwpParams};
    let schema = EmployeeGen::schema();
    let word_len = WordCodec::new(schema.clone()).word_len();
    let scheme = BasicScheme::new(SwpParams::for_word_len(word_len).unwrap(), &key());
    let ph = SwpPh::over_scheme(schema, scheme, "swp-basic").unwrap();
    let r = EmployeeGen {
        rows: 100,
        ..EmployeeGen::default()
    }
    .generate(20);
    check_all_queries(&ph, &r);
}

#[test]
fn all_schemes_agree_on_hospital_workload() {
    let relation = HospitalConfig {
        patients: 300,
        ..HospitalConfig::default()
    }
    .generate(8);
    let queries: Vec<Query> = (1..=3i64)
        .map(|h| Query::select("hospital", Value::int(h)))
        .chain(std::iter::once(Query::select("outcome", true)))
        .collect();

    let swp = FinalSwpPh::new(hospital_schema(), &key()).unwrap();
    let varlen = VarlenPh::new(hospital_schema(), &key()).unwrap();
    let det = DeterministicPh::new(hospital_schema(), &key());
    for q in &queries {
        check_homomorphism_law(&swp, &relation, q).unwrap();
        check_homomorphism_law(&varlen, &relation, q).unwrap();
        check_homomorphism_law(&det, &relation, q).unwrap();
    }
}

#[test]
fn result_cardinality_is_what_the_plaintext_engine_says() {
    // The observable result-set size (pre-filter, exact schemes) must
    // equal plaintext selectivity — the quantity the paper's attacks
    // read off.
    let r = EmployeeGen {
        rows: 500,
        ..EmployeeGen::default()
    }
    .generate(9);
    let ph = FinalSwpPh::new(EmployeeGen::schema(), &key()).unwrap();
    let ct = ph.encrypt_table(&r).unwrap();
    for q in emp_queries() {
        let truth = dbph::relation::exec::select(&r, &q).unwrap().len();
        let qct = ph.encrypt_query(&q).unwrap();
        let server = FinalSwpPh::apply(&ct, &qct);
        // Default params: FP rate 2^-32, so sizes match exactly.
        assert_eq!(server.len(), truth, "{q}");
    }
}

#[test]
fn fresh_keys_produce_unlinkable_ciphertexts() {
    let r = EmployeeGen {
        rows: 20,
        ..EmployeeGen::default()
    }
    .generate(10);
    let ph1 = FinalSwpPh::new(EmployeeGen::schema(), &SecretKey::from_bytes([1u8; 32])).unwrap();
    let ph2 = FinalSwpPh::new(EmployeeGen::schema(), &SecretKey::from_bytes([2u8; 32])).unwrap();
    let c1 = ph1.encrypt_table(&r).unwrap();
    let c2 = ph2.encrypt_table(&r).unwrap();
    for ((_, w1), (_, w2)) in c1.docs.iter().zip(c2.docs.iter()) {
        assert_ne!(w1, w2, "same table under different keys must differ");
    }
}

#[test]
fn emp_paper_example_on_every_scheme() {
    // The §3 worked example must hold everywhere.
    let relation = Relation::from_tuples(
        emp_schema(),
        vec![
            dbph::relation::tuple!["Montgomery", "HR", 7500i64],
            dbph::relation::tuple!["Smith", "IT", 4900i64],
        ],
    )
    .unwrap();
    let q = Query::select("name", "Montgomery");

    check_homomorphism_law(
        &FinalSwpPh::new(emp_schema(), &key()).unwrap(),
        &relation,
        &q,
    )
    .unwrap();
    check_homomorphism_law(&VarlenPh::new(emp_schema(), &key()).unwrap(), &relation, &q).unwrap();
    check_homomorphism_law(&DeterministicPh::new(emp_schema(), &key()), &relation, &q).unwrap();
    check_homomorphism_law(
        &DamianiPh::new(emp_schema(), &key()).unwrap(),
        &relation,
        &q,
    )
    .unwrap();
    check_homomorphism_law(&PlaintextPh::new(emp_schema()), &relation, &q).unwrap();
    let cfg = BucketConfig::uniform(&emp_schema(), 8, (0, 10_000)).unwrap();
    check_homomorphism_law(
        &BucketizationPh::new(emp_schema(), cfg, &key()).unwrap(),
        &relation,
        &q,
    )
    .unwrap();
}
