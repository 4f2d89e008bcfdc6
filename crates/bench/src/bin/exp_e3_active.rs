//! E3 — Theorem 2.1 demonstrated constructively, plus the "John"
//! attack.
//!
//! Part 1: the generic cardinality adversary plays the Definition 2.1
//! game against every PH at q = 0 and q = 1. Part 2: the §2 narrative —
//! Eve locates patient John's hospital and outcome with 1 + H + 1
//! oracle-encrypted queries.
//!
//! Usage: `exp_e3_active [trials] [seed]` (defaults 300, 7).

use dbph_baselines::{
    BucketConfig, BucketizationPh, DamianiPh, DeterministicPh, PlaintextPh, VarlenPh,
};
use dbph_bench::Table;
use dbph_core::{DatabasePh, FinalSwpPh};
use dbph_crypto::{DeterministicRng, SecretKey};
use dbph_games::attacks::active::{locate_john, CardinalityAdversary};
use dbph_games::attacks::passive::PassiveSizeAdversary;
use dbph_games::{run_db_game, AdversaryMode};
use dbph_relation::schema::hospital_schema;
use dbph_workload::HospitalConfig;

fn args() -> (usize, u64) {
    let mut a = std::env::args().skip(1);
    let trials = a.next().and_then(|s| s.parse().ok()).unwrap_or(300);
    let seed = a.next().and_then(|s| s.parse().ok()).unwrap_or(7);
    (trials, seed)
}

fn game_row<P, F>(name: &str, factory: F, trials: usize, seed: u64, table: &mut Table)
where
    P: DatabasePh,
    F: Fn(&mut DeterministicRng) -> P + Sync,
{
    let adversary = CardinalityAdversary::default();
    let q0 = run_db_game(&factory, &adversary, AdversaryMode::Active, 0, trials, seed);
    let q1 = run_db_game(&factory, &adversary, AdversaryMode::Active, 1, trials, seed);
    table.row(&[
        name.to_string(),
        format!("{:.3}", q0.advantage()),
        format!("{:.3}", q1.advantage()),
    ]);
}

fn main() {
    let (trials, seed) = args();
    println!("# E3 — Theorem 2.1: any database PH is insecure at q > 0");
    println!(
        "# generic cardinality adversary, Def 2.1 active mode; trials = {trials}, seed = {seed}"
    );
    println!();

    let mut table = Table::new(&["scheme", "advantage @ q=0", "advantage @ q=1"]);

    game_row(
        "swp-final (this paper, §3)",
        |rng: &mut DeterministicRng| {
            FinalSwpPh::new(hospital_schema(), &SecretKey::generate(rng)).expect("static schema")
        },
        trials,
        seed,
        &mut table,
    );
    game_row(
        "swp-varlen",
        |rng: &mut DeterministicRng| {
            VarlenPh::new(hospital_schema(), &SecretKey::generate(rng)).expect("static schema")
        },
        trials,
        seed,
        &mut table,
    );
    game_row(
        "deterministic-ecb",
        |rng: &mut DeterministicRng| {
            DeterministicPh::new(hospital_schema(), &SecretKey::generate(rng))
        },
        trials,
        seed,
        &mut table,
    );
    game_row(
        "damiani-hash",
        |rng: &mut DeterministicRng| {
            DamianiPh::new(hospital_schema(), &SecretKey::generate(rng)).expect("static schema")
        },
        trials,
        seed,
        &mut table,
    );
    game_row(
        "hacigumus-buckets",
        |rng: &mut DeterministicRng| {
            let cfg =
                BucketConfig::uniform(&hospital_schema(), 16, (0, 10_000)).expect("static config");
            BucketizationPh::new(hospital_schema(), cfg, &SecretKey::generate(rng))
                .expect("static schema")
        },
        trials,
        seed,
        &mut table,
    );
    game_row(
        "plaintext",
        |_rng: &mut DeterministicRng| PlaintextPh::new(hospital_schema()),
        trials,
        seed,
        &mut table,
    );

    // The theorem's passive clause: result sizes alone suffice.
    let passive = PassiveSizeAdversary::default();
    let swp_factory = |rng: &mut DeterministicRng| {
        FinalSwpPh::new(hospital_schema(), &SecretKey::generate(rng)).expect("static schema")
    };
    let p0 = run_db_game(
        &swp_factory,
        &passive,
        AdversaryMode::Passive,
        0,
        trials,
        seed,
    );
    let p1 = run_db_game(
        &swp_factory,
        &passive,
        AdversaryMode::Passive,
        1,
        trials,
        seed,
    );
    table.row(&[
        "swp-final, PASSIVE size adversary".to_string(),
        format!("{:.3}", p0.advantage()),
        format!("{:.3}", p1.advantage()),
    ]);

    table.print();
    println!();
    println!("# Expected: every scheme ≈ 0 at q=0 except plaintext (ciphertext is");
    println!("# readable) and any scheme with a q=0 break; every scheme ≈ 1 at q=1.");
    println!("# Note: bucketization can sit below 1 at q=1 when hospitals 1 and 2");
    println!("# share an interval — coarse buckets blur even Eve's attack.");
    println!();

    // Part 2 — the "John" narrative.
    println!("# E3b — locating John (paper §2 narrative), swp-final, 200 patients");
    let cfg = HospitalConfig {
        patients: 200,
        ..HospitalConfig::default()
    };
    let mut john_table = Table::new(&["planted (hospital, fatal)", "inferred (hospital, fatal)"]);
    for (h, fatal) in [(1i64, false), (2, true), (3, false), (2, false)] {
        let (relation, _) = cfg.generate_with_john(seed + h as u64, h, fatal);
        let ph = FinalSwpPh::new(hospital_schema(), &SecretKey::from_bytes([99u8; 32]))
            .expect("static schema");
        let findings = locate_john(&ph, &relation, 3).expect("attack runs");
        john_table.row(&[
            format!("({h}, {fatal})"),
            format!("({:?}, {})", findings.hospital, findings.fatal),
        ]);
    }
    john_table.print();
    println!();
    println!("# Expected: inferred == planted in every row.");
}
