//! Records the flags Cargo compiles this package with, so each run can
//! report its `-C target-cpu`.

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    println!(
        "cargo:rustc-env=E2EBENCH_RUSTFLAGS={}",
        flags.replace('\x1f', " ")
    );
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
