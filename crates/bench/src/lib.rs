//! `tvm-bench` — the evaluation harness: one module per paper figure or
//! table, each returning printable rows; `src/bin/figNN.rs` binaries
//! regenerate the corresponding figure's data and `EXPERIMENTS.md` records
//! the outcomes. Absolute numbers are simulator outputs (see DESIGN.md);
//! the assertions in `tests/` check the paper's *shape*: who wins, by
//! roughly what factor, where crossovers fall.

pub mod baselines_e2e;
pub mod figures;
pub mod profiling;
pub mod vdla_gemm;

/// Parses a command line made only of the boolean flags in `known` and
/// returns the ones given. `--help` or `-h` prints `usage` and exits 0;
/// any other argument prints it to stderr with `usage` and exits 2.
pub fn parse_flags(usage: &str, known: &[&'static str]) -> Vec<&'static str> {
    let mut given = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--help" || arg == "-h" {
            println!("{usage}");
            std::process::exit(0);
        }
        match known.iter().find(|&&k| k == arg) {
            Some(&k) => given.push(k),
            None => {
                eprintln!("unknown flag `{arg}`\n{usage}");
                std::process::exit(2);
            }
        }
    }
    given
}

/// Prints a table of rows with a header.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("== {title} ==");
    println!("{}", header.join("\t"));
    for r in rows {
        println!("{}", r.join("\t"));
    }
    println!();
}
