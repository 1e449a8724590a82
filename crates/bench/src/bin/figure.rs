//! `figure <id> [options]` — regenerates one figure or table of the paper's
//! evaluation section ([`bench::figures::FIGURES`]); without an id, lists
//! them.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(msg) = bench::figures::dispatch(&args) {
        eprintln!("{msg}");
        std::process::exit(2);
    }
}
