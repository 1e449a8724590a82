//! The `redteam` binary: the campaign, its `--attacker` knowledge axis,
//! the `profile` / `evaluate` / `attack` stages and the `warroom` preview.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(redteam::redteam_main(&args));
}
