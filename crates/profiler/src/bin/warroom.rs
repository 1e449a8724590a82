//! `warroom` — render the profiler campaign dashboard.
//!
//! ```text
//! warroom --render-once [--no-ansi]
//! ```
//!
//! Prints one deterministic synthetic frame and exits: a headless smoke
//! test for the renderer (CI greps the panel titles). Live campaigns get
//! the same dashboard via `redteam profile|evaluate|attack --tui`.

use profiler::Dashboard;

const USAGE: &str = "warroom — profiler campaign dashboard

USAGE: warroom --render-once [--no-ansi]

  --render-once  print one deterministic synthetic frame and exit
  --no-ansi      plain text, no clear-screen/cursor-home escapes

Live rendering is driven by the campaign stages:
  redteam profile --tui | redteam evaluate --tui | redteam attack --tui
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let switches = sim_core::cli::parse(&args, &[], &["--render-once", "--no-ansi"], USAGE)
        .and_then(|p| if p.has("--render-once") { Ok(p) } else { Err(USAGE.to_string()) });
    match switches {
        Ok(p) => print!("{}", Dashboard::render_once_sample(!p.has("--no-ansi"))),
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}
