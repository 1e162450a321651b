//! `mpr` — the command-line front end of the mixed-precision reliability
//! study. Run `mpr help` for usage.

/// `println!` for command output, through [`commands::emit`], so a
/// closed stdout pipe ends the run quietly instead of panicking.
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::commands::emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod args;
mod commands;
mod profile;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match args::parse(&argv) {
        Ok(command) => commands::run(command),
        Err(e) => {
            eprintln!("{e}");
            2
        }
    };
    std::process::exit(code);
}
