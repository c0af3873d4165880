//! Command-line entry of the repository benchmark; see the library docs
//! and `README.md`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match oplix_perfbench::parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", oplix_perfbench::USAGE);
            return ExitCode::from(2);
        }
    };
    match oplix_perfbench::execute(&args) {
        Ok(verdict) => {
            for note in &verdict.notes {
                eprintln!("{note}");
            }
            println!("{}", verdict.line);
            if verdict.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
