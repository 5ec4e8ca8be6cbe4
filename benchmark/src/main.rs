//! Command-line entry point; see the library's top-level documentation.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    vcu_benchmark::cli(&args)
}
