//! Binary entry point: parse `argv`, dispatch, stream to stdout.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = std::io::stdout().lock();
    match decarb_cli::dispatch_stream(&argv, &mut stdout) {
        Ok(()) => {}
        // Tolerate a closed pipe (`decarb-cli list | head`) instead of
        // failing mid-print.
        Err(decarb_cli::CliError::Io(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
        // Usage errors exit 2, failures while doing the work exit 1.
        Err(error) => {
            eprintln!("error: {error}");
            let usage = matches!(error, decarb_cli::CliError::Parse(_));
            std::process::exit(if usage { 2 } else { 1 });
        }
    }
}
