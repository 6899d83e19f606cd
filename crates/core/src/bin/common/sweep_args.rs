//! The command line every `exp_*` sweep shares: `--smoke` and the
//! binary's own `--list-*` flag, and nothing else.

/// The flags a sweep was started with.
pub struct SweepArgs {
    /// `--smoke`: the CI-sized sweep.
    pub smoke: bool,
    /// The `--list-*` flag: print the listing instead of sweeping.
    pub list: bool,
}

/// Reads the process arguments. Any argument other than `--smoke` and
/// `list_flag` is a usage error, as in `sgxctl`: one `error:` line on
/// stderr and exit code 2, before any work starts.
pub fn parse(list_flag: &str) -> SweepArgs {
    let mut args = SweepArgs {
        smoke: false,
        list: false,
    };
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            args.smoke = true;
        } else if arg == list_flag {
            args.list = true;
        } else {
            eprintln!("error: unknown argument `{arg}` (accepted: --smoke, {list_flag})");
            std::process::exit(2);
        }
    }
    args
}
