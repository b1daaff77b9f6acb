//! Minimal `--flag value` command-line parsing shared by the `serve` and
//! `lc-top` binaries (no external CLI crate — the workspace is
//! offline). Unknown flags are an error, not a silent no-op, so a typo
//! like `--max-conn` for `--max-conns`, or a flag a later version
//! dropped, cannot quietly run with defaults.

use std::collections::HashMap;

/// Parse `--name value` pairs from the process arguments, validating
/// every flag name against `allowed`; the names in `switches` are
/// valueless booleans (`--once`): present means `"true"`.
pub fn parse_with_switches(
    allowed: &[&str],
    switches: &[&str],
) -> Result<HashMap<String, String>, String> {
    parse_from(std::env::args().skip(1), allowed, switches)
}

fn parse_from(
    args: impl Iterator<Item = String>,
    allowed: &[&str],
    switches: &[&str],
) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut args = args;
    while let Some(flag) = args.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?} (flags start with --)"))?;
        if switches.contains(&name) {
            flags.insert(name.to_string(), "true".to_string());
            continue;
        }
        if !allowed.contains(&name) {
            let mut all: Vec<&str> = allowed.iter().chain(switches).copied().collect();
            all.sort_unstable();
            return Err(format!("unknown flag --{name} (expected one of: --{})", all.join(", --")));
        }
        let value = args.next().ok_or_else(|| format!("flag --{name} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    Ok(flags)
}

/// Fetch a parsed flag, falling back to `default`, with a usable error
/// on unparsable values.
pub fn get<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| format!("invalid value {raw:?} for --{name}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> std::vec::IntoIter<String> {
        args.iter().map(|s| s.to_string()).collect::<Vec<_>>().into_iter()
    }

    #[test]
    fn parses_known_flags_and_typed_values() {
        let flags =
            parse_from(strings(&["--addr", "x:1", "--requests", "5"]), &["addr", "requests"], &[])
                .unwrap();
        assert_eq!(flags.get("addr").unwrap(), "x:1");
        assert_eq!(get(&flags, "requests", 0usize).unwrap(), 5);
        assert_eq!(get(&flags, "missing", 7u64).unwrap(), 7);
    }

    #[test]
    fn rejects_unknown_flags_bad_values_and_missing_values() {
        assert!(parse_from(strings(&["--oops", "1"]), &["addr"], &[])
            .unwrap_err()
            .contains("--oops"));
        assert!(parse_from(strings(&["addr"]), &["addr"], &[]).is_err());
        assert!(parse_from(strings(&["--addr"]), &["addr"], &[])
            .unwrap_err()
            .contains("needs a value"));
        let flags = parse_from(strings(&["--requests", "many"]), &["requests"], &[]).unwrap();
        assert!(get(&flags, "requests", 0usize).unwrap_err().contains("invalid value"));
    }

    #[test]
    fn switches_are_valueless_and_listed_in_errors() {
        let flags = parse_from(strings(&["--shift", "--requests", "5"]), &["requests"], &["shift"])
            .unwrap();
        assert_eq!(flags.get("shift").unwrap(), "true");
        assert_eq!(get(&flags, "requests", 0usize).unwrap(), 5);
        assert!(get(&flags, "shift", false).unwrap());
        let err = parse_from(strings(&["--nope"]), &["requests"], &["shift"]).unwrap_err();
        assert!(err.contains("--shift") && err.contains("--requests"), "got: {err}");
    }
}
