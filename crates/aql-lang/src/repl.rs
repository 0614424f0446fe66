//! A line-oriented read-eval-print driver over [`Session`].
//!
//! Mirrors the paper's AQL top-level loop (§4.2): statements are
//! accumulated until a terminating `;`, executed, and echoed as
//! `typ …` / `val …` lines. Continuation lines print with the `::`
//! prompt from the paper's transcript.

use std::io::{BufRead, Write};

use crate::errors::LangError;
use crate::session::{Outcome, Session};

/// The primary prompt.
pub const PROMPT: &str = ": ";
/// The continuation prompt (as in the paper's transcript).
pub const CONT_PROMPT: &str = ":: ";

/// The `\help` listing: every meta-command the loop understands.
const HELP: &str = "\
meta-commands:
  vals;                    list bound vals with their types
  macros;                  list registered macros
  \\explain <query>;        show the core/optimized terms, cost estimates, rule fires
  \\analyze <query>;        shape, bounds, kernel plan and cost of the term that runs
  \\lint <query>;           run the shape/bounds lints without evaluating
  \\profile <statements>    run with tracing on and print the phase tree
                           (… > \"f.json\"; exports Chrome trace JSON for Perfetto)
  \\flame <statements>      run once with tracing on; prints the hottest span
                           stacks by self time (… > \"f.svg\"; writes a flamegraph)
  \\metrics;                print the process-lifetime metrics registry
  \\metrics serve [addr];   serve Prometheus exposition + live dashboard at /
                           (default 127.0.0.1:0)
  \\store;                  list open chunk sources, cache residency, governor
  \\attr;                   per-query resource attribution of the last run
  \\doctor [\"<path>\"];      analyze the last (or given) incident, or the live journal
  \\incidents \"<dir>\";      dump incident files into <dir> (\\incidents off; stops)
  \\save <val> \"<path>\";    save a bound array to an AQF file (writeval using AQF)
  \\help;                   this listing
  quit / exit              leave the session
";

/// Drive a session from a reader to a writer until EOF. Returns the
/// number of statements executed successfully.
pub fn run_repl(
    session: &mut Session,
    input: &mut dyn BufRead,
    output: &mut dyn Write,
) -> std::io::Result<usize> {
    let mut executed = 0usize;
    let mut pending = String::new();
    loop {
        write!(output, "{}", if pending.is_empty() { PROMPT } else { CONT_PROMPT })?;
        output.flush()?;
        let mut line = String::new();
        if input.read_line(&mut line)? == 0 {
            break;
        }
        let trimmed = line.trim();
        if pending.is_empty() && trimmed.is_empty() {
            continue;
        }
        if pending.is_empty() && (trimmed == "quit" || trimmed == "exit") {
            break;
        }
        pending.push_str(&line);
        if statement_complete(&pending) {
            executed += command(session, &pending, output)?;
            pending.clear();
        }
    }
    Ok(executed)
}

/// Run one complete input — a meta-command, or AQL statements — and
/// return how many statements it executed.
fn command(session: &mut Session, src: &str, output: &mut dyn Write) -> std::io::Result<usize> {
    let stmt = src.trim();
    // A meta-command's arguments: what follows `prefix`, less the `;`.
    let args = |prefix: &str| stmt.strip_prefix(prefix).map(|a| a.trim_end().trim_end_matches(';'));
    // `vals;` and `macros;` list the environment.
    if stmt == "vals;" {
        for (n, t) in session.val_bindings() {
            writeln!(output, "val {n} : {t}")?;
        }
    } else if stmt == "macros;" {
        writeln!(output, "{}", session.macro_names().join(", "))?;
    } else if stmt == "\\help;" {
        write!(output, "{HELP}")?;
    // `\store;` reports per-binding chunk-store residency and the
    // process governor's usage and peak.
    } else if stmt == "\\store;" {
        write!(output, "{}", session.store_report())?;
    // `\attr;` renders the per-query resource attribution of the most
    // recent run: bytes and chunks by source label, per-phase wall
    // time, and the governor's peak.
    } else if stmt == "\\attr;" {
        let ledgers = session.last_report().attribution;
        if ledgers.is_empty() {
            writeln!(output, "attr: no statements run yet")?;
        }
        for (i, l) in ledgers.iter().enumerate() {
            writeln!(output, "stmt {i}:")?;
            write!(output, "{}", l.render())?;
        }
    // `\metrics;` dumps the registry: one `series value` per line.
    } else if stmt == "\\metrics;" {
        for (k, v) in aql_journal::metrics::snapshot() {
            writeln!(output, "{k} {v}")?;
        }
    // `\explain <query>;` (and the legacy bare `explain` spelling)
    // shows the pipeline — pre/post-optimization terms, rewrite
    // steps, and the (phase, rule) fire table — instead of running
    // the query.
    } else if let Some(q) = args("\\explain ").or_else(|| args("explain ")) {
        match session.explain(q) {
            Ok(ex) => writeln!(output, "{}", ex.render())?,
            Err(e) => writeln!(output, "error: {e}")?,
        }
    // `\analyze <query>;` runs the abstract interpreter over the term
    // the statement would evaluate and prints the inferred (symbolic)
    // shape, bounds verdicts, the kernel planner's plan and the cost
    // estimate — without evaluating the query.
    } else if let Some(q) = args("\\analyze ") {
        match session.analyze(q) {
            Ok(report) => write!(output, "{}", report.render())?,
            Err(e) => writeln!(output, "error: {e}")?,
        }
    // `\lint <query>;` typechecks the query and reports the
    // shape/bounds lints (`aql_analysis::lint`) without evaluating it.
    } else if let Some(q) = args("\\lint ") {
        match session.lint(q) {
            Ok(report) => write!(output, "{}", report.render())?,
            Err(e) => writeln!(output, "error: {e}")?,
        }
    // `\profile <statements>` runs the statements with tracing on and
    // prints the phase-timing tree plus each statement's counts after
    // the usual echoes. With a trailing `> "file";` the trace is written as
    // Chrome trace-event JSON instead (opens directly in Perfetto or
    // chrome://tracing).
    } else if let Some(rest) = stmt.strip_prefix("\\profile ") {
        let (src, redirect) = split_redirect(rest);
        let (outcomes, report) = match session.profile(src) {
            Ok(run) => run,
            Err(e) => return writeln!(output, "error: {e}").map(|()| 0),
        };
        echo(&outcomes, output)?;
        match redirect {
            Some(path) => match std::fs::write(path, report.to_chrome_json()) {
                Ok(()) => writeln!(output, "profile: wrote chrome trace to {path} (open in Perfetto)")?,
                Err(e) => writeln!(output, "error: cannot write `{path}`: {e}")?,
            },
            None => write!(output, "{}", report.render_profile(false))?,
        }
        return Ok(outcomes.len());
    // `\flame <statements>` runs the statements once with tracing on
    // and prints the span stacks with the most self time; with a
    // trailing `> "file.svg";` it writes the SVG flamegraph instead.
    } else if let Some(rest) = stmt.strip_prefix("\\flame ") {
        let (src, redirect) = split_redirect(rest);
        let (outcomes, profile) = match session.flame(src) {
            Ok(run) => run,
            Err(e) => return writeln!(output, "error: {e}").map(|()| 0),
        };
        echo(&outcomes, output)?;
        let size =
            format!("{} in {} stacks", aql_trace::fmt_dur(profile.total_ns()), profile.folded().len());
        match redirect {
            Some(path) => match std::fs::write(path, profile.to_svg(src.trim())) {
                Ok(()) => writeln!(output, "flame: wrote {path} ({size})")?,
                Err(e) => writeln!(output, "error: cannot write `{path}`: {e}")?,
            },
            None => {
                writeln!(output, "flame: {size}, hottest stacks:")?;
                for (stack, ns) in profile.top(8) {
                    writeln!(output, "  {:>8} {stack}", aql_trace::fmt_dur(ns))?;
                }
            }
        }
        return Ok(outcomes.len());
    // `\metrics serve [addr];` starts the Prometheus endpoint (it
    // outlives the REPL by design — the registry is process-lifetime,
    // so the scrape target stays up).
    } else if let Some(addr) = args("\\metrics serve") {
        let addr = match addr.trim() {
            "" => "127.0.0.1:0",
            addr => addr,
        };
        match aql_journal::metrics::http::serve(addr) {
            Ok(server) => {
                writeln!(output, "metrics: serving http://{}/metrics", server.addr())?;
                writeln!(output, "metrics: dashboard at http://{}/", server.addr())?;
            }
            Err(e) => writeln!(output, "error: cannot serve metrics on `{addr}`: {e}")?,
        }
    // `\save <val> "<path>";` persists a bound array to an AQF file by
    // delegating to whatever `AQF` writer is registered (aql-format's
    // `register_aqf` installs one).
    } else if let Some(rest) = args("\\save ") {
        let Some((name, path)) = parse_save_args(rest.trim()) else {
            return writeln!(output, "error: usage: \\save <val> \"<path>\";").map(|()| 0);
        };
        return run(session, &format!("writeval {name} using AQF at \"{path}\";"), output);
    // `\doctor;` analyzes the most recent incident dump (or the live
    // flight recorder when none exists); `\doctor "<path>";` analyzes a
    // specific incident file.
    } else if let Some(arg) = args("\\doctor") {
        match arg.trim() {
            "" => write!(output, "{}", session.doctor())?,
            arg => match parse_quoted(arg) {
                Some(path) => match aql_journal::incident::Incident::load(std::path::Path::new(path)) {
                    Ok(inc) => write!(output, "{}", aql_journal::doctor::diagnose(&inc))?,
                    Err(e) => writeln!(output, "error: {e}")?,
                },
                None => writeln!(output, "error: usage: \\doctor [\"<path>\"];")?,
            },
        }
    // `\incidents "<dir>";` turns the incident dump pipeline on;
    // `\incidents off;` turns it off.
    } else if let Some(arg) = args("\\incidents") {
        match (arg.trim(), parse_quoted(arg.trim())) {
            ("off", _) => {
                session.disable_incidents();
                writeln!(output, "incidents: off")?;
            }
            (_, Some(dir)) => {
                session.enable_incidents(dir);
                writeln!(output, "incidents: dumping into {dir}")?;
            }
            (_, None) => writeln!(output, "error: usage: \\incidents \"<dir>\"; | off;")?,
        }
    } else {
        return run(session, src, output);
    }
    Ok(0)
}

/// Run `src` and echo its outcomes, or its error.
fn run(session: &mut Session, src: &str, output: &mut dyn Write) -> std::io::Result<usize> {
    match session.run(src) {
        Ok(outcomes) => echo(&outcomes, output),
        Err(e) => writeln!(output, "error: {e}").map(|()| 0),
    }
}

/// Print each outcome's echo; the number of statements run.
fn echo(outcomes: &[Outcome], output: &mut dyn Write) -> std::io::Result<usize> {
    for o in outcomes {
        writeln!(output, "{}", o.text)?;
    }
    Ok(outcomes.len())
}

/// Strip a double-quoted argument (`"<text>"`). Returns `None` when it
/// isn't quoted or embeds a quote.
fn parse_quoted(arg: &str) -> Option<&str> {
    let inner = arg.strip_prefix('"')?.strip_suffix('"')?;
    (!inner.is_empty() && !inner.contains('"')).then_some(inner)
}

/// Split `\save` arguments: a val name followed by a double-quoted
/// path. Returns `None` when the shape doesn't match (the path must
/// be quoted and free of embedded quotes — it is spliced back into a
/// `writeval` statement verbatim).
fn parse_save_args(rest: &str) -> Option<(&str, &str)> {
    let (name, path) = rest.split_once(char::is_whitespace)?;
    let path = path.trim();
    let path = path.strip_prefix('"')?.strip_suffix('"')?;
    if name.is_empty()
        || path.is_empty()
        || path.contains('"')
        || path.contains('\\')
        || !name.chars().all(|c| c.is_alphanumeric() || c == '_')
    {
        return None;
    }
    Some((name, path))
}

/// Split a trailing output redirect off `\profile` / `\flame`
/// arguments: `<statements> > "<path>";` → `(<statements>, Some(path))`.
/// The path must be double-quoted (so a bare `a > b;` comparison query
/// is never mistaken for a redirect) and quote-free; anything else
/// returns the input untouched with no redirect.
fn split_redirect(rest: &str) -> (&str, Option<&str>) {
    let t = rest.trim_end();
    let Some(t) = t.strip_suffix(';') else { return (rest, None) };
    let Some(t) = t.trim_end().strip_suffix('"') else { return (rest, None) };
    let Some((stmts, path)) = t.rsplit_once("> \"") else {
        return (rest, None);
    };
    if path.is_empty() || path.contains('"') || !stmts.trim_end().ends_with(';') {
        return (rest, None);
    }
    (stmts.trim_end(), Some(path))
}

/// Whether a buffer holds whole statements: its last token is `;`.
/// A buffer the lexer finds ending inside a comment, a string or an
/// escape (its error at the input's end) awaits more lines; any other
/// lexical error is complete, so the session reports it.
fn statement_complete(src: &str) -> bool {
    match crate::lexer::lex(src) {
        Ok(toks) => toks.iter().rev().nth(1).is_some_and(|t| t.tok == crate::token::Tok::Semi),
        Err(LangError::Lex { offset, .. }) => offset < src.len(),
        Err(_) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn completeness_heuristic() {
        assert!(statement_complete("1 + 1;"));
        assert!(statement_complete("1 + 1; (* trailing comment *)"));
        assert!(!statement_complete("1 + 1"));
        assert!(!statement_complete("\"unterminated;"));
        assert!(!statement_complete("(* ; *)"));
        assert!(statement_complete("{x | \\x <- S};"));
        // Comments nest: the first `*)` closes only the inner one.
        assert!(!statement_complete("1; (* a (* b *) ;"));
        assert!(statement_complete("1; (* a (* b *) c *)"));
        // An escaped quote does not end the string.
        assert!(!statement_complete("\"a\\\";"));
        assert!(statement_complete("\"a\\\"\";"));
        // A lexical error short of the end is complete: the session
        // reports it.
        assert!(statement_complete("1 + $ 2"));
    }

    #[test]
    fn repl_executes_and_echoes() {
        let mut s = Session::new();
        let input = "val \\x = 3;\nx * 14;\nquit\n";
        let mut reader = BufReader::new(input.as_bytes());
        let mut out: Vec<u8> = Vec::new();
        let n = run_repl(&mut s, &mut reader, &mut out).unwrap();
        assert_eq!(n, 2);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("typ x : nat"));
        assert!(text.contains("val it = 42"));
    }

    #[test]
    fn repl_recovers_from_errors() {
        let mut s = Session::new();
        let input = "1 + true;\n2 + 2;\n";
        let mut reader = BufReader::new(input.as_bytes());
        let mut out: Vec<u8> = Vec::new();
        let n = run_repl(&mut s, &mut reader, &mut out).unwrap();
        assert_eq!(n, 1);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("error:"));
        assert!(text.contains("val it = 4"));
    }

    #[test]
    fn meta_commands_list_the_environment() {
        let mut s = Session::new();
        let input = "val \\x = 3;\nvals;\nmacros;\n";
        let mut reader = BufReader::new(input.as_bytes());
        let mut out: Vec<u8> = Vec::new();
        run_repl(&mut s, &mut reader, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("val x : nat"));
        assert!(text.contains("zip_3"), "prelude macros listed: {text}");
    }

    #[test]
    fn explain_shows_the_pipeline() {
        let mut s = Session::new();
        let input = "explain [[ i | \\i < 10 ]][3];\n1 + 1;\n";
        let mut reader = BufReader::new(input.as_bytes());
        let mut out: Vec<u8> = Vec::new();
        run_repl(&mut s, &mut reader, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("typ  : nat"));
        assert!(text.contains("beta-p"), "trace must show β^p: {text}");
        assert!(text.contains("opt  : 3"), "the query folds to 3: {text}");
        assert!(text.contains("val it = 2"), "the REPL keeps running");
    }

    /// Drive a fresh session's REPL over `input` and return the
    /// timing-redacted transcript.
    fn redacted_transcript(input: &str) -> String {
        let mut s = Session::new();
        let mut reader = BufReader::new(input.as_bytes());
        let mut out: Vec<u8> = Vec::new();
        run_repl(&mut s, &mut reader, &mut out).unwrap();
        aql_trace::redact_timings(&String::from_utf8(out).unwrap())
    }

    #[test]
    fn backslash_explain_shows_fire_table() {
        let text = redacted_transcript("\\explain [[ i | \\i < 10 ]][3];\n");
        assert!(text.contains("typ  : nat"), "{text}");
        assert!(text.contains("opt  : 3"), "the query folds to 3: {text}");
        assert!(text.contains("rule fires:"), "{text}");
        for col in ["phase", "rule", "fires"] {
            assert!(text.contains(col), "fire table column `{col}`: {text}");
        }
        assert!(text.contains("beta-p"), "fire table must name β^p: {text}");
        // Golden: explain output carries no timings, so two fresh
        // sessions must render identically.
        assert_eq!(text, redacted_transcript("\\explain [[ i | \\i < 10 ]][3];\n"));
    }

    #[test]
    fn backslash_profile_shows_phase_tree() {
        let input = "\\profile val \\a = [[ i * i | \\i < 8 ]]; a[3];\n";
        let text = redacted_transcript(input);
        assert!(text.contains("typ a : [[nat]]_1"), "{text}");
        assert!(text.contains("val it = 9"), "{text}");
        // The span tree: one root per statement with the pipeline
        // phases as children, durations redacted to `(_)`.
        assert!(text.contains("statement [kind=val] (_)"), "{text}");
        assert!(text.contains("statement [kind=query] (_)"), "{text}");
        for phase in ["desugar", "typecheck", "optimize", "eval"] {
            assert!(
                text.contains(&format!("─ {phase} (_)")),
                "phase `{phase}` must appear as a child span: {text}"
            );
        }
        // Then one block a statement, its counts from the record.
        assert!(!text.contains("eval.steps="), "the tree counts nothing: {text}");
        assert!(text.contains("stmt 0:\n  eval: steps="), "{text}");
        assert!(text.contains("stmt 1:\n  eval: steps="), "{text}");
        // Golden: after redaction the transcript is deterministic.
        assert_eq!(text, redacted_transcript(input));
    }

    #[test]
    fn backslash_analyze_reports_shape_bounds_and_the_kernel_plan() {
        let input = "val \\a = [[ i * i | \\i < 8 ]];\n\
                     \\analyze [[ a[i] + 1 | \\i < len!a ]];\n\
                     \\analyze summap(fn \\x => x)!(gen!9);\n\
                     \\analyze 1 + true;\n";
        let text = redacted_transcript(input);
        assert!(text.contains("typ    : [[nat]]_1"), "{text}");
        assert!(text.contains("shape  : array[8] of"), "bound extent is concrete: {text}");
        assert!(text.contains("1 provably in-bounds"), "{text}");
        assert!(text.contains("  - kernel: [[(a[i]) + 1 | "), "{text}");
        assert!(text.contains("cost   : cells~8"), "{text}");
        assert!(
            text.contains("  - interpreted: sum{"),
            "a Σ with no subscript to mark is the interpreter's: {text}"
        );
        assert!(text.contains("error: type error"), "{text}");
        // Golden: analysis output carries no timings and is
        // deterministic across fresh sessions, up to the process-wide
        // gensym counter that names desugared comprehension binders.
        fn redact_gensyms(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            let mut chars = s.chars().peekable();
            while let Some(c) = chars.next() {
                out.push(c);
                if c == '%' && chars.peek().is_some_and(char::is_ascii_digit) {
                    while chars.peek().is_some_and(char::is_ascii_digit) {
                        chars.next();
                    }
                    out.push('N');
                }
            }
            out
        }
        assert_eq!(redact_gensyms(&text), redact_gensyms(&redacted_transcript(input)));
    }

    #[test]
    fn explain_shows_cost_estimates() {
        // E1-style zip and the fold-to-constant query both carry a
        // before → after cost line; folding must reduce the estimate.
        let text = redacted_transcript("\\explain [[ i | \\i < 10 ]][3];\n");
        let line = text
            .lines()
            .find(|l| l.starts_with("cost : "))
            .unwrap_or_else(|| panic!("no cost line: {text}"));
        assert!(line.contains("->"), "{line}");
        let steps: Vec<u64> = line
            .split_whitespace()
            .filter_map(|w| w.strip_prefix("steps~"))
            .map(|n| n.parse().unwrap())
            .collect();
        assert_eq!(steps.len(), 2, "{line}");
        assert!(steps[1] < steps[0], "optimization must cut the estimate: {line}");
    }

    #[test]
    fn backslash_lint_reports_findings() {
        // A provably out-of-bounds subscript (L001), rendered with the
        // stable code, then a clean query, then an ill-typed one.
        let input = "\\lint [[ i | \\i < 10 ]][12];\n\
                     \\lint [[ i | \\i < 10 ]][3];\n\
                     \\lint 1 + true;\n";
        let text = redacted_transcript(input);
        assert!(text.contains("typ  : nat"), "{text}");
        assert!(
            text.contains("lint : L001 warning: subscript along dimension 1"),
            "{text}"
        );
        assert!(text.contains("always evaluates to bottom"), "{text}");
        assert!(text.contains("lint : no findings"), "{text}");
        assert!(text.contains("error: type error"), "{text}");
        // Golden: lint output is deterministic across fresh sessions.
        assert_eq!(text, redacted_transcript(input));
    }

    #[test]
    fn backslash_lint_sees_val_extents() {
        // `A`'s extent lives only in the session's bindings: the lint
        // pass reads the analysis `\analyze` runs, with them as globals.
        let text = redacted_transcript("val \\A = [[ i | \\i < 2 ]];\n\\lint A[5];\n");
        assert!(
            text.contains(
                "lint : L001 warning: subscript along dimension 1 is provably out of bounds \
                 (index >= 5, extent 2): the subscript always evaluates to bottom\n"
            ),
            "{text}"
        );
    }

    #[test]
    fn backslash_lint_flags_dead_branches_and_zero_extents() {
        let text = redacted_transcript(
            "\\lint if bottom then 1 else 2;\n\\lint [[ i | \\i < 0 ]];\n",
        );
        assert!(
            text.contains("lint : L003 warning: `if` condition is the literal bottom"),
            "{text}"
        );
        assert!(
            text.contains("lint : L002 warning: tabulation bound 1 is constantly zero"),
            "{text}"
        );
        assert_eq!(
            text,
            redacted_transcript(
                "\\lint if bottom then 1 else 2;\n\\lint [[ i | \\i < 0 ]];\n"
            )
        );
    }

    #[test]
    fn profile_recovers_from_errors() {
        let text = redacted_transcript("\\profile 1 + true;\n2 + 2;\n");
        assert!(text.contains("error:"), "{text}");
        assert!(text.contains("val it = 4"), "the REPL keeps running: {text}");
    }

    #[test]
    fn split_redirect_only_fires_on_quoted_trailing_paths() {
        // Well-formed redirect after a terminated statement.
        assert_eq!(
            split_redirect("1 + 1; > \"out.svg\";"),
            ("1 + 1;", Some("out.svg"))
        );
        assert_eq!(
            split_redirect("val \\a = 1; a; > \"d/x.json\";"),
            ("val \\a = 1; a;", Some("d/x.json"))
        );
        // A `>` comparison against a string is NOT a redirect: the
        // part before `> "` is not a terminated statement.
        assert_eq!(split_redirect("\"a\" > \"b\";"), ("\"a\" > \"b\";", None));
        // No quotes → no redirect.
        assert_eq!(split_redirect("1 + 1;"), ("1 + 1;", None));
        assert_eq!(split_redirect("x > 3;"), ("x > 3;", None));
    }

    /// Is `word` a duration as [`aql_trace::fmt_dur`] prints one (`12.3µs`)?
    fn is_duration(word: &str) -> bool {
        aql_trace::redact_timings(&format!("({word})")) == "(_)"
    }

    /// `<total> in <n> stacks` → `n`, having checked `<total>`.
    fn stacks_of(size: &str) -> usize {
        let (total, rest) = size.split_once(" in ").unwrap_or_else(|| panic!("`{size}`"));
        assert!(is_duration(total), "the total is a duration: `{size}`");
        rest.strip_suffix(" stacks").and_then(|n| n.parse().ok()).unwrap_or_else(|| panic!("`{size}`"))
    }

    #[test]
    fn backslash_flame_prints_hottest_stacks() {
        let text = redacted_transcript("\\flame max!{ i * i | \\i <- gen!400 };\n");
        assert!(text.contains("val it = 159201"), "{text}");
        let mut lines = text.lines().skip_while(|l| !l.starts_with("flame: "));
        // `flame: <total> in <n> stacks, hottest stacks:` …
        let head = lines.next().unwrap_or_else(|| panic!("no flame line: {text}"));
        let size = head.strip_prefix("flame: ").and_then(|h| h.strip_suffix(", hottest stacks:"));
        assert!(stacks_of(size.unwrap_or_else(|| panic!("`{head}`"))) >= 8, "{head}");
        // … then the eight heaviest `  <dur> <stack>` lines, every span
        // of the statement a candidate, not only those a tick caught.
        let hottest: Vec<&str> = lines
            .take_while(|l| l.starts_with("  "))
            .map(|l| {
                let (dur, stack) = l.trim().split_once(' ').unwrap_or_else(|| panic!("`{l}`"));
                assert!(is_duration(dur), "a duration leads `{l}`");
                stack
            })
            .collect();
        assert_eq!(hottest.len(), 8, "{text}");
        for stack in ["statement", "statement;eval"] {
            assert!(hottest.contains(&stack), "{stack}: {text}");
        }
        assert!(hottest.iter().all(|s| s.starts_with("statement") || s.starts_with("parse")));
    }

    #[test]
    fn backslash_flame_redirect_writes_svg() {
        let path = std::env::temp_dir()
            .join(format!("aql-flame-{}.svg", std::process::id()));
        let path_str = path.display().to_string();
        let text = redacted_transcript(&format!(
            "\\flame max!{{ i + 1 | \\i <- gen!200 }}; > \"{path_str}\";\n"
        ));
        let size = text
            .lines()
            .find_map(|l| l.strip_prefix(&format!("flame: wrote {path_str} (")))
            .and_then(|l| l.strip_suffix(')'))
            .unwrap_or_else(|| panic!("no flame line: {text}"));
        assert!(stacks_of(size) >= 8, "{text}");
        let svg = std::fs::read_to_string(&path).expect("svg written");
        assert!(svg.starts_with("<svg"), "{svg}");
        assert!(svg.contains("<title>statement ("), "{svg}");
        assert!(svg.contains("<title>opt.phase ("), "the exact tree, not what a tick caught: {svg}");
        assert!(!svg.contains("samples"), "weights are durations: {svg}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn backslash_profile_redirect_writes_chrome_trace() {
        let path = std::env::temp_dir()
            .join(format!("aql-chrome-{}.json", std::process::id()));
        let path_str = path.display().to_string();
        let text = redacted_transcript(&format!(
            "\\profile 2 + 3; > \"{path_str}\";\n"
        ));
        assert!(text.contains("profile: wrote chrome trace"), "{text}");
        assert!(text.contains("val it = 5"), "{text}");
        let json = std::fs::read_to_string(&path).expect("json written");
        let v = aql_trace::json::Json::parse(&json).expect("strict json");
        let events = v
            .get("traceEvents")
            .and_then(aql_trace::json::Json::as_arr)
            .expect("traceEvents");
        assert!(
            events.iter().any(|e| {
                e.get("name").and_then(aql_trace::json::Json::as_str)
                    == Some("statement")
                    && e.get("ph").and_then(aql_trace::json::Json::as_str)
                        == Some("X")
            }),
            "{json}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn backslash_help_lists_every_meta_command() {
        let text = redacted_transcript("\\help;\n1 + 1;\n");
        for cmd in [
            "vals;", "macros;", "\\explain", "\\analyze", "\\lint", "\\profile", "\\flame",
            "\\metrics", "\\store", "\\attr", "\\doctor", "\\incidents", "\\save", "\\help",
            "quit",
        ] {
            assert!(text.contains(cmd), "`{cmd}` missing from \\help: {text}");
        }
        assert!(text.contains("val it = 2"), "the REPL keeps running: {text}");
        // Golden: the help text is a constant, so two fresh sessions
        // must render identically.
        assert_eq!(text, redacted_transcript("\\help;\n1 + 1;\n"));
    }

    #[test]
    fn backslash_metrics_dumps_the_registry() {
        let text = redacted_transcript("6 * 7;\n\\metrics;\n");
        assert!(text.contains("val it = 42"), "{text}");
        assert!(
            text.contains("aql_session_statements_total{kind=\"query\"}"),
            "statement counters must appear: {text}"
        );
        assert!(
            text.contains("aql_session_statement_ns_count"),
            "latency histogram summaries must appear: {text}"
        );
    }

    #[test]
    fn backslash_metrics_serve_answers_scrapes() {
        use std::io::Read as _;
        let mut s = Session::new();
        let input = "\\metrics serve 127.0.0.1:0;\n1 + 1;\n";
        let mut reader = BufReader::new(input.as_bytes());
        let mut out: Vec<u8> = Vec::new();
        run_repl(&mut s, &mut reader, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let addr = text
            .lines()
            .find_map(|l| l.split("metrics: serving http://").nth(1))
            .and_then(|l| l.strip_suffix("/metrics"))
            .unwrap_or_else(|| panic!("no serving line in {text}"))
            .to_string();
        let mut conn = std::net::TcpStream::connect(&addr).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut body = String::new();
        conn.read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
        assert!(body.contains("# TYPE aql_session_statements_total counter"), "{body}");
    }

    #[test]
    fn backslash_store_reports_without_open_sources() {
        let text = redacted_transcript("val \\x = 3;\n\\store;\n");
        assert!(text.contains("store: no open chunk sources"), "{text}");
        assert!(text.contains("governor: in_use="), "{text}");
        assert!(!text.contains("budget"), "no process budget is reported: {text}");
    }

    #[test]
    fn backslash_save_rejects_malformed_and_unregistered() {
        // Malformed: no quoted path.
        let text = redacted_transcript("\\save x out.aqf;\n1 + 1;\n");
        assert!(text.contains("error: usage: \\save <val> \"<path>\";"), "{text}");
        assert!(text.contains("val it = 2"), "the REPL keeps running: {text}");
        // Well-formed, but no `AQF` writer registered in a bare
        // session: the delegated `writeval` reports the error.
        let text = redacted_transcript("val \\x = 3;\n\\save x \"/tmp/x.aqf\";\n");
        assert!(text.contains("error:"), "{text}");
        assert_eq!(
            text,
            redacted_transcript("val \\x = 3;\n\\save x \"/tmp/x.aqf\";\n"),
            "the \\save error path is deterministic"
        );
    }

    #[test]
    fn save_argument_splitter() {
        assert_eq!(parse_save_args("x \"out.aqf\""), Some(("x", "out.aqf")));
        assert_eq!(parse_save_args("grid  \"/tmp/a b.aqf\""), Some(("grid", "/tmp/a b.aqf")));
        assert_eq!(parse_save_args("x out.aqf"), None, "path must be quoted");
        assert_eq!(parse_save_args("x"), None);
        assert_eq!(parse_save_args("x \"\""), None, "empty path");
        assert_eq!(parse_save_args("x; drop \"p\""), None, "name must be an identifier");
    }

    #[test]
    fn backslash_attr_renders_the_last_run() {
        // A bare session has no prelude run behind it, so the first
        // `\attr;` reports emptiness; after a statement, one ledger.
        let mut s = Session::bare();
        let input = "\\attr;\n1 + 1;\n\\attr;\n";
        let mut reader = BufReader::new(input.as_bytes());
        let mut out: Vec<u8> = Vec::new();
        run_repl(&mut s, &mut reader, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("attr: no statements run yet"), "{text}");
        assert!(text.contains("stmt 0:"), "{text}");
        assert!(text.contains("governor: peak"), "{text}");
        assert!(text.contains("val it = 2"), "the REPL keeps running: {text}");
    }

    #[test]
    fn backslash_doctor_and_incidents_work_end_to_end() {
        let dir = std::env::temp_dir().join(format!("aql-repl-doc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = format!(
            "\\incidents \"{}\";\nno_such_name + 1;\n\\doctor;\n\\incidents off;\n",
            dir.display()
        );
        let mut s = Session::new();
        let mut reader = BufReader::new(input.as_bytes());
        let mut out: Vec<u8> = Vec::new();
        run_repl(&mut s, &mut reader, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("incidents: dumping into"), "{text}");
        assert!(text.contains("error:"), "the bad statement errors: {text}");
        assert!(text.contains("incident:"), "\\doctor names the dump: {text}");
        assert!(text.contains("fault class"), "\\doctor classifies: {text}");
        assert!(text.contains("incidents: off"), "{text}");
        // `\doctor "<path>";` reads a specific file.
        let path = aql_journal::incident::list_incidents(&dir)
            .pop()
            .expect("an incident file exists");
        let text2 = redacted_transcript(&format!("\\doctor \"{}\";\n", path.display()));
        assert!(text2.contains("fault class"), "{text2}");
        // Malformed arg is a usage error, not a crash.
        let text3 = redacted_transcript("\\doctor nope;\n1 + 1;\n");
        assert!(text3.contains("usage: \\doctor"), "{text3}");
        assert!(text3.contains("val it = 2"), "{text3}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multiline_statements_accumulate() {
        let mut s = Session::new();
        let input = "{d | \\d <- gen!5,\n d > 2};\n";
        let mut reader = BufReader::new(input.as_bytes());
        let mut out: Vec<u8> = Vec::new();
        run_repl(&mut s, &mut reader, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("val it = {3, 4}"));
        assert!(text.contains(CONT_PROMPT));
    }
}
