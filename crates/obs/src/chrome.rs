//! The Chrome trace-event format (JSON object form, openable in
//! Perfetto or `chrome://tracing`): the one writer every exporter in
//! the workspace — stage stamps merged per node or across nodes, per-
//! transaction history tracks — builds its document with.
//!
//! One event per line inside `"traceEvents"`, every event carrying
//! `ph`, `pid`, `tid`, `name` and `ts` (microseconds), in the spaced
//! `"key": value` style of every other JSON this repo emits.

use std::fmt::Write as _;

use crate::json::{write_escaped, JsonWriter};

/// One value of an event's `args` object.
#[derive(Debug, Clone, Copy)]
pub enum Arg<'a> {
    /// A string (escaped on the way out).
    Str(&'a str),
    /// An unsigned integer.
    Num(u64),
    /// A boolean.
    Bool(bool),
}

/// A trace document under construction: events first, then whatever
/// extra top-level keys the caller adds in [`finish_with`].
///
/// [`finish_with`]: ChromeTrace::finish_with
pub struct ChromeTrace {
    w: JsonWriter,
}

impl Default for ChromeTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl ChromeTrace {
    /// An empty document.
    pub fn new() -> ChromeTrace {
        let mut w = JsonWriter::new();
        w.open_object(None);
        w.open_array(Some("traceEvents"));
        ChromeTrace { w }
    }

    /// The shared head of every event; `rest` is the phase-specific
    /// keys, already rendered.
    #[allow(clippy::too_many_arguments)] // the event's required keys
    fn emit(
        &mut self,
        ph: char,
        (pid, tid): (u64, u64),
        cat: Option<&str>,
        name: &str,
        ts_us: i64,
        rest: &str,
        args: &[(&str, Arg)],
    ) {
        let mut s = format!("{{\"ph\": \"{ph}\", \"pid\": {pid}, \"tid\": {tid}, ");
        if let Some(cat) = cat {
            s.push_str("\"cat\": \"");
            write_escaped(&mut s, cat);
            s.push_str("\", ");
        }
        s.push_str("\"name\": \"");
        write_escaped(&mut s, name);
        let _ = write!(s, "\", \"ts\": {ts_us}{rest}");
        if !args.is_empty() {
            s.push_str(", \"args\": {");
            for (i, (key, value)) in args.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push('"');
                write_escaped(&mut s, key);
                s.push_str("\": ");
                match value {
                    Arg::Str(v) => {
                        s.push('"');
                        write_escaped(&mut s, v);
                        s.push('"');
                    }
                    Arg::Num(v) => {
                        let _ = write!(s, "{v}");
                    }
                    Arg::Bool(v) => {
                        let _ = write!(s, "{v}");
                    }
                }
            }
            s.push('}');
        }
        s.push('}');
        self.w.raw_element(&s);
    }

    /// A metadata (`"M"`) event on `track` (a `(pid, tid)` pair):
    /// `name` is `process_name`, `thread_name` or
    /// `process_sort_index`, `arg` its one argument.
    pub fn metadata(&mut self, track: (u64, u64), name: &str, arg: (&str, Arg)) {
        self.emit('M', track, None, name, 0, "", &[arg]);
    }

    /// A complete (`"X"`) slice of `dur_us` microseconds.
    pub fn complete(
        &mut self,
        track: (u64, u64),
        cat: Option<&str>,
        name: &str,
        ts_us: i64,
        dur_us: i64,
        args: &[(&str, Arg)],
    ) {
        let rest = format!(", \"dur\": {dur_us}");
        self.emit('X', track, cat, name, ts_us, &rest, args);
    }

    /// An instant (`"i"`) marker; `scope` is `'t'` (thread) or `'g'`
    /// (global).
    pub fn instant(
        &mut self,
        track: (u64, u64),
        cat: Option<&str>,
        name: &str,
        scope: char,
        ts_us: i64,
        args: &[(&str, Arg)],
    ) {
        let rest = format!(", \"s\": \"{scope}\"");
        self.emit('i', track, cat, name, ts_us, &rest, args);
    }

    /// One end of a flow arrow: the start (`"s"`) when `end` is false,
    /// otherwise the finish (`"f"`, bound to the enclosing slice).
    /// Both ends share `cat`, `name` and `id`.
    pub fn flow(
        &mut self,
        end: bool,
        track: (u64, u64),
        cat: &str,
        name: &str,
        id: u32,
        ts_us: i64,
    ) {
        let (ph, rest) = if end {
            ('f', format!(", \"id\": {id}, \"bp\": \"e\""))
        } else {
            ('s', format!(", \"id\": {id}"))
        };
        self.emit(ph, track, Some(cat), name, ts_us, &rest, &[]);
    }

    /// Closes the event list, lets `trailer` add top-level keys after
    /// it, and returns the document.
    pub fn finish_with(mut self, trailer: impl FnOnce(&mut JsonWriter)) -> String {
        self.w.close_array();
        trailer(&mut self.w);
        self.w.close_object();
        let mut out = self.w.finish();
        out.push('\n');
        out
    }

    /// [`finish_with`](ChromeTrace::finish_with) and no extra keys.
    pub fn finish(self) -> String {
        self.finish_with(|_| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_is_one_line_with_the_required_keys() {
        let mut t = ChromeTrace::new();
        t.metadata((1, 0), "process_name", ("name", Arg::Str("a \"node\"")));
        let committed = [("committed", Arg::Bool(true))];
        t.complete((1, 2), Some("txn"), "T1", 10, 5, &committed);
        t.instant((1, 2), None, "w1(x)", 't', 11, &[("event", Arg::Num(3))]);
        t.flow(false, (1, 2), "repl", "verdict-flow", 9, 12);
        t.flow(true, (2, 2), "repl", "verdict-flow", 9, 14);
        let doc = t.finish_with(|w| w.str_field("displayTimeUnit", "ms"));
        let events: Vec<&str> = doc
            .lines()
            .map(str::trim_start)
            .filter(|l| l.starts_with("{\"ph\""))
            .collect();
        assert_eq!(events.len(), 5, "{doc}");
        for line in &events {
            for key in [
                "\"ph\": ",
                "\"pid\": ",
                "\"tid\": ",
                "\"name\": ",
                "\"ts\": ",
            ] {
                assert!(line.contains(key), "missing {key} in {line}");
            }
        }
        assert!(
            events[0].contains(r#""args": {"name": "a \"node\""}"#),
            "{doc}"
        );
        assert!(events[1].contains(r#""cat": "txn", "name": "T1", "ts": 10, "dur": 5"#));
        assert!(events[2].contains(r#""s": "t", "args": {"event": 3}"#));
        assert!(events[3].contains(r#""ph": "s""#) && events[3].contains(r#""id": 9"#));
        assert!(events[4].contains(r#""id": 9, "bp": "e""#));
        // The whole document is what the one JSON reader accepts.
        let parsed = crate::json::parse(&doc).expect("valid JSON");
        assert_eq!(parsed.str_at("displayTimeUnit"), Some("ms"));
    }
}
