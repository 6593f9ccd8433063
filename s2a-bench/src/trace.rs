//! The benchmark's own spans, kept in memory and written as JSON lines
//! when a traced run ends. Nothing here reaches into the program: spans
//! sit around calls into its public functions.

use std::io::Write;

/// One span: `[start_ns, end_ns]` on the run's clock, its parent, and the
/// `(session, seq)` of the frame it belongs to, if any.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub frame: Option<(u64, u32)>,
}

/// Span store; a disabled tracer records nothing.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record a span; returns its id (0 when disabled).
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        start_ns: u64,
        end_ns: u64,
        frame: Option<(u64, u32)>,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span { id, parent, name, start_ns, end_ns, frame });
        id
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let (session, seq) = match s.frame {
                Some((sid, seq)) => (sid.to_string(), seq.to_string()),
                None => ("null".to_string(), "null".to_string()),
            };
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"session\": {session}, \"seq\": {seq}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
