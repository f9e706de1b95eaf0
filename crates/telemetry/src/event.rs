//! Telemetry events: spans (with duration) and instant events.

/// A field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string value.
    Str(String),
    /// An unsigned integer.
    U64(u64),
    /// A float.
    F64(f64),
    /// A boolean.
    Bool(bool),
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// One key/value field on an event. Keys are static so hot sites never
/// allocate for them.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name.
    pub key: &'static str,
    /// Field value.
    pub value: Value,
}

impl Field {
    /// Builds a field.
    pub fn new(key: &'static str, value: impl Into<Value>) -> Self {
        Field {
            key,
            value: value.into(),
        }
    }
}

/// What kind of event this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span: `ts_us` is the start, `dur_us` the duration.
    Span,
    /// A point-in-time event; `dur_us` is zero.
    Instant,
}

impl EventKind {
    /// Stable lowercase name used in the JSON-lines schema.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Instant => "instant",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Span or instant.
    pub kind: EventKind,
    /// Event name, from the workspace span taxonomy (see DESIGN.md).
    pub name: &'static str,
    /// Microseconds since the recorder's epoch.
    pub ts_us: u64,
    /// Span duration in microseconds (zero for instants).
    pub dur_us: u64,
    /// Recording thread (small dense ids, assigned per thread on first
    /// use — stable within a process, not OS thread ids).
    pub tid: u64,
    /// Attached fields.
    pub fields: Vec<Field>,
}

impl Event {
    /// An instant event stamped now, on the calling thread.
    pub fn instant(name: &'static str, fields: &[(&'static str, Value)]) -> Event {
        Event {
            kind: EventKind::Instant,
            name,
            ts_us: crate::recorder::now_us(),
            dur_us: 0,
            tid: crate::recorder::thread_id(),
            fields: fields
                .iter()
                .map(|(k, v)| Field::new(k, v.clone()))
                .collect(),
        }
    }
}
