//! Request/response messages for the `sas serve` protocol.
//!
//! Every message is a `sas-codec` frame (tags in [`sas_codec::proto`]) sent
//! length-prefixed over TCP. Frames keep the codec's robustness contract:
//! decoding a hostile message never panics and never allocates beyond the
//! message cap. Responses to different requests have different body
//! layouts, so decoding a response requires naming the request it answers
//! ([`decode_response`]).

use sas_codec::{encode_frame, open_frame, proto, CodecError, Reader, Writer};
use sas_obs::{HistogramSnapshot, MetricsReport};
use sas_summaries::{Estimate, Query, SummaryKind};

use crate::policy::{Coverage, Policy};
use crate::window::{Level, WindowKey};

/// A client→daemon request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Estimate the weight in `range` for a dataset series, optionally
    /// restricted to windows overlapping `time`.
    Query {
        /// Dataset name.
        dataset: String,
        /// Series kind.
        kind: SummaryKind,
        /// One `(lo, hi)` per axis.
        range: Vec<(u64, u64)>,
        /// Optional closed tick interval filtering windows.
        time: Option<(u64, u64)>,
    },
    /// Estimate a [`Query`] for a dataset series with error bounds,
    /// optionally restricted to windows overlapping `time`. The newer,
    /// richer sibling of [`Request::Query`] (which stays answered for
    /// compatibility).
    Estimate {
        /// Dataset name.
        dataset: String,
        /// Series kind.
        kind: SummaryKind,
        /// The query.
        query: Query,
        /// Confidence for the returned interval.
        confidence: f64,
        /// Optional closed tick interval filtering windows.
        time: Option<(u64, u64)>,
    },
    /// [`Request::Estimate`] with a gap report: the answer additionally
    /// names which stretches of the requested span were missing or expired
    /// by retention. Same body layout as the plain estimate under its own
    /// tag; the plain tags stay answered bit-identically.
    EstimateCov {
        /// Dataset name.
        dataset: String,
        /// Series kind.
        kind: SummaryKind,
        /// The query.
        query: Query,
        /// Confidence for the returned interval.
        confidence: f64,
        /// Optional closed tick interval filtering windows.
        time: Option<(u64, u64)>,
    },
    /// Register a live subscription for a canonical query on this
    /// connection. Acknowledged with a watch id; afterwards every sealed
    /// ingest batch touching the series triggers an unsolicited
    /// [`WatchUpdate`] push frame on the connection.
    Watch {
        /// Dataset name.
        dataset: String,
        /// Series kind.
        kind: SummaryKind,
        /// The query.
        query: Query,
        /// Confidence for pushed intervals.
        confidence: f64,
        /// Optional closed tick interval filtering windows.
        time: Option<(u64, u64)>,
    },
    /// Install (or clear, when the policy is empty) a dataset's lifecycle
    /// policy.
    PolicySet {
        /// Dataset name.
        dataset: String,
        /// The policy to install.
        policy: Policy,
    },
    /// Read back installed lifecycle policies, optionally for one dataset.
    PolicyShow {
        /// Restrict to one dataset (`None` lists all).
        dataset: Option<String>,
    },
    /// Merge a batch summary (a complete summary frame) into the minute
    /// window containing `ts`.
    Ingest {
        /// Dataset name.
        dataset: String,
        /// Batch timestamp (ticks).
        ts: u64,
        /// Encoded summary frame.
        frame: Vec<u8>,
    },
    /// List the catalog's windows.
    List,
    /// Store statistics.
    Stats,
    /// Liveness probe, answered from the daemon's event loop without
    /// touching the store — measures loop responsiveness even while every
    /// worker is busy.
    Ping,
    /// Snapshot the daemon's metrics registry: every counter and latency
    /// histogram (event loop, per-stage request timing, catalog).
    Metrics,
    /// Stop the daemon after draining in-flight connections.
    Shutdown,
}

/// One row of a [`Response::List`].
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRow {
    /// The window's catalog coordinate.
    pub key: WindowKey,
    /// Stored elements in the window summary.
    pub items: u64,
    /// Batches merged into the window.
    pub batches: u64,
    /// Bytes the window holds on disk: its frame file, if persisted, plus
    /// its live batch-log records.
    pub frame_bytes: u64,
}

/// A daemon→client response. `Err` can answer any request.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Query`].
    Query {
        /// The estimate.
        value: f64,
        /// Windows consulted.
        windows: u64,
        /// Whether the answer came from the LRU cache.
        cached: bool,
    },
    /// Answer to [`Request::Estimate`]: the estimate with its bounds.
    Estimate {
        /// The estimate.
        estimate: Estimate,
        /// Windows consulted.
        windows: u64,
        /// Whether the answer came from the LRU cache.
        cached: bool,
    },
    /// Answer to [`Request::EstimateCov`]: the estimate plus its gap
    /// report.
    EstimateCov {
        /// The estimate.
        estimate: Estimate,
        /// Windows consulted.
        windows: u64,
        /// Whether the answer came from the LRU cache.
        cached: bool,
        /// Which parts of the requested span had no data, and why.
        coverage: Coverage,
    },
    /// Answer to [`Request::Watch`]: the subscription is registered.
    Watch {
        /// Daemon-assigned watch id, echoed by every push for it.
        watch_id: u64,
    },
    /// Answer to [`Request::PolicySet`]: the policy is persisted.
    PolicySet,
    /// Answer to [`Request::PolicyShow`]: `(dataset, policy)` rows in
    /// dataset order.
    Policies(Vec<(String, Policy)>),
    /// Answer to [`Request::Ingest`]: where the batch landed.
    Ingest {
        /// Window level (always minute today).
        level: Level,
        /// Window start tick.
        start: u64,
        /// Items now in the window summary.
        items: u64,
    },
    /// Answer to [`Request::List`].
    List(Vec<WindowRow>),
    /// Answer to [`Request::Stats`]: name/value pairs in the daemon's
    /// fixed emission order ([`crate::Store::stats`]'s hand-written list —
    /// stable across calls within one build, but *not* sorted and not
    /// guaranteed stable across versions). Display layers that want
    /// diffable output must sort by name themselves, as `sas client stats`
    /// does.
    Stats(Vec<(String, u64)>),
    /// Answer to [`Request::Metrics`]: the full registry snapshot, sorted
    /// by metric name.
    Metrics(MetricsReport),
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Shutdown`].
    Shutdown,
    /// Any request can fail with a message.
    Err(String),
    /// Any request can be load-shed with a reason (connection limit,
    /// per-dataset admission control). Unlike [`Response::Err`] this is
    /// not the request's fault: retrying later is reasonable.
    Busy(String),
}

/// Encodes a request frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Query {
            dataset,
            kind,
            range,
            time,
        } => encode_frame(proto::REQ_QUERY, |w| {
            w.section(1, |w| {
                w.put_str(dataset);
                w.put_u16(kind.tag());
                put_time(w, *time);
            });
            w.section(2, |w| {
                w.put_u64(range.len() as u64);
                for &(lo, hi) in range {
                    w.put_u64(lo);
                    w.put_u64(hi);
                }
            });
        }),
        Request::Estimate {
            dataset,
            kind,
            query,
            confidence,
            time,
        } => encode_estimate_shape(
            proto::REQ_ESTIMATE,
            dataset,
            *kind,
            query,
            *confidence,
            *time,
        ),
        Request::EstimateCov {
            dataset,
            kind,
            query,
            confidence,
            time,
        } => encode_estimate_shape(
            proto::REQ_ESTIMATE_COV,
            dataset,
            *kind,
            query,
            *confidence,
            *time,
        ),
        Request::Watch {
            dataset,
            kind,
            query,
            confidence,
            time,
        } => encode_estimate_shape(proto::REQ_WATCH, dataset, *kind, query, *confidence, *time),
        Request::PolicySet { dataset, policy } => encode_frame(proto::REQ_POLICY_SET, |w| {
            w.section(1, |w| w.put_str(dataset));
            w.section(2, |w| policy.write_wire(w));
        }),
        Request::PolicyShow { dataset } => encode_frame(proto::REQ_POLICY_SHOW, |w| {
            w.section(1, |w| match dataset {
                Some(d) => {
                    w.put_u8(1);
                    w.put_str(d);
                }
                None => w.put_u8(0),
            });
        }),
        Request::Ingest { dataset, ts, frame } => encode_frame(proto::REQ_INGEST, |w| {
            w.section(1, |w| {
                w.put_str(dataset);
                w.put_u64(*ts);
            });
            w.section(2, |w| w.put_bytes(frame));
        }),
        Request::List => encode_frame(proto::REQ_LIST, |_| {}),
        Request::Stats => encode_frame(proto::REQ_STATS, |_| {}),
        Request::Ping => encode_frame(proto::REQ_PING, |_| {}),
        Request::Metrics => encode_frame(proto::REQ_METRICS, |_| {}),
        Request::Shutdown => encode_frame(proto::REQ_SHUTDOWN, |_| {}),
    }
}

/// Decodes a request frame (the daemon's half).
pub fn decode_request(bytes: &[u8]) -> Result<Request, CodecError> {
    let mut frame = open_frame(bytes)?;
    let req = match frame.kind {
        proto::REQ_QUERY => {
            let mut meta = frame.body.expect_section(1)?;
            let dataset = meta.get_str()?;
            let tag = meta.get_u16()?;
            let kind = SummaryKind::from_tag(tag).ok_or(CodecError::UnknownKind(tag))?;
            let time = get_time(&mut meta)?;
            meta.finish()?;
            let mut axes = frame.body.expect_section(2)?;
            let n = axes.get_len(16)?;
            let mut range = Vec::with_capacity(n);
            for _ in 0..n {
                let lo = axes.get_u64()?;
                let hi = axes.get_u64()?;
                if lo > hi {
                    return Err(CodecError::Invalid(format!("empty range {lo}..{hi}")));
                }
                range.push((lo, hi));
            }
            axes.finish()?;
            Request::Query {
                dataset,
                kind,
                range,
                time,
            }
        }
        proto::REQ_ESTIMATE => {
            let (dataset, kind, query, confidence, time) = read_estimate_shape(&mut frame.body)?;
            Request::Estimate {
                dataset,
                kind,
                query,
                confidence,
                time,
            }
        }
        proto::REQ_ESTIMATE_COV => {
            let (dataset, kind, query, confidence, time) = read_estimate_shape(&mut frame.body)?;
            Request::EstimateCov {
                dataset,
                kind,
                query,
                confidence,
                time,
            }
        }
        proto::REQ_WATCH => {
            let (dataset, kind, query, confidence, time) = read_estimate_shape(&mut frame.body)?;
            Request::Watch {
                dataset,
                kind,
                query,
                confidence,
                time,
            }
        }
        proto::REQ_POLICY_SET => {
            let mut sec = frame.body.expect_section(1)?;
            let dataset = sec.get_str()?;
            sec.finish()?;
            let mut sec = frame.body.expect_section(2)?;
            let policy = Policy::read_wire(&mut sec)?;
            sec.finish()?;
            Request::PolicySet { dataset, policy }
        }
        proto::REQ_POLICY_SHOW => {
            let mut sec = frame.body.expect_section(1)?;
            let dataset = match sec.get_u8()? {
                0 => None,
                1 => Some(sec.get_str()?),
                other => {
                    return Err(CodecError::Invalid(format!(
                        "bad dataset-filter flag {other}"
                    )))
                }
            };
            sec.finish()?;
            Request::PolicyShow { dataset }
        }
        proto::REQ_INGEST => {
            let mut meta = frame.body.expect_section(1)?;
            let dataset = meta.get_str()?;
            let ts = meta.get_u64()?;
            meta.finish()?;
            let mut body = frame.body.expect_section(2)?;
            let frame_bytes = body.get_bytes(body.remaining())?.to_vec();
            Request::Ingest {
                dataset,
                ts,
                frame: frame_bytes,
            }
        }
        proto::REQ_LIST => Request::List,
        proto::REQ_STATS => Request::Stats,
        proto::REQ_PING => Request::Ping,
        proto::REQ_METRICS => Request::Metrics,
        proto::REQ_SHUTDOWN => Request::Shutdown,
        other => return Err(CodecError::UnknownKind(other)),
    };
    frame.body.finish()?;
    Ok(req)
}

/// Encodes a response frame.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Err(msg) => encode_frame(proto::RESP_ERR, |w| {
            w.section(1, |w| w.put_str(msg));
        }),
        Response::Query {
            value,
            windows,
            cached,
        } => encode_frame(proto::RESP_OK, |w| {
            w.section(1, |w| {
                w.put_f64(*value);
                w.put_u64(*windows);
                w.put_u8(*cached as u8);
            });
        }),
        Response::Estimate {
            estimate,
            windows,
            cached,
        } => encode_frame(proto::RESP_OK, |w| {
            w.section(1, |w| {
                w.put_u64(*windows);
                w.put_u8(*cached as u8);
            });
            // The estimate travels as its own section (the same body
            // layout as a standalone TAG_ESTIMATE frame).
            estimate.write_wire(w);
        }),
        Response::EstimateCov {
            estimate,
            windows,
            cached,
            coverage,
        } => encode_frame(proto::RESP_OK, |w| {
            w.section(1, |w| {
                w.put_u64(*windows);
                w.put_u8(*cached as u8);
            });
            estimate.write_wire(w);
            w.section(3, |w| coverage.write_wire(w));
        }),
        Response::Watch { watch_id } => encode_frame(proto::RESP_OK, |w| {
            w.section(1, |w| w.put_u64(*watch_id));
        }),
        Response::PolicySet => encode_frame(proto::RESP_OK, |w| {
            w.section(1, |_| {});
        }),
        Response::Policies(rows) => encode_frame(proto::RESP_OK, |w| {
            w.section(1, |w| {
                w.put_u64(rows.len() as u64);
                for (dataset, policy) in rows {
                    w.put_str(dataset);
                    policy.write_wire(w);
                }
            });
        }),
        Response::Ingest {
            level,
            start,
            items,
        } => encode_frame(proto::RESP_OK, |w| {
            w.section(1, |w| {
                w.put_u8(level.tag());
                w.put_u64(*start);
                w.put_u64(*items);
            });
        }),
        Response::List(rows) => encode_frame(proto::RESP_OK, |w| {
            w.section(1, |w| {
                w.put_u64(rows.len() as u64);
                for r in rows {
                    w.put_str(&r.key.dataset);
                    w.put_u16(r.key.kind.tag());
                    w.put_u8(r.key.level.tag());
                    w.put_u64(r.key.start);
                    w.put_u64(r.items);
                    w.put_u64(r.batches);
                    w.put_u64(r.frame_bytes);
                }
            });
        }),
        Response::Stats(pairs) => encode_frame(proto::RESP_OK, |w| {
            w.section(1, |w| {
                w.put_u64(pairs.len() as u64);
                for (name, value) in pairs {
                    w.put_str(name);
                    w.put_u64(*value);
                }
            });
        }),
        Response::Metrics(report) => encode_frame(proto::RESP_OK, |w| {
            w.section(1, |w| {
                w.put_u64(report.counters.len() as u64);
                for (name, value) in &report.counters {
                    w.put_str(name);
                    w.put_u64(*value);
                }
            });
            // Histograms travel sparse: only nonzero buckets, as sorted
            // (index, count) pairs, exactly the snapshot representation.
            w.section(2, |w| {
                w.put_u64(report.histograms.len() as u64);
                for (name, h) in &report.histograms {
                    w.put_str(name);
                    w.put_u64(h.count);
                    w.put_u64(h.sum);
                    w.put_u64(h.min);
                    w.put_u64(h.max);
                    w.put_u64(h.buckets.len() as u64);
                    for &(i, n) in &h.buckets {
                        w.put_u32(i);
                        w.put_u64(n);
                    }
                }
            });
        }),
        Response::Pong => encode_frame(proto::RESP_OK, |w| {
            w.section(1, |_| {});
        }),
        Response::Shutdown => encode_frame(proto::RESP_OK, |w| {
            w.section(1, |_| {});
        }),
        Response::Busy(msg) => encode_frame(proto::RESP_BUSY, |w| {
            w.section(1, |w| w.put_str(msg));
        }),
    }
}

/// Decodes the response to a request of kind `request_tag` (the client's
/// half; OK-response layouts differ per request).
pub fn decode_response(bytes: &[u8], request_tag: u16) -> Result<Response, CodecError> {
    let mut frame = open_frame(bytes)?;
    if frame.kind == proto::RESP_ERR || frame.kind == proto::RESP_BUSY {
        let mut sec = frame.body.expect_section(1)?;
        let msg = sec.get_str()?;
        sec.finish()?;
        frame.body.finish()?;
        return Ok(if frame.kind == proto::RESP_ERR {
            Response::Err(msg)
        } else {
            Response::Busy(msg)
        });
    }
    if frame.kind != proto::RESP_OK {
        return Err(CodecError::UnknownKind(frame.kind));
    }
    let mut sec = frame.body.expect_section(1)?;
    let resp = match request_tag {
        proto::REQ_QUERY => Response::Query {
            value: sec.get_f64()?,
            windows: sec.get_u64()?,
            cached: sec.get_u8()? != 0,
        },
        proto::REQ_ESTIMATE => {
            let windows = sec.get_u64()?;
            let cached = sec.get_u8()? != 0;
            sec.finish()?;
            let estimate = Estimate::read_wire(&mut frame.body)?;
            frame.body.finish()?;
            return Ok(Response::Estimate {
                estimate,
                windows,
                cached,
            });
        }
        proto::REQ_ESTIMATE_COV => {
            let windows = sec.get_u64()?;
            let cached = sec.get_u8()? != 0;
            sec.finish()?;
            let estimate = Estimate::read_wire(&mut frame.body)?;
            let mut cov = frame.body.expect_section(3)?;
            let coverage = Coverage::read_wire(&mut cov)?;
            cov.finish()?;
            frame.body.finish()?;
            return Ok(Response::EstimateCov {
                estimate,
                windows,
                cached,
                coverage,
            });
        }
        proto::REQ_WATCH => Response::Watch {
            watch_id: sec.get_u64()?,
        },
        proto::REQ_POLICY_SET => Response::PolicySet,
        proto::REQ_POLICY_SHOW => {
            // Smallest row: 1-byte dataset + two option flags + empty map.
            let n = sec.get_len(8 + 1 + 1 + 1 + 8)?;
            let mut rows = Vec::with_capacity(n);
            let mut prev: Option<String> = None;
            for _ in 0..n {
                let dataset = sec.get_str()?;
                if prev.as_deref().is_some_and(|p| p >= dataset.as_str()) {
                    return Err(CodecError::Invalid("policy rows out of order".into()));
                }
                let policy = Policy::read_wire(&mut sec)?;
                prev = Some(dataset.clone());
                rows.push((dataset, policy));
            }
            Response::Policies(rows)
        }
        proto::REQ_INGEST => {
            let tag = sec.get_u8()?;
            Response::Ingest {
                level: Level::from_tag(tag)
                    .ok_or_else(|| CodecError::Invalid(format!("unknown level {tag}")))?,
                start: sec.get_u64()?,
                items: sec.get_u64()?,
            }
        }
        proto::REQ_LIST => {
            let n = sec.get_len(8 + 1 + 2 + 1 + 8 + 8 + 8 + 8)?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let dataset = sec.get_str()?;
                let tag = sec.get_u16()?;
                let kind = SummaryKind::from_tag(tag).ok_or(CodecError::UnknownKind(tag))?;
                let level_tag = sec.get_u8()?;
                let level = Level::from_tag(level_tag)
                    .ok_or_else(|| CodecError::Invalid(format!("unknown level {level_tag}")))?;
                let start = sec.get_u64()?;
                rows.push(WindowRow {
                    key: WindowKey {
                        dataset,
                        kind,
                        level,
                        start,
                    },
                    items: sec.get_u64()?,
                    batches: sec.get_u64()?,
                    frame_bytes: sec.get_u64()?,
                });
            }
            Response::List(rows)
        }
        proto::REQ_STATS => {
            let n = sec.get_len(8 + 1 + 8)?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                let name = sec.get_str()?;
                pairs.push((name, sec.get_u64()?));
            }
            Response::Stats(pairs)
        }
        proto::REQ_METRICS => {
            let n = sec.get_len(4 + 8)?;
            let mut counters = Vec::with_capacity(n);
            for _ in 0..n {
                let name = sec.get_str()?;
                counters.push((name, sec.get_u64()?));
            }
            sec.finish()?;
            let mut sec = frame.body.expect_section(2)?;
            let n = sec.get_len(4 + 5 * 8)?;
            let mut histograms = Vec::with_capacity(n);
            for _ in 0..n {
                let name = sec.get_str()?;
                let count = sec.get_u64()?;
                let sum = sec.get_u64()?;
                let min = sec.get_u64()?;
                let max = sec.get_u64()?;
                let buckets_len = sec.get_len(4 + 8)?;
                let mut buckets = Vec::with_capacity(buckets_len);
                let mut prev: Option<u32> = None;
                for _ in 0..buckets_len {
                    let i = sec.get_u32()?;
                    if i as usize >= sas_obs::NUM_BUCKETS {
                        return Err(CodecError::Invalid(format!(
                            "bucket index {i} out of range"
                        )));
                    }
                    if prev.is_some_and(|p| p >= i) {
                        return Err(CodecError::Invalid(format!(
                            "bucket indexes not strictly increasing at {i}"
                        )));
                    }
                    prev = Some(i);
                    buckets.push((i, sec.get_u64()?));
                }
                histograms.push((
                    name,
                    HistogramSnapshot {
                        count,
                        sum,
                        min,
                        max,
                        buckets,
                    },
                ));
            }
            sec.finish()?;
            frame.body.finish()?;
            return Ok(Response::Metrics(MetricsReport {
                counters,
                histograms,
            }));
        }
        proto::REQ_PING => Response::Pong,
        proto::REQ_SHUTDOWN => Response::Shutdown,
        other => return Err(CodecError::UnknownKind(other)),
    };
    sec.finish()?;
    frame.body.finish()?;
    Ok(resp)
}

/// The shared body of the estimate-shaped requests ([`Request::Estimate`],
/// [`Request::EstimateCov`], [`Request::Watch`]): one meta section, then
/// the query as its own sections (the same body layout as a standalone
/// `TAG_QUERY` frame).
fn encode_estimate_shape(
    tag: u16,
    dataset: &str,
    kind: SummaryKind,
    query: &Query,
    confidence: f64,
    time: Option<(u64, u64)>,
) -> Vec<u8> {
    encode_frame(tag, |w| {
        w.section(1, |w| {
            w.put_str(dataset);
            w.put_u16(kind.tag());
            w.put_f64(confidence);
            put_time(w, time);
        });
        query.write_wire(w);
    })
}

type EstimateShape = (String, SummaryKind, Query, f64, Option<(u64, u64)>);

fn read_estimate_shape(body: &mut Reader<'_>) -> Result<EstimateShape, CodecError> {
    let mut meta = body.expect_section(1)?;
    let dataset = meta.get_str()?;
    let tag = meta.get_u16()?;
    let kind = SummaryKind::from_tag(tag).ok_or(CodecError::UnknownKind(tag))?;
    let confidence = meta.get_finite_f64()?;
    if !(0.0..=1.0).contains(&confidence) {
        return Err(CodecError::Invalid(format!(
            "confidence {confidence} outside [0, 1]"
        )));
    }
    let time = get_time(&mut meta)?;
    meta.finish()?;
    let query = Query::read_wire(body)?;
    Ok((dataset, kind, query, confidence, time))
}

/// One unsolicited push for a registered watch: the subscription's query
/// re-answered against the snapshot a sealed ingest batch published.
/// Values are bit-identical to polling the same canonical query — pushes
/// go through the store's one estimate path.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchUpdate {
    /// The subscription this update belongs to.
    pub watch_id: u64,
    /// Snapshot version the update was computed against.
    pub version: u64,
    /// Windows consulted.
    pub windows: u64,
    /// The estimate.
    pub estimate: Estimate,
    /// Gap report for the watched span against the same snapshot.
    pub coverage: Coverage,
}

/// Encodes a [`WatchUpdate`] as an unsolicited `RESP_PUSH` frame.
pub fn encode_push(update: &WatchUpdate) -> Vec<u8> {
    encode_frame(proto::RESP_PUSH, |w| {
        w.section(1, |w| {
            w.put_u64(update.watch_id);
            w.put_u64(update.version);
            w.put_u64(update.windows);
        });
        update.estimate.write_wire(w);
        w.section(3, |w| update.coverage.write_wire(w));
    })
}

/// Decodes a `RESP_PUSH` frame (never panics on hostile input).
pub fn decode_push(bytes: &[u8]) -> Result<WatchUpdate, CodecError> {
    let mut frame = open_frame(bytes)?;
    if frame.kind != proto::RESP_PUSH {
        return Err(CodecError::UnknownKind(frame.kind));
    }
    let mut sec = frame.body.expect_section(1)?;
    let watch_id = sec.get_u64()?;
    let version = sec.get_u64()?;
    let windows = sec.get_u64()?;
    sec.finish()?;
    let estimate = Estimate::read_wire(&mut frame.body)?;
    let mut cov = frame.body.expect_section(3)?;
    let coverage = Coverage::read_wire(&mut cov)?;
    cov.finish()?;
    frame.body.finish()?;
    Ok(WatchUpdate {
        watch_id,
        version,
        windows,
        estimate,
        coverage,
    })
}

/// Cheap check whether a received message is an unsolicited push (watch
/// clients interleave pushes with request replies on one connection).
pub fn is_push(bytes: &[u8]) -> bool {
    open_frame(bytes)
        .map(|f| f.kind == proto::RESP_PUSH)
        .unwrap_or(false)
}

fn put_time(w: &mut Writer, time: Option<(u64, u64)>) {
    match time {
        None => w.put_u8(0),
        Some((t0, t1)) => {
            w.put_u8(1);
            w.put_u64(t0);
            w.put_u64(t1);
        }
    }
}

fn get_time(r: &mut Reader<'_>) -> Result<Option<(u64, u64)>, CodecError> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => {
            let t0 = r.get_u64()?;
            let t1 = r.get_u64()?;
            if t0 > t1 {
                return Err(CodecError::Invalid(format!("empty time filter {t0}..{t1}")));
            }
            Ok(Some((t0, t1)))
        }
        other => Err(CodecError::Invalid(format!("bad time-filter flag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_fixtures() -> Vec<(Request, u16)> {
        vec![
            (
                Request::Query {
                    dataset: "web".into(),
                    kind: SummaryKind::Sample,
                    range: vec![(0, 99), (5, 10)],
                    time: Some((60, 119)),
                },
                proto::REQ_QUERY,
            ),
            (
                Request::Estimate {
                    dataset: "web".into(),
                    kind: SummaryKind::VarOptReservoir,
                    query: Query::MultiRange(vec![vec![(0, 9)], vec![(20, 29)]]),
                    confidence: 0.95,
                    time: Some((0, 600)),
                },
                proto::REQ_ESTIMATE,
            ),
            (
                Request::Estimate {
                    dataset: "web".into(),
                    kind: SummaryKind::Sample,
                    query: Query::Total,
                    confidence: 0.5,
                    time: None,
                },
                proto::REQ_ESTIMATE,
            ),
            (
                Request::EstimateCov {
                    dataset: "web".into(),
                    kind: SummaryKind::Sample,
                    query: Query::BoxRange(vec![(0, 99)]),
                    confidence: 0.9,
                    time: Some((0, 239)),
                },
                proto::REQ_ESTIMATE_COV,
            ),
            (
                Request::Watch {
                    dataset: "web".into(),
                    kind: SummaryKind::Sample,
                    query: Query::Total,
                    confidence: 0.95,
                    time: None,
                },
                proto::REQ_WATCH,
            ),
            (
                Request::PolicySet {
                    dataset: "web".into(),
                    policy: Policy {
                        compact_after: Some(60),
                        retention_ttl: Some(120),
                        per_kind_budget: [(SummaryKind::Sample.tag(), 64)].into_iter().collect(),
                    },
                },
                proto::REQ_POLICY_SET,
            ),
            (
                Request::PolicySet {
                    dataset: "web".into(),
                    policy: Policy::default(),
                },
                proto::REQ_POLICY_SET,
            ),
            (
                Request::PolicyShow {
                    dataset: Some("web".into()),
                },
                proto::REQ_POLICY_SHOW,
            ),
            (
                Request::PolicyShow { dataset: None },
                proto::REQ_POLICY_SHOW,
            ),
            (
                Request::Ingest {
                    dataset: "web".into(),
                    ts: 61,
                    frame: vec![1, 2, 3, 4],
                },
                proto::REQ_INGEST,
            ),
            (Request::List, proto::REQ_LIST),
            (Request::Stats, proto::REQ_STATS),
            (Request::Ping, proto::REQ_PING),
            (Request::Metrics, proto::REQ_METRICS),
            (Request::Shutdown, proto::REQ_SHUTDOWN),
        ]
    }

    /// A registry snapshot exercising every field: labeled and bare
    /// counters, an empty histogram, and a sparse multi-bucket one.
    fn metrics_fixture() -> MetricsReport {
        MetricsReport {
            counters: vec![
                ("sas_conns_accepted_total".into(), 256),
                ("sas_requests_total{tag=\"query\"}".into(), 5120),
            ],
            histograms: vec![
                (
                    "sas_request_ns{tag=\"ping\"}".into(),
                    HistogramSnapshot::default(),
                ),
                (
                    "sas_request_ns{tag=\"query\"}".into(),
                    HistogramSnapshot {
                        count: 5,
                        sum: 2_000_400,
                        min: 100,
                        max: 2_000_000,
                        buckets: vec![(100, 3), (101, 1), (1355, 1)],
                    },
                ),
            ],
        }
    }

    fn response_fixtures() -> Vec<(Response, u16)> {
        let row = WindowRow {
            key: WindowKey {
                dataset: "web".into(),
                kind: SummaryKind::QDigest,
                level: Level::Hour,
                start: 3600,
            },
            items: 7,
            batches: 9,
            frame_bytes: 321,
        };
        vec![
            (
                Response::Query {
                    value: -1.5,
                    windows: 3,
                    cached: true,
                },
                proto::REQ_QUERY,
            ),
            (
                Response::Estimate {
                    estimate: Estimate {
                        value: 41.5,
                        variance: 2.25,
                        lower: 38.0,
                        upper: 47.0,
                        confidence: 0.9,
                    },
                    windows: 4,
                    cached: false,
                },
                proto::REQ_ESTIMATE,
            ),
            (
                Response::EstimateCov {
                    estimate: Estimate {
                        value: 10.0,
                        variance: 1.0,
                        lower: 8.0,
                        upper: 12.0,
                        confidence: 0.9,
                    },
                    windows: 2,
                    cached: true,
                    coverage: Coverage {
                        requested: Some((0, 299)),
                        gaps: vec![
                            crate::policy::Gap {
                                start: 0,
                                end: 119,
                                expired: true,
                            },
                            crate::policy::Gap {
                                start: 240,
                                end: 299,
                                expired: false,
                            },
                        ],
                    },
                },
                proto::REQ_ESTIMATE_COV,
            ),
            (
                Response::EstimateCov {
                    estimate: Estimate::exact(0.0),
                    windows: 0,
                    cached: false,
                    coverage: Coverage::default(),
                },
                proto::REQ_ESTIMATE_COV,
            ),
            (Response::Watch { watch_id: 7 }, proto::REQ_WATCH),
            (Response::PolicySet, proto::REQ_POLICY_SET),
            (
                Response::Policies(vec![
                    (
                        "app".into(),
                        Policy {
                            retention_ttl: Some(3600),
                            ..Policy::default()
                        },
                    ),
                    (
                        "web".into(),
                        Policy {
                            compact_after: Some(60),
                            retention_ttl: Some(120),
                            per_kind_budget: [(SummaryKind::Sample.tag(), 64)]
                                .into_iter()
                                .collect(),
                        },
                    ),
                ]),
                proto::REQ_POLICY_SHOW,
            ),
            (Response::Policies(vec![]), proto::REQ_POLICY_SHOW),
            (
                Response::Ingest {
                    level: Level::Minute,
                    start: 60,
                    items: 12,
                },
                proto::REQ_INGEST,
            ),
            (Response::List(vec![row]), proto::REQ_LIST),
            (Response::List(vec![]), proto::REQ_LIST),
            (
                Response::Stats(vec![("queries".into(), 4), ("windows".into(), 2)]),
                proto::REQ_STATS,
            ),
            (Response::Metrics(metrics_fixture()), proto::REQ_METRICS),
            (
                Response::Metrics(MetricsReport::default()),
                proto::REQ_METRICS,
            ),
            (Response::Pong, proto::REQ_PING),
            (Response::Shutdown, proto::REQ_SHUTDOWN),
            (Response::Err("boom".into()), proto::REQ_QUERY),
            (Response::Err("boom".into()), proto::REQ_LIST),
            (Response::Busy("shedding load".into()), proto::REQ_QUERY),
            (
                Response::Busy("too many connections".into()),
                proto::REQ_PING,
            ),
        ]
    }

    #[test]
    fn requests_roundtrip() {
        for (req, tag) in request_fixtures() {
            let bytes = encode_request(&req);
            assert_eq!(open_frame(&bytes).unwrap().kind, tag);
            assert_eq!(decode_request(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_roundtrip() {
        for (resp, tag) in response_fixtures() {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes, tag).unwrap(), resp, "{resp:?}");
        }
    }

    fn push_fixture() -> WatchUpdate {
        WatchUpdate {
            watch_id: 3,
            version: 41,
            windows: 2,
            estimate: Estimate {
                value: 99.5,
                variance: 4.0,
                lower: 90.0,
                upper: 109.0,
                confidence: 0.95,
            },
            coverage: Coverage {
                requested: Some((0, 179)),
                gaps: vec![crate::policy::Gap {
                    start: 0,
                    end: 59,
                    expired: true,
                }],
            },
        }
    }

    #[test]
    fn push_frames_roundtrip_and_are_distinguishable() {
        let update = push_fixture();
        let bytes = encode_push(&update);
        assert!(is_push(&bytes));
        assert_eq!(decode_push(&bytes).unwrap(), update);
        // Ordinary responses are not pushes, and vice versa.
        let ok = encode_response(&Response::Pong);
        assert!(!is_push(&ok));
        assert!(decode_push(&ok).is_err());
        assert!(decode_response(&bytes, proto::REQ_PING).is_err());
    }

    #[test]
    fn hostile_push_frames_never_panic() {
        let bytes = encode_push(&push_fixture());
        for len in 0..bytes.len() {
            assert!(decode_push(&bytes[..len]).is_err(), "prefix {len}");
            let _ = is_push(&bytes[..len]);
        }
        for bit in 0..bytes.len() * 8 {
            let mut corrupt = bytes.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            assert!(decode_push(&corrupt).is_err(), "bit {bit}");
        }
    }

    #[test]
    fn estimate_response_is_not_decodable_under_the_old_tag() {
        // A REQ_ESTIMATE reply misread as a REQ_QUERY reply (or vice versa)
        // must fail cleanly — the two OK layouts are not interchangeable.
        let est = Response::Estimate {
            estimate: Estimate {
                value: 1.0,
                variance: 0.5,
                lower: 0.0,
                upper: 2.5,
                confidence: 0.9,
            },
            windows: 2,
            cached: false,
        };
        assert!(decode_response(&encode_response(&est), proto::REQ_QUERY).is_err());
        let plain = Response::Query {
            value: 1.0,
            windows: 2,
            cached: false,
        };
        assert!(decode_response(&encode_response(&plain), proto::REQ_ESTIMATE).is_err());
    }

    #[test]
    fn hostile_messages_never_panic() {
        for (req, _) in request_fixtures() {
            let bytes = encode_request(&req);
            for len in 0..bytes.len() {
                let _ = decode_request(&bytes[..len]);
            }
            for bit in 0..bytes.len() * 8 {
                let mut corrupt = bytes.clone();
                corrupt[bit / 8] ^= 1 << (bit % 8);
                assert!(decode_request(&corrupt).is_err(), "{req:?} bit {bit}");
            }
        }
        for (resp, tag) in response_fixtures() {
            let bytes = encode_response(&resp);
            for bit in 0..bytes.len() * 8 {
                let mut corrupt = bytes.clone();
                corrupt[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    decode_response(&corrupt, tag).is_err(),
                    "{resp:?} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn invalid_shapes_rejected() {
        // Empty axis range.
        let bytes = encode_frame(proto::REQ_QUERY, |w| {
            w.section(1, |w| {
                w.put_str("d");
                w.put_u16(SummaryKind::Sample.tag());
                w.put_u8(0);
            });
            w.section(2, |w| {
                w.put_u64(1);
                w.put_u64(9);
                w.put_u64(3);
            });
        });
        assert!(decode_request(&bytes).is_err());
        // A summary frame is not a request.
        let frame = encode_frame(SummaryKind::Sample.tag(), |w| w.put_u64(0));
        assert!(matches!(
            decode_request(&frame),
            Err(CodecError::UnknownKind(_))
        ));
        // Inverted time filter.
        let bytes = encode_frame(proto::REQ_QUERY, |w| {
            w.section(1, |w| {
                w.put_str("d");
                w.put_u16(SummaryKind::Sample.tag());
                w.put_u8(1);
                w.put_u64(100);
                w.put_u64(50);
            });
            w.section(2, |w| w.put_u64(0));
        });
        assert!(decode_request(&bytes).is_err());
    }

    #[test]
    fn metrics_response_rejects_malformed_buckets() {
        let mk = |buckets: &[(u32, u64)]| {
            encode_frame(proto::RESP_OK, |w| {
                w.section(1, |w| w.put_u64(0));
                w.section(2, |w| {
                    w.put_u64(1);
                    w.put_str("sas_h_ns");
                    w.put_u64(buckets.iter().map(|&(_, n)| n).sum());
                    w.put_u64(0);
                    w.put_u64(0);
                    w.put_u64(0);
                    w.put_u64(buckets.len() as u64);
                    for &(i, n) in buckets {
                        w.put_u32(i);
                        w.put_u64(n);
                    }
                });
            })
        };
        assert!(decode_response(&mk(&[(0, 1), (5, 2)]), proto::REQ_METRICS).is_ok());
        // Out-of-range bucket index.
        let bad = mk(&[(sas_obs::NUM_BUCKETS as u32, 1)]);
        assert!(decode_response(&bad, proto::REQ_METRICS).is_err());
        // Non-increasing (duplicate) indexes break the sparse invariant.
        assert!(decode_response(&mk(&[(5, 1), (5, 1)]), proto::REQ_METRICS).is_err());
        assert!(decode_response(&mk(&[(6, 1), (5, 1)]), proto::REQ_METRICS).is_err());
    }

    #[test]
    fn estimate_request_rejects_bad_confidence_and_queries() {
        let mk = |confidence: f64, query: fn(&mut Writer)| {
            encode_frame(proto::REQ_ESTIMATE, |w| {
                w.section(1, |w| {
                    w.put_str("d");
                    w.put_u16(SummaryKind::Sample.tag());
                    w.put_f64(confidence);
                    w.put_u8(0);
                });
                query(w);
            })
        };
        let total: fn(&mut Writer) = |w| {
            w.section(1, |w| w.put_u8(5));
            w.section(2, |_| {});
        };
        assert!(decode_request(&mk(0.9, total)).is_ok());
        // Confidence outside [0, 1] (or NaN) is rejected at the wire.
        assert!(decode_request(&mk(1.5, total)).is_err());
        assert!(decode_request(&mk(-0.1, total)).is_err());
        assert!(decode_request(&mk(f64::NAN, total)).is_err());
        // A structurally invalid embedded query is rejected too.
        let reversed: fn(&mut Writer) = |w| {
            w.section(1, |w| w.put_u8(1));
            w.section(2, |w| {
                w.put_u64(1);
                w.put_u64(9);
                w.put_u64(3);
            });
        };
        assert!(decode_request(&mk(0.9, reversed)).is_err());
    }
}
