//===- QueryIO.h - JSON wire form of the query API --------------*- C++ -*-==//
///
/// \file
/// Serialises `CheckRequest` / `CheckResponse` batches to JSON and back —
/// the machine-readable verdict interface between the model checker and
/// external tooling (CI artifacts, dashboards, diffing two commits'
/// verdicts), in the herd7 tradition of batch litmus tools with parseable
/// output.
///
/// The serialisation is *canonical*: fields are emitted in a fixed order,
/// every field is always present, and nothing nondeterministic is
/// included by default — so the JSON for a batch is byte-for-byte
/// identical for every `--jobs` value (the property CI pins by diffing a
/// 1-job and an N-job run). Timing and worker telemetry are opt-in
/// appendices (`IncludeTiming`, the `Telemetry` argument) and excluded
/// from that guarantee.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_QUERY_QUERYIO_H
#define TMW_QUERY_QUERYIO_H

#include "query/Query.h"

#include <span>
#include <string>
#include <string_view>

namespace tmw {

struct JsonValue;

/// One request / response as a single-line JSON object.
std::string toJson(const CheckRequest &R);
std::string toJson(const CheckResponse &R, bool IncludeTiming = false);

/// A request batch: `{"schema": "tmw-query-batch-v1", "requests": [...]}`
/// (one request per line).
std::string requestsToJson(std::span<const CheckRequest> Requests);

/// The same batch as a single line with no interior newlines — the NDJSON
/// framing the query server reads (one batch document per stdin/socket
/// line). Parses back through `requestsFromJson` like the multi-line form.
std::string requestsToJsonLine(std::span<const CheckRequest> Requests);

/// A verdicts document for a batch that failed before evaluation (e.g. a
/// malformed batch line): carries the schema, a top-level `"error"`, and
/// an empty `"responses"` array — what the server emits instead of dying.
std::string batchErrorToJson(const std::string &Error);

/// A response batch: `{"schema": "tmw-query-verdicts-v1", "responses":
/// [...]}`. When \p Telemetry is non-null a trailing `"telemetry"` object
/// (batch seconds, candidate/check totals, per-worker load) is appended —
/// and the output is no longer jobs-deterministic.
std::string responsesToJson(std::span<const CheckResponse> Responses,
                            const BatchTelemetry *Telemetry = nullptr);

/// Parse one request / response object (the `toJson` form). Returns false
/// and sets \p Error on malformed input.
bool requestFromJson(const JsonValue &V, CheckRequest &Out,
                     std::string *Error = nullptr);
bool responseFromJson(const JsonValue &V, CheckResponse &Out,
                      std::string *Error = nullptr);

/// Parse a request batch: the `requestsToJson` form, a bare JSON array of
/// requests, or a single request object. Takes a view, so the server
/// parses a batch line where it was read, without a copy of it.
bool requestsFromJson(std::string_view Text,
                      std::vector<CheckRequest> &Out,
                      std::string *Error = nullptr);

/// Parse a response batch (the `responsesToJson` form, a bare array, or a
/// single response object). Telemetry, when present, is ignored.
bool responsesFromJson(std::string_view Text,
                       std::vector<CheckResponse> &Out,
                       std::string *Error = nullptr);

} // namespace tmw

#endif // TMW_QUERY_QUERYIO_H
