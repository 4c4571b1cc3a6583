//===- query_io_test.cpp - JSON wire-form tests --------------------------------==//
///
/// Golden and round-trip coverage of the query JSON (query/QueryIO.h):
/// `CheckRequest` / `CheckResponse` serialise with a stable field order
/// (pinned byte-for-byte by golden strings), parse back to equal values,
/// and an engine-produced batch serialises identically whatever the Jobs
/// value. Plus the small JSON parser's error paths.
///
//===----------------------------------------------------------------------===//

#include "query/Json.h"
#include "query/QueryEngine.h"
#include "query/QueryIO.h"
#include "synth/SuiteIO.h"

#include <gtest/gtest.h>

using namespace tmw;

namespace {

CheckRequest sampleRequest() {
  CheckRequest R;
  R.Name = "sample";
  R.Source = "name SB\nthread 0\n  store x 1\n  load y\n";
  R.ModelSpecs = {"x86", "power/-TxnOrder", "power8"};
  R.Explain = true;
  R.WantOutcomes = true;
  R.CandidateCap = 64;
  return R;
}

CheckResponse sampleResponse() {
  CheckResponse Resp;
  Resp.Name = "SB+\"quoted\"";
  Resp.Candidates = 4;
  ModelVerdict V;
  V.Spec = "x86";
  V.Allowed = true;
  V.Consistent = 3;
  V.FirstForbidden = 2;
  V.FailedAxioms.push_back({"TxnOrder", {0, 2, 3}});
  Outcome O;
  O.RegValues = {{0, 1, 0}, {1, 1, -1}};
  O.MemValues = {1, 0};
  V.AllowedOutcomes.push_back(O);
  // Five registers and five locations: past the inline capacity, so it
  // is written and parsed back through the heap path.
  Outcome Wide;
  Wide.RegValues = {{1, 0, 1}, {1, 1, 1}, {1, 2, 0}, {1, 3, 0}, {1, 4, 0}};
  Wide.MemValues = {1, 1, 1, 1, 1};
  V.AllowedOutcomes.push_back(Wide);
  Resp.Verdicts.push_back(std::move(V));
  Resp.Seconds = 0.25; // excluded from the canonical form
  return Resp;
}

TEST(QueryIO, RequestGolden) {
  EXPECT_EQ(
      toJson(sampleRequest()),
      "{\"name\": \"sample\", "
      "\"source\": \"name SB\\nthread 0\\n  store x 1\\n  load y\\n\", "
      "\"corpus\": \"\", "
      "\"models\": [\"x86\", \"power/-TxnOrder\", \"power8\"], "
      "\"explain\": true, \"outcomes\": true, \"candidate_cap\": 64}");
}

TEST(QueryIO, ResponseGolden) {
  EXPECT_EQ(
      toJson(sampleResponse()),
      "{\"name\": \"SB+\\\"quoted\\\"\", \"error\": \"\", "
      "\"error_line\": 0, \"candidates\": 4, \"truncated\": false, "
      "\"verdicts\": [{\"spec\": \"x86\", \"allowed\": true, "
      "\"consistent\": 3, \"first_forbidden\": 2, "
      "\"failed_axioms\": [{\"axiom\": \"TxnOrder\", "
      "\"witness\": [0, 2, 3]}], "
      "\"outcomes\": [{\"regs\": [[0, 1, 0], [1, 1, -1]], "
      "\"mem\": [1, 0]}, "
      "{\"regs\": [[1, 0, 1], [1, 1, 1], [1, 2, 0], [1, 3, 0], [1, 4, 0]], "
      "\"mem\": [1, 1, 1, 1, 1]}]}]}");
  // Timing is an opt-in appendix, excluded from the canonical form.
  std::string Timed = toJson(sampleResponse(), /*IncludeTiming=*/true);
  EXPECT_NE(Timed.find("\"seconds\": 0.250000"), std::string::npos);
}

TEST(QueryIO, RequestRoundTrip) {
  CheckRequest R = sampleRequest();
  std::string Json = toJson(R);
  std::optional<JsonValue> V = parseJson(Json);
  ASSERT_TRUE(V.has_value());
  CheckRequest Back;
  std::string Error;
  ASSERT_TRUE(requestFromJson(*V, Back, &Error)) << Error;
  // Field-exact: re-serialising reproduces the bytes.
  EXPECT_EQ(toJson(Back), Json);
  EXPECT_EQ(Back.Name, R.Name);
  EXPECT_EQ(Back.Source, R.Source);
  EXPECT_EQ(Back.ModelSpecs, R.ModelSpecs);
  EXPECT_EQ(Back.Explain, R.Explain);
  EXPECT_EQ(Back.WantOutcomes, R.WantOutcomes);
  EXPECT_EQ(Back.CandidateCap, R.CandidateCap);
}

TEST(QueryIO, ResponseRoundTrip) {
  CheckResponse R = sampleResponse();
  std::string Json = toJson(R);
  std::optional<JsonValue> V = parseJson(Json);
  ASSERT_TRUE(V.has_value());
  CheckResponse Back;
  std::string Error;
  ASSERT_TRUE(responseFromJson(*V, Back, &Error)) << Error;
  EXPECT_EQ(toJson(Back), Json);
  ASSERT_EQ(Back.Verdicts.size(), 1u);
  EXPECT_EQ(Back.Verdicts[0].AllowedOutcomes, R.Verdicts[0].AllowedOutcomes);
  EXPECT_EQ(Back.Verdicts[0].FailedAxioms[0].Witness,
            R.Verdicts[0].FailedAxioms[0].Witness);
}

TEST(QueryIO, BatchRoundTrip) {
  std::vector<CheckRequest> Requests = {sampleRequest(), CheckRequest{}};
  Requests[1].Corpus = "SB";
  std::string Json = requestsToJson(Requests);
  std::vector<CheckRequest> Back;
  std::string Error;
  ASSERT_TRUE(requestsFromJson(Json, Back, &Error)) << Error;
  ASSERT_EQ(Back.size(), 2u);
  EXPECT_EQ(requestsToJson(Back), Json);

  std::vector<CheckResponse> Responses = {sampleResponse()};
  std::string RJson = responsesToJson(Responses);
  std::vector<CheckResponse> RBack;
  ASSERT_TRUE(responsesFromJson(RJson, RBack, &Error)) << Error;
  ASSERT_EQ(RBack.size(), 1u);
  EXPECT_EQ(responsesToJson(RBack), RJson);

  // Telemetry is an appendix: parse ignores it, and its presence never
  // changes the parsed responses.
  BatchTelemetry T;
  T.Seconds = 1.5;
  T.Programs = 1;
  T.Workers.push_back({0.5, 1, 0, 0, 4});
  std::vector<CheckResponse> TBack;
  ASSERT_TRUE(responsesFromJson(responsesToJson(Responses, &T), TBack,
                                &Error))
      << Error;
  ASSERT_EQ(TBack.size(), 1u);
  EXPECT_EQ(TBack[0].Name, Responses[0].Name);

  // A single bare object also parses as a one-element batch.
  std::vector<CheckRequest> Single;
  ASSERT_TRUE(requestsFromJson(toJson(sampleRequest()), Single, &Error))
      << Error;
  EXPECT_EQ(Single.size(), 1u);
}

TEST(QueryIO, EngineBatchStableAcrossJobs) {
  // End to end: an engine-produced corpus slice serialises to identical
  // bytes for every Jobs value, and survives a parse → serialise loop.
  std::vector<CheckRequest> Requests;
  for (const char *Name : {"SB", "MP", "LB", "IRIW", "SB+txns"}) {
    CheckRequest R;
    R.Corpus = Name;
    R.ModelSpecs = {"x86", "power", "armv8-rtl"};
    R.Explain = true;
    R.WantOutcomes = true;
    Requests.push_back(std::move(R));
  }
  std::string Golden;
  for (unsigned Jobs : {1u, 4u, 16u}) {
    std::string Json =
        responsesToJson(QueryEngine({Jobs}).runAll(Requests));
    if (Golden.empty())
      Golden = Json;
    else
      ASSERT_EQ(Json, Golden) << "Jobs = " << Jobs;
  }
  std::vector<CheckResponse> Back;
  std::string Error;
  ASSERT_TRUE(responsesFromJson(Golden, Back, &Error)) << Error;
  EXPECT_EQ(responsesToJson(Back), Golden);
}

TEST(QueryIO, SuiteManifestIsCanonical) {
  // The SuiteIO JSON extension shares the canonical style: stable bytes,
  // parseable, tests replayable as query requests.
  std::string Json = suiteToJson("demo", {}, /*Forbidden=*/true);
  EXPECT_EQ(Json, "{\"schema\": \"tmw-suite-v1\", \"suite\": \"demo\", "
                  "\"verdict\": \"forbidden\", \"tests\": [\n]}\n");
  std::optional<JsonValue> V = parseJson(Json);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->getString("schema"), "tmw-suite-v1");
}

TEST(Json, ParserErrors) {
  std::string Error;
  EXPECT_FALSE(parseJson("", &Error).has_value());
  EXPECT_FALSE(parseJson("{", &Error).has_value());
  EXPECT_FALSE(parseJson("{\"a\": }", &Error).has_value());
  EXPECT_FALSE(parseJson("[1, 2,, 3]", &Error).has_value());
  EXPECT_FALSE(parseJson("\"unterminated", &Error).has_value());
  EXPECT_FALSE(parseJson("{} trailing", &Error).has_value());
  EXPECT_FALSE(parseJson("nul", &Error).has_value());

  // Adversarial nesting is a parse error, not a stack overflow.
  std::string Deep(100000, '[');
  EXPECT_FALSE(parseJson(Deep, &Error).has_value());
  EXPECT_NE(Error.find("nesting"), std::string::npos);

  // Surrogate pairs decode to one UTF-8 sequence; unpaired halves are
  // rejected, not smuggled through as invalid UTF-8.
  std::optional<JsonValue> Emoji = parseJson("\"\\ud83d\\ude00\"", &Error);
  ASSERT_TRUE(Emoji.has_value()) << Error;
  EXPECT_EQ(Emoji->Str, "\xF0\x9F\x98\x80");
  EXPECT_FALSE(parseJson("\"\\ud83d\"", &Error).has_value());
  EXPECT_FALSE(parseJson("\"\\ude00\"", &Error).has_value());
  EXPECT_FALSE(parseJson("\"\\ud83dx\"", &Error).has_value());

  std::optional<JsonValue> V =
      parseJson("{\"a\": [1, -2.5, true, null, \"s\\u0041\"]}", &Error);
  ASSERT_TRUE(V.has_value()) << Error;
  const JsonValue *A = V->get("a");
  ASSERT_TRUE(A && A->isArray());
  ASSERT_EQ(A->Arr.size(), 5u);
  EXPECT_EQ(A->Arr[0].Num, 1);
  EXPECT_EQ(A->Arr[1].Num, -2.5);
  EXPECT_TRUE(A->Arr[2].B);
  EXPECT_TRUE(A->Arr[3].isNull());
  EXPECT_EQ(A->Arr[4].Str, "sA");
}

TEST(Json, DuplicateObjectKeysAreRejected) {
  // Documented policy (Json.h): a duplicate key is a parse error, never
  // first-wins or last-wins. Our writers emit fixed-order schemata and
  // cannot produce one, so a duplicate always means a malformed or
  // adversarial document.
  std::string Error;
  EXPECT_FALSE(parseJson("{\"a\": 1, \"a\": 2}", &Error).has_value());
  EXPECT_NE(Error.find("duplicate object key \"a\""), std::string::npos)
      << Error;

  // Nested objects are checked independently: a key may repeat across
  // levels, just not within one object.
  EXPECT_TRUE(parseJson("{\"a\": {\"a\": 1}}").has_value());
  EXPECT_FALSE(
      parseJson("{\"outer\": {\"x\": 1, \"y\": 2, \"x\": 3}}", &Error)
          .has_value());
  EXPECT_NE(Error.find("duplicate object key \"x\""), std::string::npos);

  // Array elements can repeat; distinct sibling keys still parse.
  EXPECT_TRUE(parseJson("[{\"k\": 1}, {\"k\": 2}]").has_value());
  EXPECT_TRUE(parseJson("{\"a\": 1, \"b\": 1}").has_value());

  // Keys distinct only after escape decoding are still duplicates.
  EXPECT_FALSE(parseJson("{\"a\": 1, \"\\u0061\": 2}", &Error).has_value());
}

TEST(Json, IntegerFidelity) {
  // The integer-preserving token path: u64-range integers survive a
  // parse exactly instead of being rounded through a double.
  std::string Error;

  // 2^53 + 1 is the first integer a double cannot hold; the exact path
  // must, on both keyed and value-level accessors.
  std::optional<JsonValue> V =
      parseJson("{\"cap\": 9007199254740993}", &Error);
  ASSERT_TRUE(V.has_value()) << Error;
  EXPECT_EQ(V->getUint("cap"), 9007199254740993ull);
  EXPECT_EQ(V->get("cap")->asUint(), std::optional<uint64_t>(9007199254740993ull));
  EXPECT_EQ(V->get("cap")->asInt(), std::optional<int64_t>(9007199254740993ll));

  // The u64 extremes round-trip; INT64_MIN takes the signed path.
  V = parseJson("{\"a\": 18446744073709551615, \"b\": -9223372036854775808}");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->getUint("a"), UINT64_MAX);
  EXPECT_EQ(V->getInt("b"), INT64_MIN);
  EXPECT_FALSE(V->get("a")->asInt().has_value());  // > INT64_MAX
  EXPECT_FALSE(V->get("b")->asUint().has_value()); // negative

  // Non-integer forms are *rejected* by the integer accessors (default
  // returned), never rounded: fractions, exponent forms — even ones that
  // happen to denote integers — and 64-bit overflows.
  V = parseJson("{\"f\": 1.5, \"e\": 1e3, \"E\": 9.007199254740993e15, "
                "\"big\": 18446744073709551616, "
                "\"neg\": -9223372036854775809}");
  ASSERT_TRUE(V.has_value());
  for (const char *Key : {"f", "e", "E", "big", "neg"}) {
    EXPECT_EQ(V->getUint(Key, 77), 77u) << Key;
    EXPECT_EQ(V->getInt(Key, -77), -77) << Key;
  }
  // ... while getNumber still reads them as doubles (tolerant path).
  EXPECT_EQ(V->getNumber("e"), 1000.0);

  // -0 is a plain integer token with value zero, not a rejection.
  V = parseJson("{\"z\": -0}");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->getInt("z", 77), 0);
  EXPECT_EQ(V->getUint("z", 77), 0u);

  // Out-of-double-range literals stay parse errors, not infinities.
  EXPECT_FALSE(parseJson("1e309", &Error).has_value());
  EXPECT_FALSE(parseJson("-1e309", &Error).has_value());
}

TEST(QueryIO, U64FieldsRoundTripExactly) {
  // End to end through the wire form: counts and caps above 2^53 and the
  // first_forbidden sentinel survive parse → serialise byte-for-byte.
  CheckRequest R;
  R.Name = "big";
  R.Corpus = "SB";
  R.CandidateCap = 9007199254740993ull; // 2^53 + 1
  std::string Json = toJson(R);
  std::vector<CheckRequest> Back;
  std::string Error;
  ASSERT_TRUE(requestsFromJson(Json, Back, &Error)) << Error;
  ASSERT_EQ(Back.size(), 1u);
  EXPECT_EQ(Back[0].CandidateCap, 9007199254740993ull);
  EXPECT_EQ(toJson(Back[0]), Json);

  CheckResponse Resp;
  Resp.Name = "big";
  Resp.Candidates = UINT64_MAX;
  ModelVerdict V;
  V.Spec = "x86";
  V.Consistent = 9007199254740995ull;
  V.FirstForbidden = 9007199254740997ll;
  Resp.Verdicts.push_back(V);
  std::string RJson = toJson(Resp);
  std::vector<CheckResponse> RBack;
  ASSERT_TRUE(responsesFromJson(RJson, RBack, &Error)) << Error;
  ASSERT_EQ(RBack.size(), 1u);
  EXPECT_EQ(RBack[0].Candidates, UINT64_MAX);
  EXPECT_EQ(RBack[0].Verdicts[0].Consistent, 9007199254740995ull);
  EXPECT_EQ(RBack[0].Verdicts[0].FirstForbidden, 9007199254740997ll);
  EXPECT_EQ(toJson(RBack[0]), RJson);
}

TEST(QueryIO, SingleLineBatchForm) {
  // The NDJSON framing the server reads: no interior newlines, parses
  // back to the same batch as the multi-line form.
  std::vector<CheckRequest> Requests = {sampleRequest(), CheckRequest{}};
  Requests[1].Corpus = "SB";
  std::string Line = requestsToJsonLine(Requests);
  EXPECT_EQ(Line.find('\n'), std::string::npos);
  std::vector<CheckRequest> Back;
  std::string Error;
  ASSERT_TRUE(requestsFromJson(Line, Back, &Error)) << Error;
  ASSERT_EQ(Back.size(), 2u);
  EXPECT_EQ(requestsToJson(Back), requestsToJson(Requests));

  // The batch-error document is schema'd, parseable, and empty.
  std::string Err = batchErrorToJson("batch parse error: boom \"quoted\"");
  std::optional<JsonValue> V = parseJson(Err, &Error);
  ASSERT_TRUE(V.has_value()) << Error;
  EXPECT_EQ(V->getString("schema"), "tmw-query-verdicts-v1");
  EXPECT_EQ(V->getString("error"), "batch parse error: boom \"quoted\"");
  std::vector<CheckResponse> None;
  ASSERT_TRUE(responsesFromJson(Err, None, &Error)) << Error;
  EXPECT_TRUE(None.empty());
}

TEST(Json, QuoteEscapes) {
  EXPECT_EQ(jsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(jsonQuote("a\"b\\c\nd\te"), "\"a\\\"b\\\\c\\nd\\te\"");
  EXPECT_EQ(jsonQuote(std::string_view("\x01", 1)), "\"\\u0001\"");
}

} // namespace
