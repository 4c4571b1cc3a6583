//===- QueryIO.cpp - JSON wire form of the query API ---------------------------==//

#include "query/QueryIO.h"

#include "query/Json.h"

#include <cstdio>

using namespace tmw;

namespace {

void appendSeconds(std::string &Out, double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6f", V);
  Out += Buf;
}

void appendOutcome(std::string &Out, const Outcome &O) {
  Out += "{\"regs\": [";
  bool First = true;
  for (const auto &[T, L, V] : O.RegValues) {
    if (!First)
      Out += ", ";
    First = false;
    Out += '[';
    jsonAppendUint(Out, T);
    Out += ", ";
    jsonAppendUint(Out, L);
    Out += ", ";
    jsonAppendInt(Out, V);
    Out += ']';
  }
  Out += "], \"mem\": [";
  First = true;
  for (int V : O.MemValues) {
    if (!First)
      Out += ", ";
    First = false;
    jsonAppendInt(Out, V);
  }
  Out += "]}";
}

void appendVerdict(std::string &Out, const ModelVerdict &V) {
  Out += "{\"spec\": ";
  jsonAppendString(Out, V.Spec);
  Out += ", \"allowed\": ";
  Out += V.Allowed ? "true" : "false";
  Out += ", \"consistent\": ";
  jsonAppendUint(Out, V.Consistent);
  Out += ", \"first_forbidden\": ";
  jsonAppendInt(Out, V.FirstForbidden);
  Out += ", \"failed_axioms\": [";
  bool First = true;
  for (const FailedAxiomInfo &F : V.FailedAxioms) {
    if (!First)
      Out += ", ";
    First = false;
    Out += "{\"axiom\": ";
    jsonAppendString(Out, F.Axiom);
    Out += ", \"witness\": [";
    bool FirstW = true;
    for (EventId E : F.Witness) {
      if (!FirstW)
        Out += ", ";
      FirstW = false;
      jsonAppendUint(Out, E);
    }
    Out += "]}";
  }
  Out += "], \"outcomes\": [";
  First = true;
  for (const Outcome &O : V.AllowedOutcomes) {
    if (!First)
      Out += ", ";
    First = false;
    appendOutcome(Out, O);
  }
  Out += "]}";
}

bool parseOutcome(const JsonValue &V, Outcome &Out, std::string *Error) {
  auto Fail = [&](const char *Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  const JsonValue *Regs = V.get("regs");
  const JsonValue *Mem = V.get("mem");
  if (!V.isObject() || !Regs || !Regs->isArray() || !Mem || !Mem->isArray())
    return Fail("outcome: expected {regs: [...], mem: [...]}");
  for (const JsonValue &R : Regs->Arr) {
    if (!R.isArray() || R.Arr.size() != 3 || !R.Arr[0].isNumber() ||
        !R.Arr[1].isNumber() || !R.Arr[2].isNumber())
      return Fail("outcome: bad reg triple");
    Out.RegValues.push_back({static_cast<unsigned>(R.Arr[0].Num),
                             static_cast<unsigned>(R.Arr[1].Num),
                             static_cast<int>(R.Arr[2].Num)});
  }
  for (const JsonValue &M : Mem->Arr) {
    if (!M.isNumber())
      return Fail("outcome: bad mem value");
    Out.MemValues.push_back(static_cast<int>(M.Num));
  }
  return true;
}

bool parseVerdict(const JsonValue &V, ModelVerdict &Out,
                  std::string *Error) {
  auto Fail = [&](const char *Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  if (!V.isObject())
    return Fail("verdict: expected an object");
  Out.Spec = std::string(V.getString("spec"));
  Out.Allowed = V.getBool("allowed");
  Out.Consistent = V.getUint("consistent");
  // Through the integer-preserving token path: u64-range counts and the
  // -1 sentinel survive a round trip exactly (a double read would round
  // anything above 2^53).
  Out.FirstForbidden = V.getInt("first_forbidden", -1);
  if (const JsonValue *Fa = V.get("failed_axioms"); Fa && Fa->isArray())
    for (const JsonValue &F : Fa->Arr) {
      if (!F.isObject())
        return Fail("verdict: bad failed_axioms entry");
      FailedAxiomInfo Info;
      Info.Axiom = std::string(F.getString("axiom"));
      if (const JsonValue *W = F.get("witness"); W && W->isArray())
        for (const JsonValue &E : W->Arr) {
          if (!E.isNumber())
            return Fail("verdict: bad witness event");
          Info.Witness.push_back(static_cast<EventId>(E.Num));
        }
      Out.FailedAxioms.push_back(std::move(Info));
    }
  if (const JsonValue *Os = V.get("outcomes"); Os && Os->isArray())
    for (const JsonValue &O : Os->Arr) {
      Outcome Parsed;
      if (!parseOutcome(O, Parsed, Error))
        return false;
      Out.AllowedOutcomes.push_back(std::move(Parsed));
    }
  return true;
}

/// Shared batch-parsing shape: `{"schema": ..., Key: [...]}`, a bare
/// array, or a single object.
template <class T, class ParseFn>
bool batchFromJson(std::string_view Text, const char *Key, ParseFn Parse,
                   std::vector<T> &Out, std::string *Error) {
  std::optional<JsonValue> V = parseJson(Text, Error);
  if (!V)
    return false;
  const JsonValue *List = nullptr;
  if (V->isObject()) {
    List = V->get(Key);
    if (!List) {
      // A single object.
      T One;
      if (!Parse(*V, One, Error))
        return false;
      Out.push_back(std::move(One));
      return true;
    }
  } else if (V->isArray()) {
    List = &*V;
  }
  if (!List || !List->isArray()) {
    if (Error)
      *Error = std::string("expected an object with '") + Key +
               "', an array, or a single object";
    return false;
  }
  for (const JsonValue &E : List->Arr) {
    T One;
    if (!Parse(E, One, Error))
      return false;
    Out.push_back(std::move(One));
  }
  return true;
}

} // namespace

std::string tmw::toJson(const CheckRequest &R) {
  std::string Out = "{\"name\": ";
  jsonAppendString(Out, R.Name);
  Out += ", \"source\": ";
  jsonAppendString(Out, R.Source);
  Out += ", \"corpus\": ";
  jsonAppendString(Out, R.Corpus);
  Out += ", \"models\": [";
  bool First = true;
  for (const std::string &Spec : R.ModelSpecs) {
    if (!First)
      Out += ", ";
    First = false;
    jsonAppendString(Out, Spec);
  }
  Out += "], \"explain\": ";
  Out += R.Explain ? "true" : "false";
  Out += ", \"outcomes\": ";
  Out += R.WantOutcomes ? "true" : "false";
  Out += ", \"candidate_cap\": ";
  jsonAppendUint(Out, R.CandidateCap);
  Out += '}';
  return Out;
}

std::string tmw::toJson(const CheckResponse &R, bool IncludeTiming) {
  std::string Out = "{\"name\": ";
  jsonAppendString(Out, R.Name);
  Out += ", \"error\": ";
  jsonAppendString(Out, R.Error);
  Out += ", \"error_line\": ";
  jsonAppendUint(Out, R.ErrorLine);
  Out += ", \"candidates\": ";
  jsonAppendUint(Out, R.Candidates);
  Out += ", \"truncated\": ";
  Out += R.Truncated ? "true" : "false";
  Out += ", \"verdicts\": [";
  bool First = true;
  for (const ModelVerdict &V : R.Verdicts) {
    if (!First)
      Out += ", ";
    First = false;
    appendVerdict(Out, V);
  }
  Out += ']';
  if (IncludeTiming) {
    Out += ", \"seconds\": ";
    appendSeconds(Out, R.Seconds);
  }
  Out += '}';
  return Out;
}

std::string tmw::requestsToJsonLine(std::span<const CheckRequest> Requests) {
  std::string Out = "{\"schema\": \"tmw-query-batch-v1\", \"requests\": [";
  for (size_t I = 0; I < Requests.size(); ++I) {
    if (I)
      Out += ", ";
    Out += toJson(Requests[I]);
  }
  Out += "]}";
  return Out;
}

std::string tmw::batchErrorToJson(const std::string &Error) {
  std::string Out = "{\"schema\": \"tmw-query-verdicts-v1\",\n \"error\": ";
  jsonAppendString(Out, Error);
  Out += ",\n \"responses\": [\n ]}\n";
  return Out;
}

std::string tmw::requestsToJson(std::span<const CheckRequest> Requests) {
  std::string Out = "{\"schema\": \"tmw-query-batch-v1\",\n \"requests\": [\n";
  for (size_t I = 0; I < Requests.size(); ++I) {
    Out += "  ";
    Out += toJson(Requests[I]);
    if (I + 1 < Requests.size())
      Out += ',';
    Out += '\n';
  }
  Out += " ]}\n";
  return Out;
}

std::string tmw::responsesToJson(std::span<const CheckResponse> Responses,
                                 const BatchTelemetry *Telemetry) {
  std::string Out =
      "{\"schema\": \"tmw-query-verdicts-v1\",\n \"responses\": [\n";
  for (size_t I = 0; I < Responses.size(); ++I) {
    Out += "  ";
    Out += toJson(Responses[I], /*IncludeTiming=*/Telemetry != nullptr);
    if (I + 1 < Responses.size())
      Out += ',';
    Out += '\n';
  }
  Out += " ]";
  if (Telemetry) {
    Out += ",\n \"telemetry\": {\"seconds\": ";
    appendSeconds(Out, Telemetry->Seconds);
    Out += ", \"programs\": ";
    jsonAppendUint(Out, Telemetry->Programs);
    Out += ", \"candidates\": ";
    jsonAppendUint(Out, Telemetry->Candidates);
    Out += ", \"checks\": ";
    jsonAppendUint(Out, Telemetry->Checks);
    // Cross-spec plan accounting (zeros under independent evaluation);
    // telemetry-only, so the canonical responses stay byte-identical
    // across strategies.
    Out += ", \"plan\": {\"term_evals\": ";
    jsonAppendUint(Out, Telemetry->Plan.TermEvals);
    Out += ", \"term_hits\": ";
    jsonAppendUint(Out, Telemetry->Plan.TermHits);
    Out += ", \"spec_evals\": ";
    jsonAppendUint(Out, Telemetry->Plan.SpecEvals);
    Out += ", \"spec_short_circuits\": ";
    jsonAppendUint(Out, Telemetry->Plan.SpecShortCircuits);
    Out += ", \"discharged\": ";
    jsonAppendUint(Out, Telemetry->Plan.Discharged);
    Out += ", \"compiles\": ";
    jsonAppendUint(Out, Telemetry->Plan.Compiles);
    Out += ", \"cache_hits\": ";
    jsonAppendUint(Out, Telemetry->Plan.CacheHits);
    Out += '}';
    // Persistent verdict-store traffic (zeros without a --store); like
    // the plan block, telemetry-only so the canonical responses stay
    // byte-identical with and without a store.
    Out += ", \"store\": {\"lookups\": ";
    jsonAppendUint(Out, Telemetry->Store.Lookups);
    Out += ", \"hits\": ";
    jsonAppendUint(Out, Telemetry->Store.Hits);
    Out += ", \"appends\": ";
    jsonAppendUint(Out, Telemetry->Store.Appends);
    Out += '}';
    Out += ", \"workers\": [";
    bool First = true;
    for (const WorkerLoad &L : Telemetry->Workers) {
      if (!First)
        Out += ", ";
      First = false;
      Out += "{\"busy_seconds\": ";
      appendSeconds(Out, L.BusySeconds);
      Out += ", \"tasks\": ";
      jsonAppendUint(Out, L.Tasks);
      Out += ", \"steals\": ";
      jsonAppendUint(Out, L.Steals);
      Out += ", \"candidates\": ";
      jsonAppendUint(Out, L.BasesVisited);
      Out += '}';
    }
    Out += "]}";
  }
  Out += "}\n";
  return Out;
}

bool tmw::requestFromJson(const JsonValue &V, CheckRequest &Out,
                          std::string *Error) {
  if (!V.isObject()) {
    if (Error)
      *Error = "request: expected an object";
    return false;
  }
  Out.Name = std::string(V.getString("name"));
  Out.Source = std::string(V.getString("source"));
  Out.Corpus = std::string(V.getString("corpus"));
  if (const JsonValue *Models = V.get("models"); Models && Models->isArray())
    for (const JsonValue &M : Models->Arr) {
      if (!M.isString()) {
        if (Error)
          *Error = "request: bad model spec (expected a string)";
        return false;
      }
      Out.ModelSpecs.push_back(M.Str);
    }
  Out.Explain = V.getBool("explain");
  Out.WantOutcomes = V.getBool("outcomes");
  Out.CandidateCap = V.getUint("candidate_cap");
  return true;
}

bool tmw::responseFromJson(const JsonValue &V, CheckResponse &Out,
                           std::string *Error) {
  if (!V.isObject()) {
    if (Error)
      *Error = "response: expected an object";
    return false;
  }
  Out.Name = std::string(V.getString("name"));
  Out.Error = std::string(V.getString("error"));
  Out.ErrorLine = static_cast<unsigned>(V.getUint("error_line"));
  Out.Candidates = V.getUint("candidates");
  Out.Truncated = V.getBool("truncated");
  if (const JsonValue *Vs = V.get("verdicts"); Vs && Vs->isArray())
    for (const JsonValue &Verdict : Vs->Arr) {
      ModelVerdict Parsed;
      if (!parseVerdict(Verdict, Parsed, Error))
        return false;
      Out.Verdicts.push_back(std::move(Parsed));
    }
  Out.Seconds = V.getNumber("seconds");
  return true;
}

bool tmw::requestsFromJson(std::string_view Text,
                           std::vector<CheckRequest> &Out,
                           std::string *Error) {
  return batchFromJson<CheckRequest>(
      Text, "requests",
      [](const JsonValue &V, CheckRequest &R, std::string *E) {
        return requestFromJson(V, R, E);
      },
      Out, Error);
}

bool tmw::responsesFromJson(std::string_view Text,
                            std::vector<CheckResponse> &Out,
                            std::string *Error) {
  return batchFromJson<CheckResponse>(
      Text, "responses",
      [](const JsonValue &V, CheckResponse &R, std::string *E) {
        return responseFromJson(V, R, E);
      },
      Out, Error);
}
