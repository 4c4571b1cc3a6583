//===- VerdictStore.h - Persistent content-addressed verdict store -*- C++ -*-==//
///
/// \file
/// The cross-process, cross-run caching tier below `SessionCache`: an
/// append-only log of canonical `CheckResponse` JSON documents, each keyed
/// by the *full content* of the query it answers — program source, the
/// canonical resolved model specs, the options fingerprint (explain /
/// outcomes / candidate cap), and the engine version. Warm runs of
/// `litmus_tool --corpus --store` and a restarted `tmw_serve --store`
/// answer repeat queries at I/O speed instead of enumeration speed — the
/// herd7-campaign workload (an unchanged corpus re-checked per CI run) is
/// dominated by exactly such repeats.
///
/// Durability idiom (deliberately far simpler than a pager/WAL, because
/// entries are immutable and content-addressed):
///
///  * **Append + fsync only.** A record is appended and fsync'd under one
///    lock; nothing is ever updated in place, so there is no dirty-page
///    state to reason about and write-ahead ordering is the whole story.
///  * **Length + checksum framing.** Every record carries its field
///    lengths and an FNV-1a64 checksum; a torn or garbage tail left by a
///    crash fails the frame check, and `open()` truncates the log back to
///    the last valid record (counting the dropped bytes). A failed append
///    likewise rolls the file back to the pre-record offset.
///  * **Eviction can only drop work, never change an answer.** Every
///    record is an exact (key, canonical JSON) pair; `compact()` drops
///    stale-version and duplicate records and any torn tail, and a
///    dropped entry simply re-evaluates.
///  * **Version stamping.** Keys embed `kEngineVersion`; bump it whenever
///    verdict *semantics* can change (axiom fixes, enumeration-order
///    changes observable through `first_forbidden`, wire-form changes).
///    Records from another version are treated as misses (and reported as
///    `StaleRecords`), so a stale store can never serve a wrong answer.
///
/// Content addressing is *exact*: the whole key — including the entire
/// program source — is stored in each record and compared byte-for-byte
/// on lookup. Hashes appear only in the in-memory index (the map's hash)
/// and in display fingerprints, so aliasing is impossible by
/// construction, which is what makes the store auditable (`tmw_store
/// ls|verify|compact`) and verdict-neutral: a stored hit, a memory hit,
/// and a cold evaluation emit byte-for-byte identical canonical JSON.
///
/// Concurrency: lookups and appends from any thread (one mutex, like the
/// session cache); the multiplexer's rival connections share one store
/// under the one resident pool. Cross-*process* writers are not
/// coordinated — the intended shapes are one resident server, or
/// sequential CLI runs; a reader racing a writer sees a clean prefix.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_STORE_VERDICTSTORE_H
#define TMW_STORE_VERDICTSTORE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>

namespace tmw {

/// Lifetime counters of one open store (observability + the store tests;
/// reported through the opt-in telemetry appendix and `tmw_serve --stats`
/// only — the canonical verdict JSON never mentions the store).
struct StoreCounters {
  /// Lookups served from the store / answered "evaluate it yourself".
  uint64_t Hits = 0, Misses = 0;
  /// Records appended (and fsync'd) by this handle / appends that failed
  /// at the filesystem (the entry stays resident in memory only).
  uint64_t Appends = 0, AppendErrors = 0;
  /// Records currently indexed.
  uint64_t Records = 0;
  /// Valid records recovered from the log at `open()`.
  uint64_t RecoveredRecords = 0;
  /// Records skipped at `open()`: engine-version mismatch / duplicate key.
  uint64_t StaleRecords = 0, DuplicateRecords = 0;
  /// Bytes of torn/garbage tail truncated at `open()`.
  uint64_t TruncatedTailBytes = 0;
};

/// One record seen by `scan` (fsck / ls view; no index is built).
struct StoreRecord {
  std::string_view Key, Value;
  /// Byte offset of the record header in the file.
  uint64_t Offset = 0;
  /// Key stamped with a different `kEngineVersion`.
  bool Stale = false;
  /// Same key already appeared earlier in the log.
  bool Duplicate = false;
};

/// Read-only verdict of `VerdictStore::scan` over a store file.
struct StoreScan {
  /// Non-empty when the file could not be read or the header is corrupt /
  /// format-version-mismatched; nothing else is meaningful then.
  std::string Error;
  uint64_t FileBytes = 0;
  uint64_t ValidRecords = 0, StaleRecords = 0, DuplicateRecords = 0;
  /// Bytes past the last valid record (0 for a clean log).
  uint64_t TailBytes = 0;

  /// A store is clean when it opened and has no torn/garbage tail.
  bool clean() const { return Error.empty() && TailBytes == 0; }
};

/// The persistent verdict store (see file comment). Construct via `open`.
class VerdictStore {
public:
  /// Bump whenever verdict semantics can change: records stamped with any
  /// other version are unreachable (lookup misses) and are dropped by
  /// `compact`. History: 1 = first release of the store; 2 = a program
  /// with no well-formed candidate is an error, not `candidates: 0`; 3 = so
  /// is a program with any ill-formed shape (an abort path that drops an
  /// unlock), not verdicts over its other shapes.
  static constexpr uint32_t kEngineVersion = 3;

  /// Open (creating if absent) the store at \p Path for lookups and
  /// appends, rebuilding the in-memory index from the log and truncating
  /// any torn tail. Returns nullptr with a one-line \p Error on an
  /// unwritable path, a corrupt header, or a format-version mismatch —
  /// the callers' contract is to refuse to run rather than silently serve
  /// cache-less.
  static std::unique_ptr<VerdictStore> open(const std::string &Path,
                                            std::string *Error);
  ~VerdictStore();
  VerdictStore(const VerdictStore &) = delete;
  VerdictStore &operator=(const VerdictStore &) = delete;

  /// The canonical JSON document stored under \p Key, if any.
  std::optional<std::string> lookup(const std::string &Key);

  /// Append (and fsync) one record; a key already resident is a no-op
  /// (entries are immutable — a second evaluation of the same key is
  /// byte-identical by the engine's determinism contract). On a
  /// filesystem error the file is rolled back to the pre-record offset
  /// and the entry stays resident in memory only (counted in
  /// `AppendErrors`); correctness is unaffected either way. Returns true
  /// when the record landed durably.
  bool append(const std::string &Key, const std::string &CanonicalJson);

  StoreCounters counters() const;
  const std::string &path() const { return Path; }

  /// Build the exact content key of one query: engine version, options
  /// fingerprint, response name, the *canonical* resolved model specs
  /// (registry print order), and the full program source. Every field is
  /// length-prefixed, so distinct queries can never concatenate to the
  /// same key. \p Version is overridable for the version-mismatch tests.
  static std::string makeKey(std::string_view Name, std::string_view Source,
                             std::span<const std::string> CanonicalSpecs,
                             bool Explain, bool WantOutcomes,
                             uint64_t CandidateCap,
                             uint32_t Version = kEngineVersion);

  /// Short display fingerprint of a key (FNV-1a64, hex) — `tmw_store ls`
  /// output only, never used for matching.
  static std::string fingerprint(std::string_view Key);

  /// Read-only walk of the store at \p Path (fsck / ls): every valid
  /// record is handed to \p Fn (when set) in log order; nothing is
  /// truncated or modified. Header corruption is reported via
  /// `StoreScan::Error`, a torn tail via `TailBytes`.
  static StoreScan scan(const std::string &Path,
                        const std::function<void(const StoreRecord &)> &Fn);

  /// Rewrite the log at \p Path keeping only the first occurrence of each
  /// current-version key: stale-version records, duplicates, and any torn
  /// tail are dropped (work, never answers). Atomic via
  /// write-temp + fsync + rename. On success \p Result reports what the
  /// *old* file contained; returns false with \p Error otherwise.
  static bool compact(const std::string &Path, StoreScan *Result,
                      std::string *Error);

private:
  VerdictStore(std::string Path, int Fd);

  /// Append the framed record to the file; returns false (after rolling
  /// the file back) on any filesystem error. Caller holds Mu.
  bool writeRecord(const std::string &Key, const std::string &Value);

  const std::string Path;
  int Fd = -1;
  /// Byte offset of the end of the last durable record.
  uint64_t End = 0;
  mutable std::mutex Mu;
  std::unordered_map<std::string, std::string> Index;
  StoreCounters C;
};

} // namespace tmw

#endif // TMW_STORE_VERDICTSTORE_H
