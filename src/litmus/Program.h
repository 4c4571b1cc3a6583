//===- Program.h - Litmus test programs -------------------------*- C++ -*-==//
///
/// \file
/// Litmus tests: small multi-threaded programs with a postcondition that
/// passes exactly when one execution of interest was taken (§2.2). Threads
/// are straight-line sequences of loads, stores, fences, transaction
/// delimiters and (for lock-elision tests) lock method calls; dependencies
/// are recorded structurally and rendered by the per-architecture printers
/// (e.g. as `eor`-tricks).
///
/// Each load implicitly defines a register named after its instruction
/// index; postconditions assert register and final-memory values.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_LITMUS_PROGRAM_H
#define TMW_LITMUS_PROGRAM_H

#include "execution/Event.h"

#include <string>
#include <tuple>
#include <vector>

namespace tmw {

/// One straight-line litmus instruction.
struct Instruction {
  enum class Kind : uint8_t {
    Load,
    Store,
    Fence,
    /// Begin a transaction; on abort, control transfers to a handler that
    /// zeroes the `ok` location (Fig. 2).
    TxBegin,
    TxEnd,
    Lock,
    Unlock,
    /// lock() to be elided (starts a transactional critical region).
    TxLock,
    TxUnlock,
  };

  Kind K = Kind::Load;
  LocId Loc = -1;
  /// Stored value (writes only).
  int Value = 0;
  MemOrder MO = MemOrder::NonAtomic;
  FenceKind FK = FenceKind::None;
  /// Half of an exclusive / locked RMW pair.
  bool Exclusive = false;
  /// Instruction index (same thread) of the RMW partner, or -1.
  int RmwPartner = -1;
  /// C++ atomic{} (vs synchronized{}) for TxBegin.
  bool TxnAtomic = false;
  /// Indices of earlier loads this instruction's address depends on.
  std::vector<unsigned> AddrDeps;
  /// Indices of earlier loads this instruction's data depends on.
  std::vector<unsigned> DataDeps;
  /// Indices of earlier loads this instruction is control-dependent on.
  std::vector<unsigned> CtrlDeps;
};

/// Asserts that the register defined by load \p LoadIndex of \p Thread
/// holds \p Value.
struct RegAssertion {
  unsigned Thread;
  unsigned LoadIndex;
  int Value;
};

/// Asserts that location \p Loc holds \p Value in the final state.
struct MemAssertion {
  LocId Loc;
  int Value;
};

/// A litmus test: initial state, threads, postcondition.
struct Program {
  std::string Name;
  std::vector<std::vector<Instruction>> Threads;
  /// Source line (1-based) of each instruction, parallel to `Threads`.
  /// Filled by `parseProgram`; programs built programmatically leave it
  /// empty, and consumers (the lint pass) report line 0 for those.
  std::vector<std::vector<unsigned>> SrcLines;
  /// Non-zero initial values (all other locations start at 0).
  std::vector<std::pair<LocId, int>> InitialValues;
  std::vector<RegAssertion> RegPost;
  std::vector<MemAssertion> MemPost;
  /// Source line (1-based) of each `post`, parallel to `RegPost` and
  /// `MemPost`; filled and left empty like `SrcLines`.
  std::vector<unsigned> RegPostLines, MemPostLines;
  /// Location names; index = LocId. The `ok` location, when present, is
  /// named "ok".
  std::vector<std::string> LocNames;

  /// Initial value of \p Loc (0 unless overridden).
  int initialValue(LocId Loc) const;
  /// Index of the location named \p Name, or -1.
  LocId locByName(const std::string &Name) const;
  /// Add (or find) a location named \p Name.
  LocId ensureLoc(const std::string &Name);
  /// True when any thread contains a transaction.
  bool hasTransactions() const;
};

/// A concrete outcome of running a litmus test: the values of every
/// asserted register and the final value of every location.
struct Outcome {
  /// (thread, load index, value) triples, sorted.
  std::vector<std::tuple<unsigned, unsigned, int>> RegValues;
  /// Final value per location id.
  std::vector<int> MemValues;

  bool operator==(const Outcome &O) const = default;
  bool operator<(const Outcome &O) const;
  /// True when this outcome satisfies the program's postcondition.
  bool satisfies(const Program &P) const;
  /// Render as "r0=1; x=2; ...".
  std::string str(const Program &P) const;
};

} // namespace tmw

#endif // TMW_LITMUS_PROGRAM_H
